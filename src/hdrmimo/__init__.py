"""Link-level simulator for quantized massive MU-MIMO uplinks in which one
user's receive power far exceeds the others'.

The receive chain applies per-cluster adaptive Householder reflections
before low-resolution ADCs so that the strong user (or the dominant receive
direction) lands on a dedicated converter pair, then detects all users with
a Bussgang-linearized LMMSE equalizer.
"""

from .channel import (
    ScenarioConfig,
    generate_channel,
    noise_variance_from_msnr,
    observe,
    realize_channel,
)
from .equalizer import (
    build_lmmse,
    build_unquantized_lmmse,
    count_bit_errors,
    equalize,
    hard_slice,
    modulate,
)
from .frontend import (
    AgcGains,
    QuantizerModel,
    SpatialTransform,
    adc,
    apply_transform,
    bussgang_constants,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
    midrise,
    optimal_step_size,
)
from .harness import (
    METHODS,
    ExperimentConfig,
    ResultRecord,
    emit_plot_script,
    parse_config,
    read_csv,
    run_sweep,
    run_trial,
    write_csv,
)
from .linalg import hadamard, posdef_inverse_apply
from .training import (
    TrainingOutput,
    covariance_blocks,
    estimate_from_training,
    generate_pilots,
    ls_channel_estimate,
    simulate_training,
    strongest_ue_index,
)

__version__ = "0.1.0"
