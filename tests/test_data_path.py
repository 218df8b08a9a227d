"""The data path against reference formulas, bit for bit.

Each ``reference_*`` function below is the plain formula that the in-place
code in ``channel``, ``frontend`` and ``equalizer`` evaluates with fewer
temporaries. Every element goes through the same floating-point operations,
so results must be identical, not merely close, and the random streams must
be consumed in the same order. ``reference_run_trial`` composes the
references into the whole trial.
"""

import itertools

import numpy as np
import pytest

from hdrmimo import channel
from hdrmimo.channel import (
    complex_noise,
    noise_variance_from_msnr,
    observe,
    realize_channel,
)
from hdrmimo.equalizer import (
    QAM16_LEVELS,
    build_lmmse,
    build_unquantized_lmmse,
    count_bit_errors,
    equalize,
    hard_slice,
    modulate,
)
from hdrmimo.frontend import (
    AgcGains,
    adc,
    apply_transform,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
    midrise,
)
from hdrmimo.harness import METHODS, ExperimentConfig, run_trial, trial_rng
from hdrmimo.training import estimate_from_training, generate_pilots, simulate_training
from oracles import random_complex

_PAIR_TO_LEVEL = np.array([0, 1, 3, 2])  # indexed by 2*b0 + b1
_LEVEL_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])


def reference_complex_noise(rng, shape, variance):
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_observe(h, s, n0, rng):
    s = np.asarray(s)
    out_shape = (h.shape[0],) if s.ndim == 1 else (h.shape[0], s.shape[1])
    return h @ s + reference_complex_noise(rng, out_shape, n0)


def reference_training(h, pilots, n0, rng):
    noise_shape = (h.shape[0], pilots.shape[1])
    return h @ pilots + reference_complex_noise(rng, noise_shape, n0)


def reference_modulate(bits):
    groups = np.asarray(bits, dtype=int).reshape(-1, 4)
    i_idx = _PAIR_TO_LEVEL[2 * groups[:, 0] + groups[:, 1]]
    q_idx = _PAIR_TO_LEVEL[2 * groups[:, 2] + groups[:, 3]]
    return QAM16_LEVELS[i_idx] + 1j * QAM16_LEVELS[q_idx]


def reference_hard_slice(s_hat):
    s_hat = np.asarray(s_hat, dtype=complex).reshape(-1)
    scaled_i = s_hat.real * np.sqrt(10.0)
    scaled_q = s_hat.imag * np.sqrt(10.0)
    i_idx = np.clip(np.floor((scaled_i + 4.0) / 2.0), 0, 3).astype(int)
    q_idx = np.clip(np.floor((scaled_q + 4.0) / 2.0), 0, 3).astype(int)
    bits = np.concatenate([_LEVEL_TO_BITS[i_idx], _LEVEL_TO_BITS[q_idx]], axis=1)
    return bits.reshape(-1)


def reference_midrise(x, delta, q):
    # Lookup of the clipped cell index in the table of levels.
    x = np.asarray(x, dtype=float)
    half = 2 ** (q - 1)
    levels = (delta / 2.0) * (2.0 * np.arange(-half, half) + 1.0)
    k = np.clip(np.floor(x / delta), -half, half - 1)
    nan = np.isnan(k)
    out = levels[np.where(nan, 0.0, k + half).astype(np.intp)]
    out[nan] = np.nan
    return out


def reference_adc(y_tilde, gains, quant):
    y_tilde = np.asarray(y_tilde, dtype=complex)
    omega = gains.omega if y_tilde.ndim == 1 else gains.omega[:, None]
    scaled = y_tilde * omega
    return reference_midrise(scaled.view(float), quant.delta, quant.q).view(complex)


def reference_run_trial(cfg, method, msnr_db, realization_index):
    """The trial body with every data-path stage replaced by its reference.

    The channel draw goes through ``reference_complex_noise`` too, patched
    in where ``channel`` looks the function up.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "complex_noise", reference_complex_noise)
        rng = trial_rng(cfg.seed, method, msnr_db, realization_index)
        h = realize_channel(cfg, rng, power_control_all=(method == "wsu"))
    n0 = noise_variance_from_msnr(h, msnr_db)
    pilots = generate_pilots(cfg.ues, cfg.pilot_length())
    y_train = reference_training(h, pilots, n0, rng)
    est = estimate_from_training(y_train, pilots, cfg.clusters)

    if method == "perfect":
        w = build_unquantized_lmmse(est.h_hat, n0)
    else:
        if method == "hr-iso":
            transform = design_hr_iso(est.h_hat[:, est.strong_index], cfg.clusters)
        elif method == "hr-max":
            transform = design_hr_max(est.c_y_blocks)
        else:
            transform = identity_transform(cfg.bs_antennas, cfg.clusters)
        quant = design_quantizer(cfg.q_bits)
        gains = compute_agc(est.c_y_blocks, transform)
        w = build_lmmse(est.h_hat, transform, gains, quant, n0)

    tx_bits = rng.integers(0, 2, size=(cfg.symbols, 4 * cfg.ues))
    s_block = reference_modulate(tx_bits.reshape(-1)).reshape(cfg.symbols, cfg.ues).T
    y_block = reference_observe(h, s_block, n0, rng)
    if method == "perfect":
        r_block = y_block
    else:
        r_block = reference_adc(apply_transform(transform, y_block), gains, quant)
    s_hat = equalize(w, r_block)
    rx_bits = reference_hard_slice(s_hat.T.reshape(-1))
    return count_bit_errors(tx_bits.reshape(-1), rx_bits)


def assert_same_floats(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero.

    A NaN's sign bit and payload carry no value and are not compared.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if np.iscomplexobj(a):
        a, b = a.view(float), b.view(float)
    assert np.array_equal(a, b, equal_nan=True)
    number = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[number]), np.signbit(b[number]))


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


class TestNoise:
    @pytest.mark.parametrize("shape", [(7,), (1,), (5, 9), (64, 300)])
    @pytest.mark.parametrize("variance", [1.0, 0.37, 1e-3, 250.0])
    def test_complex_noise(self, shape, variance):
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        out = complex_noise(rng, shape, variance)
        assert_same_floats(out, reference_complex_noise(ref_rng, shape, variance))
        # The same number of draws: the streams continue in step.
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_zero_variance_gives_zeros(self):
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        out = complex_noise(rng, (4, 6), 0.0)
        assert np.array_equal(out, reference_complex_noise(ref_rng, (4, 6), 0.0))
        assert not np.any(out)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("n", [None, 1, 3, 200])
    @pytest.mark.parametrize("n0", [0.5, 0.013])
    def test_observe(self, n, n0):
        rng = np.random.default_rng(23)
        h = random_complex(rng, 16, 4)
        # A symbol vector, or a (U, n) block as a transposed view, the
        # layout run_trial passes.
        s = random_complex(rng, 4) if n is None else random_complex(rng, n, 4).T
        rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
        out = observe(h, s, n0, rng)
        assert_same_floats(out, reference_observe(h, s, n0, ref_rng))
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("u, k", [(8, 8), (32, 32), (3, 4)])
    def test_simulate_training(self, u, k):
        rng = np.random.default_rng(28)
        h = random_complex(rng, 64, u)
        pilots = generate_pilots(u, k)
        rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
        out = simulate_training(h, pilots, 0.07, rng)
        ref = reference_training(h, pilots, 0.07, ref_rng)
        assert_same_floats(out, ref)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_observe_of_real_product(self):
        rng, ref_rng = np.random.default_rng(25), np.random.default_rng(25)
        h, s = np.ones((3, 2)), np.array([[1.0, -2.0], [0.5, 4.0]])
        out = observe(h, s, 0.2, rng)
        assert_same_floats(out, reference_observe(h, s, 0.2, ref_rng))


class TestModulate:
    def test_all_bit_patterns(self):
        bits = np.array(list(itertools.product((0, 1), repeat=4))).reshape(-1)
        assert_same_floats(modulate(bits), reference_modulate(bits))

    @pytest.mark.parametrize("shape", [(4,), (50, 32), (3, 8)])
    def test_random_blocks(self, shape):
        bits = np.random.default_rng(26).integers(0, 2, size=shape)
        assert_same_floats(modulate(bits), reference_modulate(bits))


class TestQuantizer:
    @staticmethod
    def probe_inputs(q, delta, rng):
        # Every cell edge out to one cell past saturation, each with its
        # float neighbours, cell midpoints, wide random draws and the
        # special values.
        half = 2 ** (q - 1)
        edges = delta * np.arange(-half - 1, half + 2)
        return np.concatenate(
            [
                with_neighbours(edges),
                delta * (np.arange(-half - 1, half + 1) + 0.5),
                3.0 * delta * half * rng.standard_normal(500),
                [0.0, -0.0, np.inf, -np.inf, np.nan],
            ]
        )

    @pytest.mark.parametrize("q", range(1, 13))
    def test_midrise(self, q):
        delta = design_quantizer(q).delta
        x = self.probe_inputs(q, delta, np.random.default_rng(q))
        assert_same_floats(midrise(x, delta, q), reference_midrise(x, delta, q))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_adc(self, q):
        quant = design_quantizer(q)
        rng = np.random.default_rng(100 + q)
        x = self.probe_inputs(q, quant.delta, rng)
        x = x[: x.size // 2 * 2]
        # Unit gains carry the probes to the quantizer unchanged, except that
        # an infinite part makes the complex product's other part NaN.
        y = x.view(complex).reshape(1, -1)
        ones = AgcGains(np.ones(1))
        with np.errstate(invalid="ignore"):
            assert_same_floats(adc(y, ones, quant), reference_adc(y, ones, quant))
        # Random gains on a (B, n) block and on a single vector.
        gains = AgcGains(rng.uniform(0.1, 10.0, 8))
        block = random_complex(rng, 8, 300) * 2.0
        before = block.copy()
        assert_same_floats(adc(block, gains, quant), reference_adc(block, gains, quant))
        assert_same_floats(block, before)  # the input is left as it was
        vec = block[:, 0].copy()
        assert_same_floats(adc(vec, gains, quant), reference_adc(vec, gains, quant))

    def test_adc_of_any_memory_layout(self):
        # Blocks that are not C-contiguous give the bits of their C-ordered
        # copy, in a C-ordered output.
        quant = design_quantizer(3)
        rng = np.random.default_rng(30)
        gains = AgcGains(rng.uniform(0.1, 10.0, 8))
        wide = random_complex(rng, 16, 300) * 2.0
        for y in (
            np.asfortranarray(wide[:8]),
            random_complex(rng, 300, 8).T,
            wide[::2, ::3],
            wide[::2, 0],
        ):
            assert not y.flags.c_contiguous
            out = adc(y, gains, quant)
            assert out.flags.c_contiguous
            assert_same_floats(out, adc(np.ascontiguousarray(y), gains, quant))


class TestHardSlice:
    # Per real dimension: the thresholds 0 and +-2/sqrt(10), the outer levels
    # +-3/sqrt(10) and points beyond +-4/sqrt(10), each with its float
    # neighbours, plus the inner levels and the infinities.
    AXIS = np.concatenate(
        [
            with_neighbours(
                np.array([0.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0])
                / np.sqrt(10.0)
            ),
            np.array([1.0, -1.0, 40.0, -40.0]) / np.sqrt(10.0),
            [-0.0, 1e300, -1e300, np.inf, -np.inf],
        ]
    )

    def test_every_pair_of_probe_values(self):
        re, im = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        s = np.empty(re.shape, complex)
        s.real, s.imag = re, im
        out = hard_slice(s)
        assert np.array_equal(out, reference_hard_slice(s))
        assert out.dtype == reference_hard_slice(s).dtype

    def test_infinities_take_the_outer_levels(self):
        s = np.empty(1, complex)
        s.real, s.imag = np.inf, -np.inf
        assert np.array_equal(hard_slice(s), [1, 0, 0, 0])

    def test_transposed_block_in_c_order(self):
        s_hat = random_complex(np.random.default_rng(27), 8, 300)
        assert np.array_equal(
            hard_slice(s_hat.T), reference_hard_slice(s_hat.T.reshape(-1))
        )

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.3, np.nan)])
    def test_nan_rejected(self, bad):
        s = np.full((3, 5), 0.1 + 0.1j)
        s[1, 2] = bad
        with pytest.raises(ValueError, match="NaN"):
            hard_slice(s)


def trial_cfg(**kwargs):
    defaults = dict(
        q_bits=3, rho_db=30.0, msnr_start=4.0, msnr_stop=12.0, msnr_step=8.0,
        realizations=2, symbols=60, seed=31,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize(
    "cfg",
    [
        trial_cfg(bs_antennas=64, ues=8, clusters=8),
        trial_cfg(bs_antennas=256, ues=32, clusters=32, msnr_start=12.0),
    ],
    ids=["desk", "paper"],
)
def test_run_trial_matches_reference_trial(cfg):
    for method in METHODS:
        for msnr_db in cfg.msnr_grid():
            for r in range(cfg.realizations):
                got = run_trial(cfg, method, msnr_db, r)
                assert got == reference_run_trial(cfg, method, msnr_db, r), (
                    method, msnr_db, r,
                )
