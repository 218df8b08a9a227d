"""Experiment orchestration: the sweep config, a trial's stages (draws,
receiver, detection), seeded Monte Carlo sweeps, config and CSV I/O, plots."""

from __future__ import annotations

import math
import numbers
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

import numpy as np

from .channel import (
    add_noise,
    column_slices,
    noise_variance_from_msnr,
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
    adc,
    apply_transform,
    compute_agc,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    identity_transform,
)
from .training import estimate_from_training, generate_pilots, simulate_training

METHODS = ("perfect", "wsu", "none", "hr-iso", "hr-max")

# Keeps the fixed-point MSNR encoding nonnegative for SeedSequence.
_MSNR_KEY_OFFSET = 1 << 40
# The MSNR grid's valid range: the fixed-point key resolves 1e-6 dB, so a
# step of at least 1e-5 dB gives each grid point its own stream, and within
# +-1000 dB the key stays nonnegative and 10^(MSNR/10) stays finite.
_MSNR_STEP_MIN_DB = 1e-5
_MSNR_LIMIT_DB = 1000.0


def _read_int(value) -> int:
    # int(text) refuses "3.7" and "3.0"; a number must be integral, not a bool.
    if isinstance(value, str):
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def _read_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _read_text(value) -> str:
    # str() would turn any object into text: argparse hands over an empty
    # list for the option value "--", which would name a file "[]".
    if not isinstance(value, str):
        raise ValueError(f"not text: {value!r}")
    return value


def _read_text_list(value) -> tuple:
    if isinstance(value, str):
        value = [m.strip() for m in value.split(",") if m.strip()]
    elif not isinstance(value, Sequence):
        raise ValueError(f"not a comma list or a sequence: {value!r}")
    return tuple(_read_text(m) for m in value)


# The reader for each declared field type. Text is read as a config file or
# a flag gives it, so every route to a field takes the same values.
_READERS = {
    int: _read_int,
    float: _read_float,
    str: _read_text,
    tuple[str, ...]: _read_text_list,
}


def config_key(default, help: str, lo=None, hi=None):
    """An ``ExperimentConfig`` field: its default, its flag help, and the
    inclusive range ``lo``..``hi`` its value must lie in (None: unbounded),
    kept in the field's metadata for ``__post_init__`` and the CLI."""
    return field(default=default, metadata={"help": help, "lo": lo, "hi": hi})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one BER sweep: the uplink scenario, then the
    quantizer, methods, MSNR grid, budget and output files.

    The scenario is the array/user geometry plus the channel-model knobs.
    ``rho_db`` is the receive-power dynamic range (dB) between the strongest
    and weakest user; all other users are power-controlled to within
    ``dr_limit_db``. The geometric channel model draws ``paths`` propagation
    paths per user with angles uniform in ``+-angle_sector_deg``, per-path
    powers decaying by ``path_decay_db`` per path, and log-normal shadowing
    of ``shadowing_std_db`` (median 1).

    Each field is declared once by ``config_key`` (type, default, range,
    help). ``__post_init__`` reads every field by the rule for its type,
    alike for text from a file or flag and for Python values
    (``q_bits="3"`` is 3; ``methods`` is a comma list or a sequence), checks
    that a float is finite and that each value lies in its range, then
    applies the rules that tie keys together: ``bs_antennas >= ues``,
    ``clusters`` divides ``bs_antennas``, ``rho_db >= dr_limit_db``,
    ``methods`` names distinct known methods, ``out`` is not empty and not
    the file ``plot_script`` names (nor, with a ``plot_script``, holds a
    line break), and ``msnr_stop >= msnr_start``. An empty ``plot_script``
    means no script. A bad value raises a ValueError that names the key.
    """

    bs_antennas: int = config_key(256, "basestation antenna count")
    ues: int = config_key(32, "number of single-antenna users", lo=2)
    clusters: int = config_key(32, "number of antenna clusters", lo=1)
    # rho_max; with dr_limit_db <= rho_db it bounds the control window too.
    rho_db: float = config_key(30.0, "strong-user dynamic range [dB]", hi=200.0)
    dr_limit_db: float = config_key(
        6.0, "receive-power window of the power-controlled users [dB]", lo=0.0
    )
    paths: int = config_key(5, "propagation paths per user", lo=1)
    angle_sector_deg: float = config_key(
        60.0, "path angles are uniform in +- this [deg]", lo=0.0, hi=90.0
    )
    path_decay_db: float = config_key(
        5.0, "power decay per successive path [dB]", lo=0.0
    )
    shadowing_std_db: float = config_key(
        8.0, "log-normal shadowing spread (median 1) [dB]", lo=0.0, hi=100.0
    )
    q_bits: int = config_key(3, "ADC resolution in bits", lo=1, hi=12)
    methods: tuple[str, ...] = config_key(
        METHODS, f"comma list from: {', '.join(METHODS)}"
    )
    msnr_start: float = config_key(
        -10.0, "first MSNR point [dB]", lo=-_MSNR_LIMIT_DB, hi=_MSNR_LIMIT_DB
    )
    msnr_stop: float = config_key(
        15.0, "last MSNR point [dB]", lo=-_MSNR_LIMIT_DB, hi=_MSNR_LIMIT_DB
    )
    msnr_step: float = config_key(2.5, "MSNR grid step [dB]", lo=_MSNR_STEP_MIN_DB)
    realizations: int = config_key(100, "channel realizations per MSNR point", lo=1)
    symbols: int = config_key(200, "symbol vectors per channel realization", lo=1)
    seed: int = config_key(1, "master seed for all substreams", lo=0)
    out: str = config_key("results.csv", "output CSV path")
    plot_script: str = config_key("", "also emit a gnuplot script here (empty: none)")
    threads: int = config_key(1, "worker threads for the sweep", lo=1, hi=64)

    def __post_init__(self) -> None:
        for f in fields(self):
            name, kind = f.name, _FIELD_TYPES[f.name]
            try:
                value = _READERS[kind](getattr(self, name))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"bad value for key '{name}': {exc}") from exc
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            lo, hi = f.metadata["lo"], f.metadata["hi"]
            if lo is not None and value < lo:
                raise ValueError(f"{name} must be >= {lo}, got {value!r}")
            if hi is not None and value > hi:
                raise ValueError(f"{name} must be <= {hi}, got {value!r}")
            object.__setattr__(self, name, value)
        if self.bs_antennas < self.ues:
            raise ValueError(
                f"bs_antennas ({self.bs_antennas}) must be >= ues ({self.ues})"
            )
        if self.bs_antennas % self.clusters != 0:
            raise ValueError(
                f"bs_antennas ({self.bs_antennas}) must be divisible by "
                f"clusters ({self.clusters})"
            )
        if self.rho_db < self.dr_limit_db:
            raise ValueError(
                f"rho_db ({self.rho_db}) must be >= dr_limit_db "
                f"({self.dr_limit_db})"
            )
        if not self.methods:
            raise ValueError("methods list must be nonempty")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(
                    f"unknown method '{m}'; choose from {', '.join(METHODS)}"
                )
            if m in self.methods[:i]:
                raise ValueError(f"methods lists '{m}' more than once")
        if not self.out:
            raise ValueError("out must name the output CSV, got ''")
        if self.plot_script and ("\n" in self.out or "\r" in self.out):
            # The script names out in a gnuplot string, which cannot hold one.
            raise ValueError(f"out must not hold a line break, got {self.out!r}")
        if self.plot_script and (
            os.path.abspath(self.plot_script) == os.path.abspath(self.out)
        ):
            raise ValueError(
                "plot_script must name another file than out, "
                f"got {self.plot_script!r}"
            )
        if self.msnr_stop < self.msnr_start:
            raise ValueError("msnr_stop must be >= msnr_start")

    @property
    def antennas_per_cluster(self) -> int:
        return self.bs_antennas // self.clusters

    def msnr_grid(self) -> tuple:
        n = int(np.floor((self.msnr_stop - self.msnr_start) / self.msnr_step + 1e-9))
        return tuple(self.msnr_start + i * self.msnr_step for i in range(n + 1))


# The resolved field annotations, read once.
_FIELD_TYPES = get_type_hints(ExperimentConfig)


@dataclass(frozen=True)
class ResultRecord:
    """One (method, scenario, MSNR point) row of aggregated BER results.

    The fields, in order, are the results CSV's columns and name them (C
    clusters, B antennas, U users); the header is a public contract.
    """

    method: str
    rho_db: float
    q: int
    C: int
    B: int
    U: int
    msnr_db: float
    bit_errors: int
    total_bits: int
    ber: float
    realizations: int
    seed: int


# ResultRecord's field names and types, in field (column) order.
_RECORD_TYPES = get_type_hints(ResultRecord)
CSV_HEADER = ",".join(_RECORD_TYPES)


def trial_rng(
    seed: int, method: str, msnr_db: float, realization_index: int
) -> np.random.Generator:
    """Deterministic per-trial RNG substream.

    The stream key is (master seed, method index, fixed-point MSNR,
    realization index). ``ExperimentConfig`` keeps the MSNR step at 1e-5 dB
    or more, so no two trials of a sweep share a stream, and results are
    independent of scheduling order and thread count.
    """
    key = (
        seed,
        METHODS.index(method),
        int(round(msnr_db * 1e6)) + _MSNR_KEY_OFFSET,
        realization_index,
    )
    return np.random.default_rng(np.random.SeedSequence(key))


def draw_trial(cfg: ExperimentConfig, method: str, msnr_db: float, r: int) -> tuple:
    """Every random draw of trial ``r``, in stream order: the channel (with
    power control), the training noise, the data bits and the data noise.
    Returns ``(h, n0, pilots, y_train, tx_bits, y)``."""
    rng = trial_rng(cfg.seed, method, msnr_db, r)
    h = realize_channel(cfg, rng, power_control_all=(method == "wsu"))
    n0 = noise_variance_from_msnr(h, msnr_db)
    pilots = generate_pilots(cfg.ues)
    y_train = simulate_training(h, pilots, n0, rng)
    # The received block y is the trial's one (B, n) block. The bits are
    # drawn and modulated a slice (whole symbol vectors) at a time, which
    # draws the same stream as one call, and each slice's product h @ s is
    # written into its columns of y; then the noise is added in place. Only
    # one byte per bit is kept.
    tx_bits = np.empty((cfg.symbols, 4 * cfg.ues), dtype=np.uint8)
    y = np.empty((cfg.bs_antennas, cfg.symbols), dtype=complex)
    for rows in column_slices(*tx_bits.shape):
        draw = rng.integers(0, 2, size=tx_bits[rows].shape)
        np.matmul(h, modulate(draw).reshape(-1, cfg.ues).T, out=y[:, rows])
        tx_bits[rows] = draw
    del draw
    add_noise(y, n0, rng)
    return h, n0, pilots, y_train, tx_bits, y


@dataclass(frozen=True)
class Receiver:
    """One method's receiver: the (U, B) detector ``w`` and, for a quantized
    method, the ``SpatialTransform``, ``AgcGains`` and ``QuantizerModel`` in
    front of it (None for ``perfect``)."""

    w: np.ndarray
    transform: object = None
    gains: object = None
    quant: object = None


def build_receiver(cfg: ExperimentConfig, method: str, est, n0: float) -> Receiver:
    """The receiver of ``method`` from the training estimate ``est``: apart
    from ``wsu``'s power control, the one place that branches on the method."""
    if method == "perfect":
        return Receiver(build_unquantized_lmmse(est.h_hat, n0))
    if method == "hr-iso":
        transform = design_hr_iso(est.h_hat[:, est.strong_index], cfg.clusters)
    elif method == "hr-max":
        transform = design_hr_max(est.c_y_blocks)
    else:  # wsu, none
        transform = identity_transform(cfg.bs_antennas, cfg.clusters)
    quant = design_quantizer(cfg.q_bits)
    gains = compute_agc(est.c_y_blocks, transform)
    w = build_lmmse(est.h_hat, transform, gains, quant, n0)
    return Receiver(w, transform, gains, quant)


def detect(receiver: Receiver, y: np.ndarray, tx_bits: np.ndarray, slices) -> int:
    """The bit errors of ``receiver`` on the data block ``y``. The transform
    (a RuntimeError if it does not keep the energy) and the ADC write over
    ``y``; then it is equalized and sliced a slice of ``y`` columns at a time."""
    if receiver.transform is not None:
        # Sampled unitarity check: the transform must conserve energy.
        n_in = float(np.linalg.norm(y[:, 0]))
        y = apply_transform(receiver.transform, y)
        n_out = float(np.linalg.norm(y[:, 0]))
        if abs(n_out - n_in) > 1e-12 * n_in:
            raise RuntimeError(
                f"spatial transform broke energy conservation: "
                f"||Fy|| = {n_out!r} vs ||y|| = {n_in!r}"
            )
        y = adc(y, receiver.gains, receiver.quant)
    # The (U, cols) soft symbols, transposed, list the symbols in tx_bits order.
    errors = 0
    for rows in slices:
        s_hat = equalize(receiver.w, y[:, rows])
        errors += count_bit_errors(tx_bits[rows], hard_slice(s_hat.T))[0]
    return errors


def run_trial(
    cfg: ExperimentConfig,
    method: str,
    msnr_db: float,
    realization_index: int,
) -> tuple[int, int]:
    """One channel realization of one method at one MSNR point.

    Makes every random draw first (``draw_trial``), then runs the receiver
    on them: the training estimate, ``build_receiver`` and ``detect``.
    Returns (bit_errors, total_bits) and is fully deterministic given
    (cfg.seed, method, msnr_db, realization_index).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    _, n0, pilots, y_train, tx_bits, y = draw_trial(
        cfg, method, msnr_db, realization_index
    )
    est = estimate_from_training(y_train, pilots, cfg.clusters)
    receiver = build_receiver(cfg, method, est, n0)
    slices = column_slices(*tx_bits.shape)
    return detect(receiver, y, tx_bits, slices), tx_bits.size


# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    the ceiling of glibc's own dynamic rule on 64-bit, for the whole process.

    A paper-scale trial allocates and frees a few MiB of temporaries. Under
    glibc's default thresholds those pages go back to the kernel after each
    trial and fault in again on the next, unless something earlier in the
    process freed a block of 32 MiB or more. A C library without ``mallopt``
    (macOS, Windows) is left as it is; musl's is a no-op.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (ImportError, OSError, AttributeError, TypeError):
        pass


def run_sweep(cfg: ExperimentConfig) -> list:
    """Run methods x MSNR grid, aggregating error counts over realizations.

    Work units are independent (method, MSNR point, realization) trials;
    outcomes come back in task order, so each (method, MSNR point) sums its
    ``cfg.realizations`` consecutive integer counts, and parallel execution
    produces records identical to a serial run.

    First it sets the allocator policy of the whole process: on glibc, the
    malloc thresholds are pinned (``_pin_malloc_thresholds``), so blocks
    under 32 MiB come from the heap from the first trial on and freed pages
    stay resident. The policy changes where memory comes from, not any
    result. ``concurrent.futures`` is imported only for ``cfg.threads > 1``.
    """
    _pin_malloc_thresholds()
    grid = cfg.msnr_grid()
    tasks = [
        (method, msnr_db, r)
        for method in cfg.methods
        for msnr_db in grid
        for r in range(cfg.realizations)
    ]
    if cfg.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(lambda task: run_trial(cfg, *task), tasks))
    else:
        outcomes = [run_trial(cfg, *task) for task in tasks]

    records = []
    for i in range(0, len(tasks), cfg.realizations):
        method, msnr_db, _ = tasks[i]
        errors, bits = map(sum, zip(*outcomes[i : i + cfg.realizations]))
        records.append(
            ResultRecord(
                method=method,
                rho_db=cfg.rho_db,
                q=cfg.q_bits,
                C=cfg.clusters,
                B=cfg.bs_antennas,
                U=cfg.ues,
                msnr_db=msnr_db,
                bit_errors=errors,
                total_bits=bits,
                ber=errors / bits,
                realizations=cfg.realizations,
                seed=cfg.seed,
            )
        )
    return records


def write_csv(records: Sequence[ResultRecord], path: str) -> None:
    """Write records with the fixed header, '.' decimals, newline-terminated.

    Floats are written as ``repr`` (which ``str`` equals), so they read back
    exactly.
    """
    if not records:
        raise ValueError("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(str(getattr(r, key)) for key in _RECORD_TYPES))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list:
    """Parse a results CSV back into ResultRecord rows."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized results header in {path}")
    records = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(_RECORD_TYPES):
            raise ValueError(
                f"{path}:{lineno}: expected {len(_RECORD_TYPES)} columns, "
                f"got {len(cells)}"
            )
        row = []
        for (key, kind), cell in zip(_RECORD_TYPES.items(), cells):
            try:
                row.append(kind(cell))
            except ValueError:
                msg = f"column '{key}' needs {kind.__name__}, got {cell!r}"
                raise ValueError(f"{path}:{lineno}: {msg}") from None
        records.append(ResultRecord(*row))
    return records


def emit_plot_script(
    records: Sequence[ResultRecord], path: str, csv_path: str
) -> None:
    """Emit a standalone gnuplot script: log-BER vs MSNR, one curve per method,
    read from ``csv_path``, which must hold no line break (ValueError)."""
    if not records:
        raise ValueError("no records to plot")
    if "\n" in csv_path or "\r" in csv_path:
        raise ValueError(f"csv_path holds a line break: {csv_path!r}")
    methods = []
    for r in records:
        if r.method not in methods:
            methods.append(r.method)
    col = {key: i for i, key in enumerate(_RECORD_TYPES, start=1)}
    clauses = [
        f"  csv using (strcol({col['method']}) eq '{m}' ? ${col['msnr_db']} : NaN)"
        f":{col['ber']} with linespoints title '{m}'"
        for m in methods
    ]
    script = "\n".join(
        [
            "# Uncoded BER vs median receive SNR; run: gnuplot <this file>",
            "csv = '" + csv_path.replace("'", "''") + "'",
            "set datafile separator ','",
            "set datafile missing 'NaN'",
            "set logscale y",
            "set format y '10^{%T}'",
            "set xlabel 'MSNR [dB]'",
            "set ylabel 'uncoded BER'",
            "set grid",
            "set key bottom left",
            "plot \\",
            ", \\\n".join(clauses),
            "pause -1 'press enter to close'",
        ]
    )
    with open(path, "w", newline="") as fh:
        fh.write(script + "\n")


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))
# A comment runs from a '#' that opens the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#.*")


def load_config_file(path: str) -> dict:
    """Read a flat ``key = value`` config file with '#' comments into
    key -> stripped text; an unknown or repeated key raises a ValueError
    naming it. A '#' starts a comment only at the start of the line or after
    whitespace, so ``out = run#2.csv`` keeps its value whole."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.sub("", raw, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown configuration key '{key}'")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key '{key}' set more than once")
            values[key] = value.strip()
    return values


def parse_config(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> ExperimentConfig:
    """Build a config from an optional file plus overrides.

    Override values (e.g. from command-line flags) take precedence over the
    file; unset fields keep their defaults. ``ExperimentConfig`` reads text
    and Python values by the same rules; unknown keys and bad values raise
    a ValueError naming the key.
    """
    values = load_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown configuration key '{key}'")
        values[key] = value
    return ExperimentConfig(**values)
