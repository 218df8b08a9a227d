"""Experiment orchestration: method pipelines, seeded Monte Carlo sweeps,
config parsing, CSV output, and plot-script emission."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .channel import (
    ScenarioConfig,
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


@dataclass(frozen=True)
class ExperimentConfig(ScenarioConfig):
    """Full description of one BER sweep: the scenario fields it inherits
    from ``ScenarioConfig`` plus the quantizer, methods, grid and budget,
    all read and checked alike: ``q_bits="3"`` is 3, and ``methods`` is a
    comma list or a sequence of distinct method names."""

    q_bits: int = 3
    methods: tuple[str, ...] = METHODS
    msnr_start: float = -10.0
    msnr_stop: float = 15.0
    msnr_step: float = 2.5
    realizations: int = 100
    symbols: int = 200
    seed: int = 1
    out: str = "results.csv"
    plot_script: Optional[str] = None
    threads: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.q_bits <= 12:
            raise ValueError(f"q_bits must be in 1..12, got {self.q_bits}")
        if not self.methods:
            raise ValueError("methods list must be nonempty")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(
                    f"unknown method '{m}'; choose from {', '.join(METHODS)}"
                )
            if m in self.methods[:i]:
                raise ValueError(f"methods lists '{m}' more than once")
        if self.msnr_step < _MSNR_STEP_MIN_DB:
            raise ValueError(
                f"msnr_step must be >= {_MSNR_STEP_MIN_DB} dB, got {self.msnr_step}"
            )
        for key in ("msnr_start", "msnr_stop"):
            if abs(getattr(self, key)) > _MSNR_LIMIT_DB:
                raise ValueError(
                    f"{key} must be within +-{_MSNR_LIMIT_DB} dB, "
                    f"got {getattr(self, key)}"
                )
        if self.msnr_stop < self.msnr_start:
            raise ValueError("msnr_stop must be >= msnr_start")
        if self.realizations < 1 or self.symbols < 1:
            raise ValueError("realizations and symbols must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def msnr_grid(self) -> tuple:
        n = int(np.floor((self.msnr_stop - self.msnr_start) / self.msnr_step + 1e-9))
        return tuple(self.msnr_start + i * self.msnr_step for i in range(n + 1))

    def pilot_length(self) -> int:
        # Shortest power-of-two pilot block covering all users (K = U when
        # the user count is itself a power of two).
        return 1 << (self.ues - 1).bit_length()


@dataclass(frozen=True)
class ResultRecord:
    """One (method, scenario, MSNR point) row of aggregated BER results."""

    method: str
    rho_db: float
    q: int
    clusters: int
    bs_antennas: int
    ues: int
    msnr_db: float
    bit_errors: int
    total_bits: int
    ber: float
    realizations: int
    seed: int


# The results CSV, one (header name, ResultRecord field) pair per column in
# column order; the header is a public contract.
_CSV_COLUMNS = (
    ("method", "method"),
    ("rho_db", "rho_db"),
    ("q", "q"),
    ("C", "clusters"),
    ("B", "bs_antennas"),
    ("U", "ues"),
    ("msnr_db", "msnr_db"),
    ("bit_errors", "bit_errors"),
    ("total_bits", "total_bits"),
    ("ber", "ber"),
    ("realizations", "realizations"),
    ("seed", "seed"),
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)
_RECORD_TYPES = get_type_hints(ResultRecord)


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


def run_trial(
    cfg: ExperimentConfig,
    method: str,
    msnr_db: float,
    realization_index: int,
) -> tuple[int, int]:
    """One channel realization of one method at one MSNR point.

    Makes every random draw first (channel with power control, training
    noise, data bits, data noise), then runs the receiver on them:
    estimation, transform design, AGC/quantizer setup, equalizer build, and
    the data path. Returns (bit_errors, total_bits) and is fully
    deterministic given (cfg.seed, method, msnr_db, realization_index).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    rng = trial_rng(cfg.seed, method, msnr_db, realization_index)

    # The draws, in stream order; nothing after them uses the stream.
    h = realize_channel(cfg, rng, power_control_all=(method == "wsu"))
    n0 = noise_variance_from_msnr(h, msnr_db)
    pilots = generate_pilots(cfg.ues, cfg.pilot_length())
    y_train = simulate_training(h, pilots, n0, rng)
    tx_bits = rng.integers(0, 2, size=(cfg.symbols, 4 * cfg.ues))
    y_block = observe(h, modulate(tx_bits).reshape(cfg.symbols, cfg.ues).T, n0, rng)

    est = estimate_from_training(y_train, pilots, cfg.clusters)
    # The data path holds at most two (B, n) blocks at a time: each block is
    # dropped as soon as the next stage has consumed it.
    if method == "perfect":
        w = build_unquantized_lmmse(est.h_hat, n0)
        r_block = y_block
    else:
        if method == "hr-iso":
            transform = design_hr_iso(est.h_hat[:, est.strong_index], cfg.clusters)
        elif method == "hr-max":
            transform = design_hr_max(est.c_y_blocks)
        else:  # wsu, none
            transform = identity_transform(cfg.bs_antennas, cfg.clusters)
        quant = design_quantizer(cfg.q_bits)
        gains = compute_agc(est.c_y_blocks, transform)
        w = build_lmmse(est.h_hat, transform, gains, quant, n0)
        y_tilde = apply_transform(transform, y_block)
        # Sampled unitarity check: the transform must conserve energy.
        n_in = float(np.linalg.norm(y_block[:, 0]))
        n_out = float(np.linalg.norm(y_tilde[:, 0]))
        if abs(n_out - n_in) > 1e-12 * max(n_in, 1.0):
            raise RuntimeError(
                f"spatial transform broke energy conservation: "
                f"||Fy|| = {n_out!r} vs ||y|| = {n_in!r}"
            )
        del y_block
        r_block = adc(y_tilde, gains, quant)
        del y_tilde

    s_hat = equalize(w, r_block)
    del r_block
    # s_hat is (U, n); its transpose lists the symbols in tx_bits order.
    rx_bits = hard_slice(s_hat.T)
    return count_bit_errors(tx_bits, rx_bits)


def run_sweep(cfg: ExperimentConfig) -> list:
    """Run methods x MSNR grid, aggregating error counts over realizations.

    Work units are independent (method, MSNR point, realization) trials;
    outcomes come back in task order, so each (method, MSNR point) sums its
    ``cfg.realizations`` consecutive integer counts, and parallel execution
    produces records identical to a serial run.
    """
    grid = cfg.msnr_grid()
    tasks = [
        (method, msnr_db, r)
        for method in cfg.methods
        for msnr_db in grid
        for r in range(cfg.realizations)
    ]
    if cfg.threads > 1:
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
                clusters=cfg.clusters,
                bs_antennas=cfg.bs_antennas,
                ues=cfg.ues,
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
        lines.append(",".join(str(getattr(r, key)) for _, key in _CSV_COLUMNS))
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
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(
                f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, "
                f"got {len(cells)}"
            )
        records.append(
            ResultRecord(
                **{
                    key: _RECORD_TYPES[key](cell)
                    for (_, key), cell in zip(_CSV_COLUMNS, cells)
                }
            )
        )
    return records


def emit_plot_script(
    records: Sequence[ResultRecord], path: str, csv_path: str = "results.csv"
) -> None:
    """Emit a standalone gnuplot script: log-BER vs MSNR, one curve per method."""
    if not records:
        raise ValueError("no records to plot")
    methods = []
    for r in records:
        if r.method not in methods:
            methods.append(r.method)
    col = {key: i for i, (_, key) in enumerate(_CSV_COLUMNS, start=1)}
    clauses = [
        f"  csv using (strcol({col['method']}) eq '{m}' ? ${col['msnr_db']} : NaN)"
        f":{col['ber']} with linespoints title '{m}'"
        for m in methods
    ]
    script = "\n".join(
        [
            "# Uncoded BER vs median receive SNR; run: gnuplot <this file>",
            f"csv = '{csv_path}'",
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


def load_config_file(path: str) -> dict:
    """Read a flat ``key = value`` config file with '#' comments into
    key -> stripped text; an unknown or repeated key raises a ValueError
    naming it."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
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
