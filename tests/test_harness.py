import inspect
import re
import shlex
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrmimo import linalg
from hdrmimo.channel import ScenarioConfig, realize_channel
from hdrmimo.cli import build_parser, config_from_argv
from hdrmimo.cli import main as cli_main
from hdrmimo.harness import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    ResultRecord,
    emit_plot_script,
    parse_config,
    read_csv,
    run_sweep,
    run_trial,
    trial_rng,
    write_csv,
)


def smoke_cfg(**kwargs):
    defaults = dict(
        bs_antennas=64,
        ues=8,
        clusters=8,
        q_bits=3,
        rho_db=30.0,
        msnr_start=10.0,
        msnr_stop=10.0,
        msnr_step=1.0,
        realizations=10,
        symbols=50,
        seed=123,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# Every float key of the config, each with a value that used to get through
# parsing and fail later inside a trial or in msnr_grid.
NON_FINITE = [
    ("rho_db", "nan"),
    ("dr_limit_db", "nan"),
    ("angle_sector_deg", "inf"),
    ("path_decay_db", "nan"),
    ("shadowing_std_db", "nan"),
    ("msnr_start", "-inf"),
    ("msnr_stop", "inf"),
    ("msnr_step", "nan"),
]

# The config keys that had no command-line flag: (key, flags, config-file
# text, parsed value). Each value differs from the default.
NEW_FLAG_CASES = [
    ("dr_limit_db", ["--dr-limit-db", "3"], "3", 3.0),
    ("paths", ["--paths", "2"], "2", 2),
    ("angle_sector_deg", ["--angle-sector-deg", "20.5"], "20.5", 20.5),
    ("path_decay_db", ["--path-decay-db", "1.5"], "1.5", 1.5),
    ("shadowing_std_db", ["--shadowing-std-db", "0"], "0", 0.0),
]


INT_KEYS = sorted(
    key for key, kind in get_type_hints(ExperimentConfig).items() if kind is int
)
FLOAT_KEYS = sorted(
    key for key, kind in get_type_hints(ExperimentConfig).items() if kind is float
)
TEXT_KEYS = ("out", "plot_script")


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig, every field drawn."""
    clusters = draw(st.integers(1, 8))
    bs_antennas = clusters * draw(st.integers(2, 8))
    finite = st.floats(-1e6, 1e6)
    nonnegative = st.floats(0.0, 1e6)
    dr_limit_db = draw(finite)
    msnr_start = draw(st.floats(-1000.0, 1000.0))
    # Any path, including ones that start with "-" and the bare "--",
    # which argparse cannot carry as an option value.
    path = st.sampled_from(["--", "-", "-o.csv"]) | st.from_regex(
        r"[a-z0-9_./-]{1,12}", fullmatch=True
    )
    return ExperimentConfig(
        bs_antennas=bs_antennas,
        ues=draw(st.integers(2, bs_antennas)),
        clusters=clusters,
        rho_db=dr_limit_db + draw(nonnegative),
        dr_limit_db=dr_limit_db,
        paths=draw(st.integers(1, 12)),
        angle_sector_deg=draw(nonnegative),
        path_decay_db=draw(nonnegative),
        shadowing_std_db=draw(nonnegative),
        q_bits=draw(st.integers(1, 12)),
        methods=tuple(
            draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True))
        ),
        msnr_start=msnr_start,
        msnr_stop=draw(st.floats(msnr_start, 1000.0)),
        msnr_step=draw(st.floats(1e-5, 1e6)),
        realizations=draw(st.integers(1, 10**6)),
        symbols=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        out=draw(path),
        plot_script=draw(st.none() | path),
        threads=draw(st.integers(1, 64)),
    )


def config_as_text(cfg):
    """key -> value text for every field that is set (plot_script may be
    None, which has no text form)."""
    text = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        # str(float) is repr(float), which reads back exactly.
        text[f.name] = ",".join(value) if isinstance(value, tuple) else str(value)
    return text


class TestConfig:
    def test_scenario_fields_declared_once(self):
        # ExperimentConfig inherits the scenario fields and their checks.
        assert issubclass(ExperimentConfig, ScenarioConfig)
        scenario_keys = {f.name for f in fields(ScenarioConfig)}
        assert scenario_keys.isdisjoint(inspect.get_annotations(ExperimentConfig))
        assert scenario_keys < {f.name for f in fields(ExperimentConfig)}

    def test_realize_channel_takes_the_sweep_config(self):
        cfg = smoke_cfg(rho_db=25.0, paths=3, shadowing_std_db=4.0)
        scenario = ScenarioConfig(
            **{f.name: getattr(cfg, f.name) for f in fields(ScenarioConfig)}
        )
        a = realize_channel(cfg, np.random.default_rng(4))
        b = realize_channel(scenario, np.random.default_rng(4))
        assert np.array_equal(a, b)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cfg=experiment_configs())
    def test_round_trip_through_file_and_flags(self, tmp_path_factory, cfg):
        text = config_as_text(cfg)
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        assert parse_config(str(path)) == cfg
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in text.items()]
        if "--" in (cfg.out, cfg.plot_script):
            # argparse hands over an empty list for the value "--": a usage
            # error, never a file named "[]".
            with pytest.raises(SystemExit):
                config_from_argv(argv)
        else:
            assert config_from_argv(argv) == cfg

    @pytest.mark.parametrize("key", INT_KEYS)
    @pytest.mark.parametrize("value", [3.7, 2.9, -0.5, float("nan"), True, False])
    def test_int_key_rejects_non_integral_float_and_bool(self, key, value):
        with pytest.raises(ValueError, match=f"bad value for key '{key}'"):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_float_key_rejects_bool(self, key, value):
        with pytest.raises(ValueError, match=f"bad value for key '{key}'"):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("key", TEXT_KEYS)
    @pytest.mark.parametrize("value", [5, 2.5, True, [], ["a.csv"], b"a.csv"])
    def test_text_key_rejects_non_text(self, key, value):
        with pytest.raises(ValueError, match=f"bad value for key '{key}'"):
            parse_config(overrides={key: value})

    def test_optional_text_key_takes_none(self):
        assert parse_config(overrides={"plot_script": None}).plot_script is None

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_int_key_takes_integral_float(self, key):
        default = getattr(ExperimentConfig(), key)
        value = getattr(parse_config(overrides={key: float(default)}), key)
        assert value == default and type(value) is int

    @pytest.mark.parametrize("cls", [ScenarioConfig, ExperimentConfig])
    def test_direct_construction_rejects_bad_values_by_key(self, cls):
        # The same rules as parse_config, with no parser in between.
        hints = get_type_hints(cls)
        cases = [(key, value) for key in INT_KEYS for value in (3.7, True)]
        cases += [(key, value) for key in FLOAT_KEYS for value in (True, np.nan)]
        cases += [(key, value) for key in TEXT_KEYS for value in (5, [])]
        cases = [(key, value) for key, value in cases if key in hints]
        assert len(cases) == (18 if cls is ScenarioConfig else 38)
        for key, value in cases:
            with pytest.raises(
                ValueError, match=f"bad value for key '{key}'|{key} must be finite"
            ):
                cls(**{key: value})

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cfg=experiment_configs())
    def test_text_values_construct_the_same_config(self, cfg):
        rebuilt = ExperimentConfig(**config_as_text(cfg))
        assert rebuilt == cfg
        for f in fields(cfg):
            assert type(getattr(rebuilt, f.name)) is type(getattr(cfg, f.name))

    def test_numbers_are_stored_as_the_declared_type(self):
        cfg = ExperimentConfig(rho_db=30, msnr_start=np.int64(10), q_bits=4.0,
                               methods=["wsu", "hr-iso"])
        assert type(cfg.rho_db) is float and type(cfg.msnr_start) is float
        assert type(cfg.q_bits) is int
        assert cfg.methods == ("wsu", "hr-iso")

    @pytest.mark.parametrize(
        "methods", [("wsu", "hr-iso", "wsu"), "wsu,hr-iso,wsu", ("none", "none")]
    )
    def test_duplicate_method_rejected(self, methods):
        with pytest.raises(ValueError, match="methods lists '(wsu|none)' more than once"):
            ExperimentConfig(methods=methods)

    def test_defaults_match_reference_scenario(self):
        cfg = ExperimentConfig()
        assert (cfg.bs_antennas, cfg.ues, cfg.clusters) == (256, 32, 32)
        assert cfg.q_bits == 3
        assert cfg.rho_db == 30.0
        assert cfg.dr_limit_db == 6.0
        assert cfg.pilot_length() == cfg.ues  # K = U for a power-of-two U
        assert cfg.methods == METHODS

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert parse_config(str(path)) == ExperimentConfig()

    def test_file_parsing_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "bs_antennas = 64\n"
            "ues = 8            # inline comment\n"
            "clusters = 8\n"
            "q_bits = 4\n"
            "methods = wsu, hr-iso\n"
        )
        cfg = parse_config(str(path))
        assert cfg.bs_antennas == 64
        assert cfg.q_bits == 4
        assert cfg.methods == ("wsu", "hr-iso")

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas = 64\n")
        with pytest.raises(ValueError, match="antennas"):
            parse_config(str(path))

    def test_type_mismatch_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("q_bits = three\n")
        with pytest.raises(ValueError, match="q_bits"):
            parse_config(str(path))

    def test_divisibility_violation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("clusters = 7\n")
        with pytest.raises(ValueError, match="divisible"):
            parse_config(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q_bits = 3\n")
        cfg = parse_config(str(path), {"q_bits": 5})
        assert cfg.q_bits == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(methods=("zf",))

    @pytest.mark.parametrize("key,text", NON_FINITE)
    def test_non_finite_override_named_in_error(self, key, text):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            parse_config(overrides={key: text})

    @pytest.mark.parametrize("key,text", NON_FINITE)
    def test_non_finite_file_value_named_in_error(self, tmp_path, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("msnr_step", float(np.nextafter(1e-5, 0))),
            ("msnr_start", float(np.nextafter(-1000.0, -np.inf))),
            ("msnr_start", float(np.nextafter(1000.0, np.inf))),
            ("msnr_stop", float(np.nextafter(1000.0, np.inf))),
            ("msnr_stop", float(np.nextafter(-1000.0, -np.inf))),
        ],
    )
    def test_msnr_outside_the_valid_range_named_in_error(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be (within|>= 1e-05 dB)"):
            ExperimentConfig(**{key: value})

    def test_msnr_range_bounds_accepted(self):
        cfg = ExperimentConfig(msnr_start=-1000.0, msnr_stop=1000.0, msnr_step=1e-5)
        assert (cfg.msnr_start, cfg.msnr_stop, cfg.msnr_step) == (-1000.0, 1000.0, 1e-5)

    def test_repeated_file_key_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("q_bits = 3\n# a later line sets it again\nq_bits = 4\n")
        with pytest.raises(ValueError, match=r"run\.cfg:3: key 'q_bits' set more than once"):
            parse_config(str(path))

    def test_msnr_grid(self):
        cfg = ExperimentConfig(msnr_start=-10.0, msnr_stop=15.0, msnr_step=2.5)
        grid = cfg.msnr_grid()
        assert len(grid) == 11
        assert grid[0] == -10.0 and grid[-1] == 15.0

    def test_pilot_length_rounds_up(self):
        cfg = ExperimentConfig(bs_antennas=64, ues=6, clusters=8)
        assert cfg.pilot_length() == 8


class TestRunTrial:
    @pytest.mark.parametrize("start", [-1000.0, 0.0, 1000.0 - 3e-5])
    def test_grid_points_at_the_minimum_step_get_distinct_streams(self, start):
        cfg = smoke_cfg(msnr_start=start, msnr_stop=min(start + 3e-5, 1000.0),
                        msnr_step=1e-5)
        grid = cfg.msnr_grid()
        assert len(grid) == 4
        keys = {trial_rng(1, "wsu", m, 0).bit_generator.seed_seq.entropy for m in grid}
        assert len(keys) == len(grid)

    @pytest.mark.parametrize("msnr_db", [-1000.0, 1000.0])
    def test_trial_runs_at_either_end_of_the_msnr_range(self, msnr_db):
        cfg = smoke_cfg(bs_antennas=16, ues=4, clusters=4, msnr_start=msnr_db,
                        msnr_stop=msnr_db, realizations=1, symbols=10)
        for method in METHODS:
            errors, bits = run_trial(cfg, method, msnr_db, 0)
            assert 0 <= errors <= bits == 10 * 4 * cfg.ues

    def test_deterministic(self):
        cfg = smoke_cfg()
        a = run_trial(cfg, "hr-max", 10.0, 3)
        b = run_trial(cfg, "hr-max", 10.0, 3)
        assert a == b

    def test_substreams_distinct(self):
        keys = {
            trial_rng(1, m, 5.0, r).integers(0, 2**63) for m in METHODS for r in range(4)
        }
        assert len(keys) == len(METHODS) * 4

    def test_perfect_is_error_free_at_high_msnr(self):
        cfg = ExperimentConfig(
            bs_antennas=16,
            ues=2,
            clusters=4,
            rho_db=30.0,
            msnr_start=40.0,
            msnr_stop=40.0,
            msnr_step=1.0,
            realizations=1,
            symbols=1000,
            seed=5,
        )
        assert run_trial(cfg, "perfect", 40.0, 0) == (0, 8000)

    def test_perfect_runs_far_above_the_scaled_pivot_limit(self):
        # The unquantized detector's Gram matrix has one row rho_db above the
        # others. A pivot test against the largest diagonal entry called it
        # singular from about 146 dB; the per-row test takes it, and the
        # weak users' errors stay those at 146 dB.
        def errors(rho_db):
            cfg = smoke_cfg(rho_db=rho_db, msnr_start=12.0, msnr_stop=12.0,
                            symbols=200)
            return [run_trial(cfg, "perfect", 12.0, r) for r in range(3)]

        at_146 = errors(146.0)
        assert errors(150.0) == errors(200.0) == at_146

    def test_transform_beats_no_transform_smoke(self):
        # Fixed-seed regression: the isolating transform must clearly beat
        # the bare quantized receiver at high dynamic range.
        #
        # The error counts are not portable bit for bit. Users clipped by the
        # power-control window have equal receive power in exact arithmetic,
        # so their column order in realize_channel is set by the last bit of
        # the column norms, which depends on the SIMD kernels numpy picks for
        # the CPU; the order decides which channel carries which bits. Over
        # 500 random orderings of the tied users the pooled counts spanned
        # none 1761-2001 and hr-iso 724-845 (hr-iso/none 0.38-0.47), so the
        # counts are held to +-10% of those recorded for this seed (1860 and
        # 785) and the ratio to at most 0.5.
        cfg = smoke_cfg()
        none_counts = [run_trial(cfg, "none", 10.0, r) for r in range(10)]
        iso_counts = [run_trial(cfg, "hr-iso", 10.0, r) for r in range(10)]
        none_total = (sum(e for e, _ in none_counts), sum(b for _, b in none_counts))
        iso_total = (sum(e for e, _ in iso_counts), sum(b for _, b in iso_counts))
        assert none_total[1] == iso_total[1] == 16000
        assert iso_total[0] <= 0.5 * none_total[0]
        assert none_total[0] == pytest.approx(1860, rel=0.10)
        assert iso_total[0] == pytest.approx(785, rel=0.10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_trial(smoke_cfg(), "zf", 10.0, 0)

    def test_no_antenna_by_antenna_matrix(self):
        # With B = 512 antennas, 4 users and one symbol every array a trial
        # needs is O(B U) or per cluster, while a single B x B complex matrix
        # takes 4 MiB. Peak traced allocation stays below half of that.
        cfg = smoke_cfg(
            bs_antennas=512, ues=4, clusters=64, realizations=1, symbols=1
        )
        one_matrix = 512 * 512 * np.dtype(complex).itemsize
        for method in METHODS:
            run_trial(cfg, method, 10.0, 0)  # fill the quantizer design cache
            tracemalloc.start()
            try:
                run_trial(cfg, method, 10.0, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_matrix / 2, (method, peak)

    def test_long_block_holds_at_most_two_blocks_and_a_half(self):
        # With B = 64, U = 8 and 20,000 symbols one (B, n) complex block is
        # 20.5 MB. The data path holds at most two at once (the received
        # block and its transform or quantized copy) plus the transmitted
        # bits, a quarter block: 2.38 blocks measured. A stage that builds
        # block-sized temporaries goes over.
        cfg = smoke_cfg(realizations=1, symbols=20000)
        block = 64 * 20000 * np.dtype(complex).itemsize
        for method in METHODS:
            run_trial(cfg, method, 10.0, 0)
            tracemalloc.start()
            try:
                run_trial(cfg, method, 10.0, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * block, (method, peak / block)

    def test_no_per_cluster_primitives_in_a_trial(self, monkeypatch):
        # Reflector design, application and AGC work on whole (C, S) arrays;
        # the per-cluster primitives stay as API and test oracles only.
        def refuse(*args, **kwargs):
            raise AssertionError("a trial called a per-cluster primitive")

        patched = 0
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "hdrmimo" or key.startswith("hdrmimo.")
        ]
        for name in ("householder_apply", "dominant_eigenpair"):
            original = getattr(linalg, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
                        patched += 1
        assert patched >= 2  # hdrmimo.linalg; the package does not re-export them
        cfg = smoke_cfg(
            bs_antennas=256, ues=32, clusters=32, realizations=1, symbols=20
        )
        for method in ("hr-iso", "hr-max"):
            errors, bits = run_trial(cfg, method, 10.0, 0)
            assert 0 <= errors <= bits == 20 * 4 * cfg.ues

    def test_test_only_primitives_not_reexported(self):
        # They stay in linalg and training for the benchmark's tracer and
        # as test oracles, but are not part of the package namespace.
        import hdrmimo

        for name in ("householder_apply", "dominant_eigenpair", "sample_covariance"):
            assert not hasattr(hdrmimo, name)


class TestRunSweep:
    def test_record_cardinality_and_ber(self):
        cfg = smoke_cfg(
            methods=("wsu",), msnr_start=8.0, msnr_stop=12.0, msnr_step=4.0,
            realizations=1, symbols=10,
        )
        records = run_sweep(cfg)
        assert len(records) == 2
        for rec in records:
            assert rec.method == "wsu"
            assert rec.ber == rec.bit_errors / rec.total_bits
            assert rec.total_bits == cfg.realizations * cfg.symbols * 4 * cfg.ues
            assert rec.realizations == cfg.realizations
            assert rec.seed == cfg.seed

    def test_ber_non_increasing_in_msnr(self):
        # Smoke property: every method's BER falls (up to Monte Carlo noise)
        # as the median receive SNR improves.
        cfg = ExperimentConfig(
            bs_antennas=32, ues=4, clusters=4, q_bits=3, rho_db=30.0,
            msnr_start=6.0, msnr_stop=14.0, msnr_step=4.0,
            realizations=40, symbols=160, seed=17,
        )
        curves = {}
        for rec in run_sweep(cfg):
            assert rec.total_bits >= 100_000
            curves.setdefault(rec.method, []).append(rec)
        for method, recs in curves.items():
            for lo, hi in zip(recs, recs[1:]):
                sigma = np.sqrt(
                    lo.ber * (1 - lo.ber) / lo.total_bits
                    + hi.ber * (1 - hi.ber) / hi.total_bits
                )
                assert hi.ber <= lo.ber + sigma, (
                    f"{method}: BER rose from {lo.ber} at {lo.msnr_db} dB "
                    f"to {hi.ber} at {hi.msnr_db} dB"
                )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_record_counts_are_sums_of_trials(self, threads):
        cfg = smoke_cfg(
            methods=("hr-iso", "wsu"), msnr_start=8.0, msnr_stop=12.0,
            msnr_step=4.0, realizations=3, symbols=20, threads=threads,
        )
        records = run_sweep(cfg)
        assert [(rec.method, rec.msnr_db) for rec in records] == [
            ("hr-iso", 8.0), ("hr-iso", 12.0), ("wsu", 8.0), ("wsu", 12.0)
        ]
        for rec in records:
            trials = [run_trial(cfg, rec.method, rec.msnr_db, r) for r in range(3)]
            assert rec.bit_errors == sum(e for e, _ in trials)
            assert rec.total_bits == sum(b for _, b in trials)

    def test_serial_and_parallel_identical(self, tmp_path):
        base = dict(
            bs_antennas=16, ues=4, clusters=4, q_bits=3, rho_db=30.0,
            msnr_start=6.0, msnr_stop=10.0, msnr_step=4.0,
            realizations=4, symbols=20, seed=9,
            methods=("wsu", "hr-iso"),
        )
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        write_csv(run_sweep(ExperimentConfig(**base, threads=1)), str(serial))
        write_csv(run_sweep(ExperimentConfig(**base, threads=4)), str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()


class TestCsvAndPlot:
    def run_small(self):
        cfg = smoke_cfg(methods=("wsu", "hr-iso"), realizations=1, symbols=10)
        return run_sweep(cfg)

    def test_write_format_and_round_trip(self, tmp_path):
        records = self.run_small()
        path = tmp_path / "out.csv"
        write_csv(records, str(path))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        assert text.endswith("\n")
        assert read_csv(str(path)) == records

    def test_row_layout(self, tmp_path):
        # Each value sits under its header name; floats are written as repr.
        record = ResultRecord(
            method="hr-iso", rho_db=30.0, q=3, clusters=8, bs_antennas=64,
            ues=4, msnr_db=-2.5, bit_errors=7, total_bits=800, ber=7 / 800,
            realizations=2, seed=123,
        )
        path = tmp_path / "one.csv"
        write_csv([record], str(path))
        assert path.read_text() == (
            "method,rho_db,q,C,B,U,msnr_db,bit_errors,total_bits,ber,"
            "realizations,seed\n"
            "hr-iso,30.0,3,8,64,4,-2.5,7,800,0.00875,2,123\n"
        )
        assert read_csv(str(path)) == [record]

    def test_row_with_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(self.run_small(), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3: expected 12 columns, got 11"):
            read_csv(str(path))

    def test_single_record_two_lines(self, tmp_path):
        records = self.run_small()[:1]
        path = tmp_path / "one.csv"
        write_csv(records, str(path))
        assert len(path.read_text().splitlines()) == 2

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit_plot_script([], str(tmp_path / "x.gp"))

    def test_plot_script_references_existing_columns(self, tmp_path):
        records = self.run_small()
        path = tmp_path / "plot.gp"
        emit_plot_script(records, str(path), csv_path="out.csv")
        script = path.read_text()
        n_cols = len(CSV_HEADER.split(","))
        for col in re.findall(r"\$(\d+)", script):
            assert 1 <= int(col) <= n_cols
        for col in re.findall(r"strcol\((\d+)\)", script):
            assert 1 <= int(col) <= n_cols
        for col in re.findall(r"\):(\d+)", script):
            assert 1 <= int(col) <= n_cols
        for method in ("wsu", "hr-iso"):
            assert f"'{method}'" in script
        assert "out.csv" in script


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        plot = tmp_path / "ber.gp"
        rc = cli_main(
            [
                "--bs-antennas", "16", "--ues", "4", "--clusters", "4",
                "--q-bits", "3", "--rho-db", "30",
                "--msnr-start", "10", "--msnr-stop", "10", "--msnr-step", "1",
                "--methods", "wsu,hr-iso",
                "--realizations", "2", "--symbols", "10", "--seed", "3",
                "--out", str(out), "--plot-script", str(plot),
            ]
        )
        assert rc == 0
        records = read_csv(str(out))
        assert [r.method for r in records] == ["wsu", "hr-iso"]
        assert plot.exists()
        assert "wrote 2 records" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "bs_antennas = 16\nues = 4\nclusters = 4\nq_bits = 3\n"
            "msnr_start = 10\nmsnr_stop = 10\nmsnr_step = 1\n"
            "methods = wsu\nrealizations = 1\nsymbols = 10\n"
        )
        out = tmp_path / "ber.csv"
        rc = cli_main(
            ["--config", str(cfg_file), "--q-bits", "5", "--out", str(out)]
        )
        assert rc == 0
        assert read_csv(str(out))[0].q == 5

    def test_every_config_key_has_a_flag(self):
        skip = ("help", "config")
        flags = {a.dest for a in build_parser()._actions if a.dest not in skip}
        assert flags == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("key,flag_args,file_value,expected", NEW_FLAG_CASES)
    def test_key_set_by_flag_and_by_file(
        self, tmp_path, key, flag_args, file_value, expected
    ):
        assert getattr(config_from_argv(flag_args), key) == expected
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {file_value}\n")
        assert getattr(parse_config(str(path)), key) == expected
        assert getattr(config_from_argv(["--config", str(path)]), key) == expected

    @pytest.mark.parametrize("flag_args", [case[1] for case in NEW_FLAG_CASES])
    def test_new_flags_reach_the_trials(self, tmp_path, flag_args):
        # The value reaches the trials: the CSV differs from a default run.
        base = [
            "--bs-antennas", "16", "--ues", "4", "--clusters", "4",
            "--msnr-start", "0", "--msnr-stop", "0", "--msnr-step", "1",
            "--methods", "hr-iso", "--realizations", "2", "--symbols", "50",
        ]
        default_out, flag_out = tmp_path / "default.csv", tmp_path / "flag.csv"
        assert cli_main(base + ["--out", str(default_out)]) == 0
        assert cli_main(base + flag_args + ["--out", str(flag_out)]) == 0
        assert flag_out.read_text() != default_out.read_text()

    def test_bad_scenario_flag_value_names_the_key(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--paths", "two"])
        assert "paths" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--plot-script"])
    def test_double_dash_path_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            config_from_argv([f"{flag}=--"])
        assert exc.value.code == 2
        key = flag[2:].replace("-", "_")
        assert f"bad value for key '{key}'" in capsys.readouterr().err

    def test_duplicate_method_flag_names_the_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            config_from_argv(["--methods", "wsu,hr-iso,wsu"])
        assert exc.value.code == 2
        assert "methods lists 'wsu' more than once" in capsys.readouterr().err

    def test_api_and_cli_write_the_same_bytes(self, tmp_path, capsys):
        # Int-valued float keys are stored as floats on both routes, so the
        # CSV reads "30.0" and "10.0" whichever way the sweep was built.
        api_out, cli_out = tmp_path / "api.csv", tmp_path / "cli.csv"
        cfg = ExperimentConfig(
            bs_antennas=16, ues=4, clusters=4, rho_db=30, dr_limit_db=6,
            msnr_start=10, msnr_stop=12, msnr_step=2, methods=("wsu", "hr-iso"),
            realizations=1, symbols=10, seed=3, out=str(api_out),
        )
        write_csv(run_sweep(cfg), cfg.out)
        rc = cli_main(
            [
                "--bs-antennas", "16", "--ues", "4", "--clusters", "4",
                "--rho-db", "30", "--dr-limit-db", "6", "--msnr-start", "10",
                "--msnr-stop", "12", "--msnr-step", "2", "--methods", "wsu,hr-iso",
                "--realizations", "1", "--symbols", "10", "--seed", "3",
                "--out", str(cli_out),
            ]
        )
        assert rc == 0
        assert api_out.read_bytes() == cli_out.read_bytes()
        assert b"\nwsu,30.0,3,4,16,4,10.0," in api_out.read_bytes()

    def test_bad_flag_value_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--clusters", "7"])


class TestReadme:
    """The README's config file and command line still parse, so it cannot
    go on documenting a key or flag that no longer exists."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M)

    def test_config_file_example_parses(self, tmp_path):
        (block,) = [
            b for b in self.blocks
            if all(re.fullmatch(r"\w+ = .+", ln) for ln in b.splitlines())
        ]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        cfg = parse_config(str(path))
        assert (cfg.bs_antennas, cfg.ues, cfg.clusters) == (64, 8, 8)

    def test_command_line_example_parses(self):
        (block,) = [b for b in self.blocks if b.startswith("hdrmimo ")]
        argv = shlex.split(block.replace("\\\n", " "))
        assert argv[0] == "hdrmimo"
        cfg = config_from_argv(argv[1:])
        assert (cfg.bs_antennas, cfg.ues, cfg.clusters) == (64, 8, 8)
