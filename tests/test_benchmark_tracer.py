"""The benchmark's tracer, ``perfbench/tracer.py``, wraps package functions
by the names in its ``WRAPPED`` table, which it looks up with ``getattr``.
A package change that drops or rebinds one of those names breaks a traced
benchmark run, so these tests load the tracer from its file, unchanged,
and run it around a tiny CLI sweep.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from hdrmimo import cli
from hdrmimo.harness import METHODS

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def package_bindings():
    # Every name that every loaded package module binds, and its value.
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "hdrmimo" or key.startswith("hdrmimo.")
        for attr, value in vars(module).items()
    }


def test_every_wrapped_name_is_a_package_function(tracer):
    for mod, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"hdrmimo.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hdrmimo.{mod}.{name}"


def test_traced_sweep_nests_observe_under_training(tracer, tmp_path):
    before = package_bindings()
    traced = tracer.Tracer()
    traced.install()
    try:
        rc = cli.main(
            [
                "--bs-antennas", "16", "--ues", "4", "--clusters", "4",
                "--msnr-start", "10", "--msnr-stop", "10",
                "--realizations", "1", "--symbols", "10",
                "--out", str(tmp_path / "traced.csv"),
            ]
        )
    finally:
        traced.uninstall()
    assert rc == 0
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [k for k, value in before.items() if after[k] is not value] == []

    spans = {}
    for span in traced.spans:
        spans.setdefault(span.name, []).append(span)
    trials = sorted(span.id for span in spans["harness.run_trial"])
    training = spans["training.simulate_training"]
    assert len(trials) == len(METHODS)
    # One training span per trial, and under each one observe span.
    assert sorted(span.parent for span in training) == trials
    assert sorted(span.parent for span in spans["channel.observe"]) == sorted(
        span.id for span in training
    )

    # Every call of a trial's stages goes through a name the tracer binds:
    # one trial per method, four of them quantized. build_lmmse applies the
    # transform to the estimate, so apply_transform runs twice a quantized
    # trial, and design_hr_max builds its reflectors with design_hr_iso.
    counts = {name: len(found) for name, found in spans.items()}
    assert counts == {
        "cli.main": 1,
        "harness.run_sweep": 1,
        "harness.run_trial": 5,
        "channel.realize_channel": 5,
        "channel.noise_variance_from_msnr": 5,
        "channel.observe": 5,
        "training.generate_pilots": 5,
        "training.simulate_training": 5,
        "training.estimate_from_training": 5,
        "training.ls_channel_estimate": 5,
        "equalizer.modulate": 5,
        "equalizer.build_unquantized_lmmse": 1,
        "frontend.design_hr_iso": 2,
        "frontend.design_hr_max": 1,
        "frontend.identity_transform": 2,
        "frontend.design_quantizer": 4,
        "frontend.compute_agc": 4,
        "equalizer.build_lmmse": 4,
        "linalg.posdef_inverse_apply": 5,
        "frontend.apply_transform": 8,
        "frontend.adc": 4,
        "equalizer.equalize": 5,
        "equalizer.hard_slice": 5,
        "equalizer.count_bit_errors": 5,
    }
    for name in (
        "linalg.householder_apply", "linalg.dominant_eigenpair",
        "training.sample_covariance",
    ):
        assert counts.get(name, 0) == 0, name
