"""Metamorphic relations of the receive chain: relations between whole
trials that must hold whatever the stage formulas are.

Scale: the noise variance follows the median channel power, the AGC
normalizes each converter, and the LMMSE detector is homogeneous. So a
channel scaled by a power of two, which is exact in floating point, must
give the same error counts in every trial.
"""

import pytest

from hdrmimo import harness
from hdrmimo.harness import METHODS, ExperimentConfig, run_trial

DESK = ExperimentConfig(bs_antennas=64, ues=8, clusters=8, symbols=200, seed=23)
MSNR_DB = (0.0, 12.0)
REALIZATIONS = 4


def error_counts(cfg):
    return {
        (method, msnr_db, r): run_trial(cfg, method, msnr_db, r)
        for method in METHODS
        for msnr_db in MSNR_DB
        for r in range(REALIZATIONS)
    }


@pytest.fixture(scope="module")
def unscaled():
    return error_counts(DESK)


@pytest.mark.parametrize("exponent", [-60, -1, 1, 60])
def test_channel_scaled_by_a_power_of_two_gives_the_same_errors(
    monkeypatch, unscaled, exponent
):
    realize = harness.realize_channel
    monkeypatch.setattr(
        harness,
        "realize_channel",
        lambda *args, **kw: 2.0**exponent * realize(*args, **kw),
    )
    assert error_counts(DESK) == unscaled
