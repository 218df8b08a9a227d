"""Metamorphic relations of the receive chain: relations between whole
trials that must hold whatever the stage formulas are.

Scale: the noise variance follows the median channel power, the AGC
normalizes each converter, and the LMMSE detector is homogeneous. So a
channel scaled by a power of two, which is exact in floating point, must
give the same error counts in every trial.

Global phase: the channel j h, with the noise rotated with it, multiplies
the received training and data blocks by j. The LS estimate turns with
them, the covariance blocks, the reflectors and the AGC gains do not, the
midrise quantizer is odd in each real dimension, and the detector undoes
the turn. So the equalized symbols must stay the same, up to rounding:
the Gram matrices of rotated data can round differently.

Scale, for hr-max's input checks: the Hermitian test and the eigen-residual
bound are relative, so a covariance stack scaled by a power of two is
rejected or accepted as the unscaled stack is, by ``design_hr_max`` and by
its oracle ``dominant_eigenpair`` alike, and gives the same reflectors.
The Hermitian test divides each block by its largest magnitude first, so
it rejects a skewed stack also where the squared entries underflow.
"""

import numpy as np
import pytest

from hdrmimo import harness
from hdrmimo.frontend import design_hr_max
from hdrmimo.harness import METHODS, ExperimentConfig, run_trial
from hdrmimo.linalg import dominant_eigenpair

DESK = ExperimentConfig(bs_antennas=64, ues=8, clusters=8, symbols=200, seed=23)
MSNR_DB = (0.0, 12.0)
REALIZATIONS = 4
# On the desk config at seeds 1..40 the largest relative change of a
# trial's equalized symbols under the rotation was 4.8e-15 (median 2.6e-15
# per seed); a stage that is not phase-invariant moves them by far more.
PHASE_RTOL = 1e-13


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


def equalized_symbols(monkeypatch):
    # Every trial's (U, n) soft symbols, recorded where run_trial equalizes.
    recorded = []
    equalize = harness.equalize

    def recording(w, r):
        recorded.append(equalize(w, r))
        return recorded[-1]

    monkeypatch.setattr(harness, "equalize", recording)
    symbols = {}
    for method in METHODS:
        for msnr_db in MSNR_DB:
            for r in range(REALIZATIONS):
                recorded.clear()
                run_trial(DESK, method, msnr_db, r)
                symbols[method, msnr_db, r] = np.concatenate(recorded, axis=1)
    return symbols


def test_blocks_rotated_by_j_give_the_same_symbols(monkeypatch):
    unrotated = equalized_symbols(monkeypatch)
    train, add_noise = harness.simulate_training, harness.add_noise

    def rotated_noise(y, n0, rng):
        add_noise(y, n0, rng)
        y *= 1j

    monkeypatch.setattr(harness, "simulate_training", lambda *a: 1j * train(*a))
    monkeypatch.setattr(harness, "add_noise", rotated_noise)
    rotated = equalized_symbols(monkeypatch)
    for trial, s in unrotated.items():
        gap = np.linalg.norm(rotated[trial] - s)
        assert gap <= PHASE_RTOL * np.linalg.norm(s), trial


@pytest.mark.parametrize("exponent", [-60, -20, 0, 20, 60])
def test_hr_max_checks_hold_at_any_covariance_scale(exponent):
    scale = 2.0**exponent
    skewed = scale * np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(ValueError, match="block 1 is not Hermitian"):
        design_hr_max(skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        dominant_eigenpair(skewed[1])

    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    blocks = a @ a.conj().transpose(0, 2, 1)  # Hermitian PSD
    unscaled = design_hr_max(blocks).vectors
    assert np.array_equal(design_hr_max(scale * blocks).vectors, unscaled)
    for block in blocks:
        value, vector = dominant_eigenpair(scale * block)
        assert value > 0 and np.isclose(np.linalg.norm(vector), 1.0)


def test_hermitian_check_holds_where_the_squared_entries_underflow():
    # At 2^-540 every squared entry underflows to 0, so unscaled Frobenius
    # norms would read ||C - C^H|| = ||C|| = 0 and pass the skewed block.
    scale = 2.0**-540
    skewed = scale * np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(ValueError, match="block 1 is not Hermitian"):
        design_hr_max(skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        dominant_eigenpair(skewed[1])
    design_hr_max(scale * np.array([np.eye(2), [[2.0, 1.0], [1.0, 2.0]]]))
