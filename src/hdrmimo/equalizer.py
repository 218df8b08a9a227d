"""Bussgang-linearized LMMSE equalization, Gray-mapped 16-QAM, and
bit-error accounting."""

from __future__ import annotations

import numpy as np

from .frontend import AgcGains, QuantizerModel, SpatialTransform, apply_transform
from .linalg import posdef_inverse_apply

# Gray-mapped square 16-QAM, unit average symbol energy. Per real dimension
# a bit pair selects a level: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3 (all
# scaled by 1/sqrt(10)); the first two bits drive the in-phase level, the
# last two the quadrature level.
QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
_PAIR_TO_LEVEL = np.array([0, 1, 3, 2])  # indexed by 2*b0 + b1
_LEVEL_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
# 16-row tables: _SYMBOLS[8*b0 + 4*b1 + 2*b2 + b3] is the symbol of bits
# b0..b3, and _BITS[4*i + q] the bits of in-phase level i and quadrature
# level q.
_SYMBOLS = (
    QAM16_LEVELS[_PAIR_TO_LEVEL][:, None]
    + 1j * QAM16_LEVELS[_PAIR_TO_LEVEL][None, :]
).reshape(16)
_BITS = np.concatenate(
    [np.repeat(_LEVEL_TO_BITS, 4, axis=0), np.tile(_LEVEL_TO_BITS, (4, 1))],
    axis=1,
)
_BIT_WEIGHTS = np.array([8, 4, 2, 1])


def modulate(bits: np.ndarray) -> np.ndarray:
    """Map a bit vector (length 4n) to n Gray-coded 16-QAM symbols.

    Each group of 4 bits indexes a 16-entry table of the symbols
    ``QAM16_LEVELS[i] + 1j*QAM16_LEVELS[q]``; for integer input the only
    allocations are the n indices and the n symbols. Any value other than
    0 or 1 (negative, above 1, fractional or NaN) raises ValueError.
    """
    values = np.asarray(bits).reshape(-1)
    if values.size % 4 != 0:
        raise ValueError(f"bit count must be a multiple of 4, got {values.size}")
    # Within [0, 1] (NaN fails both tests) before the cast, which warns on
    # NaN and out-of-range floats; then no fractional value truncated to 0
    # by the cast. Whole-array reductions, no temporaries.
    if values.size and not (values.min() >= 0 and values.max() <= 1):
        raise ValueError("bits must be 0 or 1")
    bits = values.astype(int, copy=False)
    if np.count_nonzero(bits) != np.count_nonzero(values):
        raise ValueError("bits must be 0 or 1")
    return _SYMBOLS[bits.reshape(-1, 4) @ _BIT_WEIGHTS]


def hard_slice(s_hat: np.ndarray) -> np.ndarray:
    """Nearest-level 16-QAM decisions followed by the inverse Gray map.

    Returns 4 bits per input symbol as uint8, in C order of ``s_hat`` (any
    shape, views such as a transpose included); hard_slice(modulate(b)) == b.
    Per real dimension the decision index is clip(floor((x*sqrt(10) + 4)/2),
    0, 3), so +-inf take the outer levels; the in-phase index i and the
    quadrature index q pick the row 4*i + q of a 16-row bit table. A NaN
    soft symbol raises ValueError. A trial slices one bit slice at a time,
    so each temporary is slice-sized.
    """
    s_hat = np.asarray(s_hat, dtype=complex)
    i = np.clip(np.floor((s_hat.real * np.sqrt(10.0) + 4.0) / 2.0), 0, 3)
    q = np.clip(np.floor((s_hat.imag * np.sqrt(10.0) + 4.0) / 2.0), 0, 3)
    row = i * 4.0 + q
    # After clipping only NaN is non-finite, and it reaches the row index.
    if np.isnan(np.sum(row)):
        raise ValueError("cannot slice a NaN soft symbol")
    # A C-ordered index: gathering through a transposed one is slower.
    return _BITS[row.astype(np.intp, order="C")].reshape(-1)


def count_bit_errors(tx_bits: np.ndarray, rx_bits: np.ndarray) -> tuple[int, int]:
    """Hamming distance and total length of two equal-length bit vectors."""
    tx = np.asarray(tx_bits).reshape(-1)
    rx = np.asarray(rx_bits).reshape(-1)
    if tx.size != rx.size:
        raise ValueError(f"bit vector lengths differ: {tx.size} vs {rx.size}")
    return int(np.count_nonzero(tx != rx)), int(tx.size)


def _push_through_solve(a: np.ndarray, load: float, rhs: np.ndarray) -> np.ndarray:
    # (A^H A + diag(l))^{-1} rhs, factoring only the U x U Hermitian system
    # G, with the load l_i = max(load, f ||a_i||^2), f = 2 (U (U + 1) + 10) eps.
    # The floor lets G pass posdef_inverse_apply's pivot test whatever A is
    # (a zero column of A needs load > 0).
    # Scaled to a unit diagonal (both the test and the pivots scale with
    # a_ii), G has no eigenvalue below f / (1 + f). The computed factor R is
    # exact for G + dG with |dG| <= (U + 1) eps |R^H| |R| (Higham, Accuracy
    # and Stability of Numerical Algorithms, Thm 10.5), whose scaled entries
    # are at most (U + 1) eps, so its scaled 2-norm is at most U (U + 1) eps.
    # So each computed pivot exceeds (f - U (U + 1) eps) a_ii to first order,
    # and the test asks for 10 eps a_ii; the factor 2 covers the rest. The
    # floor is per user, so a strong user's power does not load a weak one.
    g = a.conj().T @ a
    power = np.diagonal(g).real
    u = power.size
    floor = 2.0 * (u * (u + 1) + 10) * np.finfo(float).eps * power
    np.fill_diagonal(g, power + np.maximum(load, floor))
    return posdef_inverse_apply(g, rhs)


def build_lmmse(
    h_hat: np.ndarray,
    transform: SpatialTransform,
    gains: AgcGains,
    quant: QuantizerModel,
    n0: float,
) -> np.ndarray:
    """Linearized-model LMMSE detector W (U x B) for the quantized receive chain.

    With M = O F Hh (O the AGC gains, F the spatial transform) and the
    diagonal effective noise D = N0 O^2 + (2 D_q / gamma^2) I (F is unitary,
    so the noise stays white before the gains), the detector is

        W = (1/gamma) M^H (M M^H + D)^{-1}
          = (1/gamma) (I_U + A^H A)^{-1} A^H D^{-1/2},   A = D^{-1/2} M,

    by the push-through identity. Only the U x U system G = I_U + A^H A is
    factored; every eigenvalue of G is >= 1, so it is positive definite by
    construction. M is computed in place in a C-ordered copy of Hh, by
    per-cluster rank-1 reflections (never a dense B x B matrix).

    Requires D > 0 entrywise: a noiseless, distortion-free chain (N0 = 0
    and D_q = 0) raises ``np.linalg.LinAlgError``.
    """
    d = n0 * gains.omega**2 + 2.0 * quant.dist_power / quant.gamma**2
    if not np.all(d > 0):
        raise np.linalg.LinAlgError(
            "LMMSE effective noise must be positive on every ADC: the chain is "
            "noiseless and distortion-free (N0 = 0 and zero Bussgang distortion)"
        )
    d_isqrt = 1.0 / np.sqrt(d)
    m = apply_transform(transform, np.array(h_hat, dtype=complex, order="C"))
    m *= gains.omega[:, None]
    a = d_isqrt[:, None] * m
    return _push_through_solve(a, 1.0, a.conj().T * d_isqrt[None, :]) / quant.gamma


def build_unquantized_lmmse(h_hat: np.ndarray, n0: float) -> np.ndarray:
    """Classical LMMSE detector W (U x B) on raw observations, in its U x U form.

    W = Hh^H (Hh Hh^H + N0 I_B)^{-1} = (Hh^H Hh + N0 I_U)^{-1} Hh^H, so only
    a U x U Hermitian system is factored. Its load N0 is floored per user at
    2 (U (U + 1) + 10) eps ||h_u||^2, which keeps the system nonsingular to
    working precision when users are nearly collinear and N0 is tiny; with
    N0 = 0 this is the zero-forcing detector, so regularized.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    return _push_through_solve(h_hat, n0, h_hat.conj().T)


def equalize(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Symbol estimates W @ r for a (U, B) detector W; r may be a vector or
    a (B, n) block."""
    return w @ np.asarray(r, dtype=complex)
