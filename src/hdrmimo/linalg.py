"""Complex dense linear algebra primitives: Householder reflections,
Hermitian eigen/solve helpers, and Hadamard matrices."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

HERMITIAN_RTOL = 1e-12


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


def householder_apply(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the reflector defined by v to x without forming the matrix.

    Computes x - 2 v (v^H x) / ||v||^2 with a single inner product per
    column. ``x`` may be a vector of length M or an (M, n) array whose
    columns are each reflected.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: v has length {v.shape[0]}, x has leading "
            f"dimension {x.shape[0]}"
        )
    nrm2 = np.vdot(v, v).real
    if nrm2 == 0.0:
        raise ValueError("Householder normal vector must be nonzero")
    coef = v.conj() @ x  # scalar for 1-D x, (n,) for 2-D x
    if x.ndim == 1:
        return x - (2.0 / nrm2) * coef * v
    return x - (2.0 / nrm2) * np.outer(v, coef)


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def dominant_eigenpair(c: np.ndarray, tol: float = 1e-10) -> EigenPair:
    """Largest eigenvalue and a unit-norm eigenvector of a Hermitian PSD matrix.

    Backed by a full Hermitian eigendecomposition; the contract is the
    residual bound ``||C l - lambda l|| <= tol * max(lambda, trace(C)/M)``,
    which is checked before returning. For a (near-)degenerate top
    eigenvalue any unit vector of the dominant eigenspace may be returned.
    """
    c = _check_hermitian(c)
    m = c.shape[0]
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    value = float(max(values[-1], 0.0))
    vector = np.ascontiguousarray(vectors[:, -1])
    residual = float(np.linalg.norm(c @ vector - value * vector))
    bound = tol * max(value, float(np.trace(c).real) / m)
    if residual > bound:
        raise RuntimeError(
            f"dominant eigenpair residual {residual:.3e} exceeds bound "
            f"{bound:.3e}; best iterate value={value!r}"
        )
    return EigenPair(value, vector)


def posdef_inverse_apply(a: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian positive definite A via Cholesky.

    Raises a LinAlgError if the factorization fails (A indefinite) or if a
    pivot is negligible against its own diagonal entry, l_ii^2 <= 10 eps
    a_ii (A singular to working precision). That test is unchanged by a
    diagonal scaling D A D (van der Sluis 1969; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10), so a well-conditioned matrix
    whose rows differ in scale by many decades is solved. Never forms the
    explicit inverse.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(bmat, dtype=complex)
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Cholesky factorization failed (matrix not positive definite): {exc}"
        ) from exc
    # Rounding can let the factorization of an exactly singular matrix slip
    # through with a tiny pivot; treat that as a failure too.
    pivots = np.abs(np.diagonal(factor[0]))
    if np.any(pivots**2 <= 10.0 * np.finfo(float).eps * np.diagonal(a).real):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def hadamard(k: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order k (k a power of two), entries +-1."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"Hadamard order must be a power of two, got {k}")
    return scipy.linalg.hadamard(k, dtype=float)
