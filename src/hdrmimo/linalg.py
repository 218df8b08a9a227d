"""Complex dense linear algebra primitives: Householder reflections and
Hermitian eigen/solve helpers, on numpy alone."""

from __future__ import annotations

import numpy as np

# Relative bounds of the two eigenproblem checks below.
HERMITIAN_RTOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10


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


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(c: np.ndarray) -> None:
    """ValueError unless each block of the (..., M, M) stack ``c`` meets
    ||C - C^H|| <= HERMITIAN_RTOL ||C|| (Frobenius): scale-free; a zero block
    passes and a block with an inf or NaN entry fails. Blocks count over the
    flattened stack, from 0; a stack of empty blocks is a ValueError, a
    stack of no blocks passes."""
    if 0 in c.shape[-2:]:
        raise ValueError(f"the blocks of a stack of shape {c.shape} are empty")
    c = c.reshape(-1, *c.shape[-2:])
    finite = np.isfinite(c).all(axis=(1, 2))
    # Each finite block over its largest magnitude, so that the squares in
    # the norms neither underflow nor overflow; an exactly Hermitian block
    # stays exactly Hermitian.
    c = np.where(finite[:, None, None], c, 0.0)
    peak = np.abs(c).max(axis=(1, 2), initial=0.0)
    c /= np.where(peak > 0.0, peak, 1.0)[:, None, None]
    skew = np.linalg.norm(c - c.conj().transpose(0, 2, 1), axis=(1, 2))
    scale = np.linalg.norm(c, axis=(1, 2))
    bad = np.flatnonzero(~finite | ~(skew <= HERMITIAN_RTOL * scale))
    if bad.size:
        raise ValueError(f"block {bad[0]} is not Hermitian within tolerance")


def check_eigen_residual(c: np.ndarray, lam: np.ndarray | float, v: np.ndarray) -> None:
    """RuntimeError unless each block C of the (..., M, M) stack ``c`` and
    its eigenpair (lambda, l) in ``lam`` (...) and ``v`` (..., M) meet
    ||C l - lambda l|| <= EIG_RESIDUAL_TOL max(lambda, trace(C)/M); a NaN fails."""
    m = c.shape[-1]
    c, lam, v = c.reshape(-1, m, m), np.reshape(lam, -1), v.reshape(-1, m)
    residual = np.linalg.norm((c @ v[:, :, None])[:, :, 0] - lam[:, None] * v, axis=1)
    bound = EIG_RESIDUAL_TOL * np.maximum(lam, np.trace(c, axis1=1, axis2=2).real / m)
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"dominant eigenpair residual {residual[k]:.3e} of block {k} "
            f"exceeds bound {bound[k]:.3e}; value={lam[k]!r}"
        )


def dominant_eigenpair(c: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit-norm eigenvector of a Hermitian PSD matrix,
    from its own eigendecomposition (a reference for ``frontend.design_hr_max``)
    behind the same two checks. For a (near-)degenerate top eigenvalue any
    unit vector of the dominant eigenspace may be returned."""
    c = _check_square(c)
    check_hermitian(c)
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    value = float(max(values[-1], 0.0))
    vector = np.ascontiguousarray(vectors[:, -1])
    check_eigen_residual(c, value, vector)
    return value, vector


def posdef_inverse_apply(a: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian positive definite A.

    ``np.linalg.cholesky`` (LAPACK potrf, reading the lower triangle) is the
    definiteness test: a LinAlgError if the factorization fails (A
    indefinite) or if a pivot is negligible against its own diagonal entry,
    l_ii^2 <= 10 eps a_ii (A singular to working precision). That test is
    unchanged by a diagonal scaling D A D (van der Sluis 1969; Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10), so a
    well-conditioned matrix whose rows differ in scale by many decades is
    solved. ``np.linalg.solve`` (LAPACK gesv) then solves against B, as one
    call: numpy has no triangular solve, and two general solves on the
    factor would double the right-hand-side work. Never forms the explicit
    inverse.

    A must be a finite, square, 2-D array and B a vector or matrix whose
    leading dimension is A's order; anything else raises ValueError.
    """
    a = _check_square(a)
    b = np.asarray(bmat, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side of shape {b.shape} does not fit a matrix of "
            f"shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Cholesky factorization failed (matrix not positive definite): {exc}"
        ) from exc
    # Rounding can let the factorization of an exactly singular matrix slip
    # through with a tiny pivot; treat that as a failure too.
    pivots = np.abs(np.diagonal(factor))
    if np.any(pivots**2 <= 10.0 * np.finfo(float).eps * np.diagonal(a).real):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    return np.linalg.solve(a, b)
