"""Plain reference formulas that tests compare the package against, and
the small helpers several test modules share.

They are written for clarity, one vector at a time, and no trial uses them.
"""

import numpy as np
import scipy.linalg


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complex_sign(a: complex) -> complex:
    """Complex sign a/|a|, with the convention sign(0) = 1."""
    mag = abs(a)
    if mag == 0.0:
        return 1.0 + 0.0j
    return a / mag


def householder_matrix(v: np.ndarray) -> np.ndarray:
    """Dense Householder reflector I - 2 v v^H / ||v||^2.

    The result is unitary and Hermitian (an involution). Raises
    ValueError for a zero normal vector.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    nrm2 = np.vdot(v, v).real
    if nrm2 == 0.0:
        raise ValueError("Householder normal vector must be nonzero")
    return np.eye(len(v), dtype=complex) - (2.0 / nrm2) * np.outer(v, v.conj())


def dense_transform_matrix(transform):
    """The B x B block-diagonal matrix of a SpatialTransform: one dense
    reflector per cluster, the identity for an all-zero (passthrough) row."""
    blocks = [
        householder_matrix(v) if np.any(v) else np.eye(transform.block_size)
        for v in transform.vectors
    ]
    return scipy.linalg.block_diag(*blocks)


def diagonal_blocks(c, clusters):
    """(C, S, S) stack of the diagonal blocks of a B x B matrix."""
    s = c.shape[0] // clusters
    idx = np.arange(clusters)
    return c.reshape(clusters, s, clusters, s)[idx, :, idx, :]


def reflected_first_coordinate(w, a):
    """|e_1^H Q_w a| for a batch of reflector normals w (columns of w)."""
    coef = w.conj().T @ a
    norms = np.sum(np.abs(w) ** 2, axis=0)
    return np.abs(a[0] - 2.0 * w[0] * coef / norms)
