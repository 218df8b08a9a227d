"""Plain reference formulas that tests compare the package against.

They are written for clarity, one vector at a time, and no trial uses them.
"""

import numpy as np


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
