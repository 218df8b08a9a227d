"""Plain reference formulas that tests compare the package against, and
the small helpers several test modules share.

They are written for clarity, one vector at a time, and no trial uses them.
The quantizer design code is here too: the exact Gaussian cell integrals
(``bussgang_constants``, ``quantizer_mse``) and the MSE-optimal step size
search (``optimal_step_size``), which compute the table that
``hdrmimo.frontend.design_quantizer`` reads. scipy is a test dependency
only: the package runs on numpy alone.
"""

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar
from scipy.special import ndtr


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


def _cell_edges(q: int, delta: float) -> np.ndarray:
    # Nonnegative cell edges 0, delta, ..., delta*2^(q-1); the last edge is
    # the saturation threshold.
    return delta * np.arange(2 ** (q - 1) + 1)


def _gaussian_cell_moments(q: int, delta: float):
    # Per-cell output levels and standard-normal integrals over the positive
    # half-axis; the quantizer is odd so the negative half mirrors these.
    edges = _cell_edges(q, delta)
    lo, hi = edges[:-1], edges[1:]
    levels = (lo + hi) / 2.0
    pdf_lo = np.exp(-0.5 * lo**2) / np.sqrt(2.0 * np.pi)
    pdf_hi = np.exp(-0.5 * hi**2) / np.sqrt(2.0 * np.pi)
    prob = ndtr(hi) - ndtr(lo)
    threshold = edges[-1]
    sat_level = (delta / 2.0) * (2**q - 1)
    sat_prob = 1.0 - ndtr(threshold)
    sat_pdf = np.exp(-0.5 * threshold**2) / np.sqrt(2.0 * np.pi)
    # E[Q x] and E[Q^2] over the full axis (twice the positive half).
    corr = 2.0 * (np.sum(levels * (pdf_lo - pdf_hi)) + sat_level * sat_pdf)
    power = 2.0 * (np.sum(levels**2 * prob) + sat_level**2 * sat_prob)
    return corr, power


def bussgang_constants(q: int, delta: float) -> tuple[float, float]:
    """Bussgang gain and distortion power for unit-variance Gaussian input.

    gamma = E[Q(x) x] and D = E[Q(x)^2] - gamma^2 for x ~ N(0, 1), evaluated
    exactly by splitting the Gaussian integrals at the quantizer thresholds.
    """
    if delta <= 0:
        raise ValueError("step size must be positive")
    corr, power = _gaussian_cell_moments(q, delta)
    gamma = corr
    return float(gamma), float(power - gamma**2)


def quantizer_mse(q: int, delta: float) -> float:
    """Mean squared quantization error E[(Q(x) - x)^2] for x ~ N(0, 1)."""
    corr, power = _gaussian_cell_moments(q, delta)
    return float(power - 2.0 * corr + 1.0)


def optimal_step_size(q: int) -> float:
    """MSE-minimizing midrise step size for a unit-variance Gaussian input."""
    if not 1 <= q <= 12:
        raise ValueError(f"supported bit depths are 1..12, got {q}")
    # Coarse geometric scan to bracket the minimum, then a bounded search.
    grid = np.geomspace(1e-4, 4.0, 200)
    coarse = np.array([quantizer_mse(q, d) for d in grid])
    k = int(np.argmin(coarse))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda d: quantizer_mse(q, d),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return float(res.x)
