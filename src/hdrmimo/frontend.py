"""Mixed-signal front-end model: clustered Householder spatial transforms,
AGC gains, the uniform midrise quantizer, and its Bussgang linearization."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from .linalg import complex_sign, dominant_eigenpair, householder_apply

IDENTITY = "identity"
HR_ISO = "hr-iso"
HR_MAX = "hr-max"


@dataclass(frozen=True)
class SpatialTransform:
    """Block-diagonal spatial transform with one reflector per antenna cluster.

    ``vectors`` holds one Householder normal vector per cluster; ``None``
    marks a passthrough (identity) cluster. Every block is unitary, so the
    transform preserves vector norms.
    """

    variant: str
    block_size: int
    vectors: tuple

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("cluster block size must be >= 1")
        for v in self.vectors:
            if v is not None and not np.any(v):
                raise ValueError("stored cluster vectors must be nonzero")

    @property
    def clusters(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.block_size * len(self.vectors)


@dataclass(frozen=True)
class QuantizerModel:
    """Midrise quantizer with its Bussgang constants for unit-variance input."""

    q: int
    delta: float
    gamma: float
    dist_power: float

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("quantizer needs at least 1 bit")
        if not self.delta > 0:
            raise ValueError("step size must be positive")
        if not 0 < self.gamma <= 1 or self.dist_power < 0:
            raise ValueError("need 0 < gamma <= 1 and dist_power >= 0")


@dataclass(frozen=True)
class AgcGains:
    """Per-ADC amplitude gains normalizing each real dimension to unit variance."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.omega)) or not np.all(self.omega > 0):
            raise ValueError("AGC gains must be positive and finite")


def identity_transform(dim: int, clusters: int) -> SpatialTransform:
    if dim % clusters != 0:
        raise ValueError(f"dimension {dim} not divisible by {clusters} clusters")
    return SpatialTransform(IDENTITY, dim // clusters, (None,) * clusters)


def design_hr_iso(h_strong: np.ndarray, clusters: int) -> SpatialTransform:
    """Per-cluster reflectors that focus the strong user onto output 1.

    For each length-S slice a of the strong user's channel estimate, the
    reflector normal is v = a + ||a|| sign(a_1) e_1, which maps a onto a
    multiple of e_1. A zero slice leaves the cluster untouched.
    """
    h_strong = np.asarray(h_strong, dtype=complex).reshape(-1)
    b = h_strong.shape[0]
    if b % clusters != 0:
        raise ValueError(f"dimension {b} not divisible by {clusters} clusters")
    s = b // clusters
    vectors = []
    for c in range(clusters):
        a = h_strong[c * s : (c + 1) * s]
        nrm = float(np.linalg.norm(a))
        if nrm == 0.0:
            vectors.append(None)
            continue
        v = a.copy()
        v[0] += nrm * complex_sign(a[0])
        vectors.append(v)
    return SpatialTransform(HR_ISO, s, tuple(vectors))


def design_hr_max(c_blocks: np.ndarray, tol: float = 1e-10) -> SpatialTransform:
    """Per-cluster reflectors that focus the dominant receive direction.

    ``c_blocks`` is the (C, S, S) stack of diagonal receive-covariance
    blocks, one per cluster. Each cluster computes its block's dominant
    eigenvector l_1 and reflects with v = l_1 + sign([l_1]_1) e_1. A zero
    block falls back to identity.
    """
    c_blocks = np.asarray(c_blocks, dtype=complex)
    if c_blocks.ndim != 3 or c_blocks.shape[1] != c_blocks.shape[2]:
        raise ValueError(
            f"hr-max design needs a (C, S, S) stack of covariance blocks, "
            f"got shape {c_blocks.shape}"
        )
    vectors = []
    for block in c_blocks:
        if not np.any(block):
            vectors.append(None)
            continue
        value, vec = dominant_eigenpair(block, tol)
        if value <= 0.0:
            vectors.append(None)
            continue
        v = vec.astype(complex).copy()
        v[0] += complex_sign(vec[0])
        vectors.append(v)
    return SpatialTransform(HR_MAX, c_blocks.shape[1], tuple(vectors))


def apply_transform(transform: SpatialTransform, y: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal transform to a vector or to matrix columns.

    Each cluster's output depends only on that cluster's input, via one
    rank-1 reflection per cluster; the dense matrix is never formed.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != transform.dim:
        raise ValueError(
            f"input dimension {y.shape[0]} does not match transform dimension "
            f"{transform.dim}"
        )
    out = y.copy()
    s = transform.block_size
    for c, v in enumerate(transform.vectors):
        if v is None:
            continue
        out[c * s : (c + 1) * s] = householder_apply(v, out[c * s : (c + 1) * s])
    return out


def transform_covariance(transform: SpatialTransform, cov: np.ndarray) -> np.ndarray:
    """Conjugate a covariance by the transform: F C F^H, per-cluster rank-1."""
    half = apply_transform(transform, np.asarray(cov, dtype=complex))
    return apply_transform(transform, half.conj().T).conj().T


def _cell_edges(q: int, delta: float) -> np.ndarray:
    # Nonnegative cell edges 0, delta, ..., delta*2^(q-1); the last edge is
    # the saturation threshold.
    return delta * np.arange(2 ** (q - 1) + 1)


def midrise(x: np.ndarray, delta: float, q: int) -> np.ndarray:
    """Uniform midrise quantizer with saturation, applied elementwise.

    Inputs with |x| < delta * 2^(q-1) map to delta*floor(x/delta) + delta/2;
    anything at or beyond that threshold saturates to +-(delta/2)(2^q - 1).
    The output alphabet has exactly 2^q levels per real dimension.
    """
    x = np.asarray(x, dtype=float)
    threshold = delta * 2 ** (q - 1)
    granular = delta * np.floor(x / delta) + delta / 2.0
    saturated = np.sign(x) * (delta / 2.0) * (2**q - 1)
    return np.where(np.abs(x) < threshold, granular, saturated)


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


@functools.lru_cache(maxsize=None)
def design_quantizer(q: int) -> QuantizerModel:
    """Quantizer with the MSE-optimal step size and its Bussgang constants."""
    delta = optimal_step_size(q)
    gamma, dist = bussgang_constants(q, delta)
    return QuantizerModel(q=q, delta=delta, gamma=gamma, dist_power=dist)


def compute_agc(c_blocks: np.ndarray, transform: SpatialTransform) -> AgcGains:
    """Per-ADC gains omega_b = sqrt(2 / diag(F C_y F^H)_b).

    The diagonal of F C_y F^H depends only on the diagonal blocks of C_y,
    so ``c_blocks`` is the (C, S, S) stack of those blocks, one per
    cluster; each is conjugated by its reflector via rank-1 applications.
    Diagonal entries are floored at a small fraction of the average power
    before inversion so numerically dead dimensions cannot produce infinite
    gains.
    """
    c_blocks = np.asarray(c_blocks, dtype=complex)
    s = transform.block_size
    if c_blocks.shape != (transform.clusters, s, s):
        raise ValueError(
            f"AGC needs a (C, S, S) = ({transform.clusters}, {s}, {s}) stack of "
            f"covariance blocks for this transform, got shape {c_blocks.shape}"
        )
    b = transform.dim
    diag = np.empty(b)
    for c, (v, block) in enumerate(zip(transform.vectors, c_blocks)):
        if v is not None:
            block = householder_apply(v, block)
            block = householder_apply(v, block.conj().T).conj().T
        diag[c * s : (c + 1) * s] = np.real(np.diagonal(block))
    floor = 1e-12 * diag.sum() / b
    if floor <= 0.0:
        floor = np.finfo(float).tiny
    return AgcGains(np.sqrt(2.0 / np.maximum(diag, floor)))


def adc(
    y_tilde: np.ndarray, gains: AgcGains, quant: QuantizerModel
) -> np.ndarray:
    """AGC scaling followed by midrise quantization of both real dimensions.

    Accepts a length-B vector or a (B, n) block of receive vectors.
    """
    y_tilde = np.asarray(y_tilde, dtype=complex)
    omega = gains.omega
    if y_tilde.shape[0] != omega.shape[0]:
        raise ValueError(
            f"input dimension {y_tilde.shape[0]} does not match gain count "
            f"{omega.shape[0]}"
        )
    scaled = y_tilde * (omega if y_tilde.ndim == 1 else omega[:, None])
    return midrise(scaled.real, quant.delta, quant.q) + 1j * midrise(
        scaled.imag, quant.delta, quant.q
    )
