"""Mixed-signal front-end model: clustered Householder spatial transforms,
AGC gains, the uniform midrise quantizer, and its Bussgang linearization."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import column_slices
from .linalg import check_eigen_residual, check_hermitian


@dataclass(frozen=True, eq=False)
class SpatialTransform:
    """Block-diagonal spatial transform with one reflector per antenna cluster.

    ``vectors`` is a (C, S) complex array whose row c is the Householder
    normal v_c of cluster c; cluster c applies I - w_c v_c v_c^H with the
    weight w_c = 2/||v_c||^2, or w_c = 0 for an all-zero row, which makes
    that cluster a passthrough (identity). Every block is unitary, so the
    transform preserves vector norms. The normals are copied, and both they
    and the weights are read-only, so one transform can be shared.
    """

    vectors: np.ndarray
    # Per-row weights 2 / ||v||^2, 0 for a passthrough row.
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or 0 in vectors.shape:
            raise ValueError(
                f"reflector normals must form a nonempty (C, S) array, got "
                f"shape {vectors.shape}"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("reflector normals must be finite")
        nrm2 = np.sum(vectors.real**2 + vectors.imag**2, axis=1)
        active = np.any(vectors != 0, axis=1)
        if not np.all(np.isfinite(nrm2[active]) & (nrm2[active] > 0)):
            raise ValueError(
                "a nonzero reflector normal has a squared norm outside the "
                "floating-point range"
            )
        vectors.flags.writeable = False
        weights = np.divide(2.0, nrm2, out=np.zeros_like(nrm2), where=active)
        weights.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_weights", weights)

    @property
    def clusters(self) -> int:
        return self.vectors.shape[0]

    @property
    def block_size(self) -> int:
        return self.vectors.shape[1]

    @property
    def dim(self) -> int:
        return self.vectors.size

    @property
    def is_identity(self) -> bool:
        return not self._weights.any()


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


@dataclass(frozen=True, eq=False)
class AgcGains:
    """Per-ADC amplitude gains normalizing each real dimension to unit variance."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.omega)) or not np.all(self.omega > 0):
            raise ValueError("AGC gains must be positive and finite")


def split_clusters(a: np.ndarray, clusters: int) -> np.ndarray:
    """The (C, S, ...) view of ``a`` whose leading axis of length B = C S
    is cut into C consecutive clusters of S antennas.

    Raises ValueError unless C >= 1 divides B.
    """
    b = a.shape[0]
    if clusters < 1 or b % clusters != 0:
        raise ValueError(f"dimension {b} not divisible by {clusters} clusters")
    return a.reshape(clusters, b // clusters, *a.shape[1:])


@functools.lru_cache(maxsize=None)
def identity_transform(dim: int, clusters: int) -> SpatialTransform:
    # Cached: a transform is immutable (frozen, read-only arrays).
    return SpatialTransform(split_clusters(np.zeros(dim, complex), clusters))


def design_hr_iso(h_strong: np.ndarray, clusters: int) -> SpatialTransform:
    """Per-cluster reflectors that focus the strong user onto output 1.

    For each length-S slice a of the strong user's channel estimate, the
    reflector normal is v = a + ||a|| sign(a_1) e_1, which maps a onto a
    multiple of e_1. A zero slice leaves the cluster untouched.
    """
    h_strong = np.asarray(h_strong, dtype=complex).reshape(-1)
    v = split_clusters(h_strong, clusters).copy()
    nrm = np.linalg.norm(v, axis=1)
    # sign(a_1) = a_1/|a_1|, with sign(0) = 1.
    lead = v[:, 0]
    mag = np.abs(lead)
    v[:, 0] += nrm * np.divide(lead, mag, out=np.ones_like(lead), where=mag > 0)
    v[nrm == 0.0] = 0.0
    return SpatialTransform(v)


def design_hr_max(c_blocks: np.ndarray) -> SpatialTransform:
    """Per-cluster reflectors that focus the dominant receive direction.

    ``c_blocks`` is the (C, S, S) stack of diagonal receive-covariance
    blocks, one per cluster. One batched Hermitian eigendecomposition gives
    each block's dominant eigenvector l_1, and hr-iso's reflector rule is
    applied to the stacked l_1: v = l_1 + ||l_1|| sign([l_1]_1) e_1. The
    stack must pass ``linalg.check_hermitian`` (else ValueError) and each
    eigenpair ``linalg.check_eigen_residual`` (else RuntimeError). A zero
    block, or one whose top eigenvalue is not positive, gets a zero l_1 and
    so falls back to identity.
    """
    c = np.asarray(c_blocks, dtype=complex)
    if c.ndim != 3 or c.shape[1] != c.shape[2]:
        raise ValueError(
            f"hr-max design needs a (C, S, S) stack of covariance blocks, "
            f"got shape {c.shape}"
        )
    check_hermitian(c)
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    top = np.maximum(values[:, -1], 0.0)
    lead = vectors[:, :, -1]
    check_eigen_residual(c, top, lead)
    lead[(top <= 0.0) | ~np.any(c, axis=(1, 2))] = 0.0
    return design_hr_iso(lead.reshape(-1), c.shape[0])


def _check_block(y: np.ndarray) -> None:
    # The one kind of input the data path writes over.
    if not (
        isinstance(y, np.ndarray) and y.dtype == complex and y.ndim in (1, 2)
        and y.flags.c_contiguous
    ):
        raise ValueError(
            "the input must be a C-contiguous complex128 vector or (B, n) block"
        )


def apply_transform(transform: SpatialTransform, y: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal transform in place to ``y`` and return ``y``.

    ``y`` is a C-contiguous complex128 vector or (B, n) block; anything else
    is a ValueError and left unchanged. All C clusters are reflected at once
    by the batched rank-1 update x - w v (v^H x) on the (C, S, n) view of
    ``y``; the dense matrix is never formed. The update runs as one array
    expression per column slice of ``channel.column_slices``, each at most
    ``SLICE_SIZE`` floats of ``y``, so each temporary is at most one slice.
    The identity leaves ``y`` untouched; a passthrough row has w = 0, so for
    finite input its rows keep their values.
    """
    _check_block(y)
    if y.shape[0] != transform.dim:
        raise ValueError(
            f"input dimension {y.shape[0]} does not match transform dimension "
            f"{transform.dim}"
        )
    if transform.is_identity:
        return y
    v, w = transform.vectors, transform._weights
    x = y.reshape(transform.clusters, transform.block_size, -1)
    for cols in column_slices(x.shape[2], 2 * transform.dim):
        x_s = x[:, :, cols]
        coef = v.conj()[:, None, :] @ x_s
        coef *= w[:, None, None]
        x_s -= v[:, :, None] * coef
    return y


def midrise(x: np.ndarray, delta: float, q: int) -> np.ndarray:
    """Uniform midrise quantizer with saturation, applied elementwise.

    Inputs with |x| < delta * 2^(q-1) map to the midpoint
    delta*(floor(x/delta) + 1/2) of their cell; anything at or beyond that
    threshold saturates to +-(delta/2)(2^q - 1), the level of the outermost
    cell. The output alphabet has exactly 2^q levels per real dimension and
    is odd-symmetric. NaN stays NaN.

    Allocates the output and nothing else: the cell index
    k = floor(x/delta), clipped to -2^(q-1)..2^(q-1)-1, becomes the level
    (k + 1/2)*delta in place. That is one rounding of the exact level, bit
    for bit (delta/2)(2k + 1), so the outermost cells give the saturation
    levels exactly (delta*k + delta/2 rounds twice and can miss the top one
    by an ulp, a (2^q + 1)-th level).
    """
    out = np.array(x, dtype=float)
    _midrise_inplace(out, delta, q)
    return out


def _midrise_inplace(x: np.ndarray, delta: float, q: int) -> None:
    # midrise, overwriting the float array x with its levels.
    half = 2 ** (q - 1)
    x /= delta
    np.floor(x, out=x)
    np.clip(x, -half, half - 1, out=x)
    x += 0.5
    x *= delta


# The designed quantizer for q = 1..12, built once at import: the MSE-optimal
# step size delta for a unit-variance Gaussian input, its Bussgang gain
# gamma = E[Q(x) x] and distortion power E[Q(x)^2] - gamma^2. The design code
# (exact Gaussian cell integrals and a bounded search, on scipy) lives in
# tests/oracles.py, and the tests recompute every entry with it.
_DESIGNED = {
    q: QuantizerModel(q=q, delta=delta, gamma=gamma, dist_power=dist)
    for q, delta, gamma, dist in (
        (1, 1.5957691216057197, 0.636619772367577, 0.231335037798227),
        (2, 0.9956866832465869, 0.8811539485287245, 0.10472166643376368),
        (3, 0.5860194303128881, 0.9625603368859995, 0.036037931017433134),
        (4, 0.33520060552880343, 0.9884571139016854, 0.011409646211872015),
        (5, 0.18813878810875367, 0.9965047882593371, 0.003482994856393251),
        (6, 0.10406300180220655, 0.9989599537029747, 0.0010389637124916806),
        (7, 0.0568676647549176, 0.9996956666604536, 0.00030424015204233434),
        (8, 0.030762388531658195, 0.9999123138582848, 8.767849692425944e-05),
        (9, 0.016498965586041876, 0.9999750811625608, 2.491840869756068e-05),
        (10, 0.008785469047518231, 0.9999930030699075, 6.996956239846419e-06),
        (11, 0.004649842333125978, 0.9999980555917519, 1.9444093477538615e-06),
        (12, 0.002448404806738284, 0.9999994644276773, 5.355362494574578e-07),
    )
}


def design_quantizer(q: int) -> QuantizerModel:
    """Quantizer with the MSE-optimal step size and its Bussgang constants:
    the tabulated design for q = 1..12, one shared object per q."""
    if q not in _DESIGNED:
        raise ValueError(f"supported bit depths are 1..12, got {q}")
    return _DESIGNED[q]


def compute_agc(c_blocks: np.ndarray, transform: SpatialTransform) -> AgcGains:
    """Per-ADC gains omega_b = sqrt(2 / diag(F C_y F^H)_b).

    The diagonal of F C_y F^H depends only on the diagonal blocks of C_y,
    so ``c_blocks`` is the (C, S, S) stack of those blocks, one per
    cluster. For a reflector H = I - w v v^H with the transform's weight w
    and p = C v, the diagonal of H C H is, entrywise,

        C_ss - 2w Re(v_s conj(p_s)) + w^2 |v_s|^2 Re(v^H p),

    evaluated for all clusters at once. A passthrough cluster has v = 0 and
    w = 0, so for finite blocks its correction term is exactly zero and its
    gains come from C_ss alone. Diagonal entries are floored at a small
    fraction of the average power before inversion so numerically dead
    dimensions cannot produce infinite gains.
    """
    c_blocks = np.asarray(c_blocks, dtype=complex)
    s = transform.block_size
    if c_blocks.shape != (transform.clusters, s, s):
        raise ValueError(
            f"AGC needs a (C, S, S) = ({transform.clusters}, {s}, {s}) stack of "
            f"covariance blocks for this transform, got shape {c_blocks.shape}"
        )
    v, w = transform.vectors, transform._weights
    p = (c_blocks @ v[:, :, None])[:, :, 0]
    vhp = np.sum(v.conj() * p, axis=1).real
    diag = np.diagonal(c_blocks, axis1=1, axis2=2).real + (
        (w**2 * vhp)[:, None] * (v.real**2 + v.imag**2)
        - 2.0 * w[:, None] * (v * p.conj()).real
    )
    diag = diag.reshape(-1)
    floor = 1e-12 * diag.sum() / diag.size
    if floor <= 0.0:
        floor = np.finfo(float).tiny
    return AgcGains(np.sqrt(2.0 / np.maximum(diag, floor)))


def adc(y: np.ndarray, gains: AgcGains, quant: QuantizerModel) -> np.ndarray:
    """AGC scaling, then midrise quantization of both real dimensions, in
    place on ``y`` (as for ``apply_transform``), which it returns: ``y`` is
    scaled by ``omega`` and its interleaved float view quantized, bit for
    bit as ``midrise`` would.
    """
    _check_block(y)
    omega = gains.omega
    if y.shape[0] != omega.shape[0]:
        raise ValueError(
            f"input dimension {y.shape[0]} does not match gain count "
            f"{omega.shape[0]}"
        )
    y *= omega if y.ndim == 1 else omega[:, None]
    _midrise_inplace(y.view(float), quant.delta, quant.q)
    return y
