"""Synthetic mmWave uplink channels, near-far power control, and the
median-SNR noise model."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .harness import ExperimentConfig


# Entries per slice wherever a block is worked on piecewise (column_slices):
# the noise floats drawn at a time, the floats of apply_transform's rank-1
# update, the bits draw_trial draws, modulates and multiplies into the
# received block, and the bits detect equalizes and slices at a time.
SLICE_SIZE = 1 << 16


def column_slices(n: int, entries_per_column: int) -> list:
    """Consecutive slices of ``range(n)`` that cover all n columns, each as
    wide as the largest power of two at most ``SLICE_SIZE //
    entries_per_column`` (at least 1).

    A product over such a slice equals those columns of the whole product
    bit for bit: every slice starts at a multiple of the power-of-two width,
    so the BLAS kernels group its columns as in the whole product (a width
    of SLICE_SIZE // 24 = 2730 columns did not). A remainder of a single
    column joins the slice before it, because numpy takes a 1-column
    product by another BLAS routine (gemv) that can round differently.
    """
    width = 1 << (max(1, SLICE_SIZE // entries_per_column).bit_length() - 1)
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [n]
    return [slice(a, b) for a, b in zip(starts, ends)]


def add_noise(y: np.ndarray, n0: float, rng: np.random.Generator) -> None:
    """Add i.i.d. complex Gaussian noise of variance ``n0`` per entry to the
    C-contiguous complex array ``y`` in place.

    Adds scale * (a + 1j*b), scale = sqrt(n0/2), drawing all real parts a
    before all imaginary parts b, as two ``rng.standard_normal(y.shape)``
    calls would, one slice of ``column_slices(y.size, 1)`` at a time. A
    negative or NaN ``n0``, or a strided ``y``, raises ValueError.
    """
    # The negated test also rejects a NaN variance.
    if not n0 >= 0:
        raise ValueError(f"noise variance must be nonnegative, got {n0}")
    if not y.flags.c_contiguous:
        raise ValueError("noise target must be C-contiguous")
    scale = np.sqrt(n0 / 2.0)
    flat = y.reshape(-1)
    for part in (flat.real, flat.imag):
        for s in column_slices(flat.size, 1):
            # The fresh draws on the left: numpy then scales them in place.
            part[s] += rng.standard_normal(s.stop - s.start) * scale


def generate_channel(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a (B, U) geometric multipath channel matrix for the scenario
    fields of ``cfg`` (array, users and the four channel-model keys).

    Each column is a sum of ``cfg.paths`` ULA steering vectors with complex
    Gaussian path gains and log-normal shadowing. Path powers are normalized
    so that, conditional on unit shadowing, the expected column energy equals
    the antenna count B.
    """
    b, u, npaths = cfg.bs_antennas, cfg.ues, cfg.paths
    # Geometric per-path power profile, normalized to mean 1 so that the
    # 1/sqrt(L) combining below keeps E||g_u||^2 = B for unit shadowing.
    profile = 10.0 ** (-cfg.path_decay_db * np.arange(npaths) / 10.0)
    profile *= npaths / profile.sum()

    sector = np.deg2rad(cfg.angle_sector_deg)
    theta = rng.uniform(-sector, sector, size=(npaths, u))
    alpha = np.zeros((npaths, u), dtype=complex)
    add_noise(alpha, 1.0, rng)
    alpha *= np.sqrt(profile)[:, None]
    shadow_db = rng.normal(0.0, cfg.shadowing_std_db, size=u)
    beta = 10.0 ** (shadow_db / 10.0)

    # Half-wavelength ULA steering vectors, antenna index first: (B, paths, U).
    steer = np.exp(1j * np.pi * np.arange(b)[:, None, None] * np.sin(theta))
    g = (steer * alpha[None, :, :]).sum(axis=1) / np.sqrt(npaths)
    return g * np.sqrt(beta)[None, :]


def apply_power_control(
    g: np.ndarray, dr_limit_db: float, controlled: np.ndarray
) -> np.ndarray:
    """Min-rule power control gains for the given set of columns of g.

    With P_min the smallest receive power in the controlled set, each
    controlled user gets d^2 = min(1, 10^(limit/10) * P_min / ||g_u||^2), so
    post-control powers span at most ``dr_limit_db`` decibels. Returns the
    amplitude gains aligned with ``controlled``.
    """
    controlled = np.asarray(controlled, dtype=int)
    if controlled.size == 0:
        raise ValueError("power control requires a nonempty controlled set")
    powers = np.sum(np.abs(g[:, controlled]) ** 2, axis=0)
    if np.any(powers == 0.0):
        raise ValueError("power control undefined for a zero-norm channel column")
    p_min = powers.min()
    limit = 10.0 ** (dr_limit_db / 10.0)
    return np.sqrt(np.minimum(1.0, limit * p_min / powers))


def realize_channel(
    cfg: ExperimentConfig,
    rng: np.random.Generator,
    power_control_all: bool = False,
) -> np.ndarray:
    """Draw a channel and return the (B, U) power-controlled effective channel.

    Only the scenario fields of the sweep config ``cfg`` are read. The
    effective channel is ``g * diag(d)`` for the propagation channel ``g``
    and the power-control amplitudes ``d``. In the default (high dynamic
    range) mode, the user with the largest raw channel norm is boosted to
    ``cfg.rho_db`` above the weakest controlled user, while the remaining
    users obey the ``cfg.dr_limit_db`` control rule. With
    ``power_control_all`` every user is controlled and no boost is applied.
    Columns are sorted by descending effective norm, so the strongest user
    is always column 0.

    Every user the control rule clips ends up at the same receive power in
    exact arithmetic, so the sort breaks those ties by the last bits of the
    computed column norms. Those bits depend on the SIMD kernels numpy
    dispatches for the CPU, so the order among tied users, and with it
    which channel carries which data bits downstream, is reproducible on one
    machine but can differ between machines.
    """
    g = generate_channel(cfg, rng)
    u = cfg.ues
    gains = np.ones(u)
    if power_control_all:
        gains = apply_power_control(g, cfg.dr_limit_db, np.arange(u))
    else:
        col_powers = np.sum(np.abs(g) ** 2, axis=0)
        strong = int(np.argmax(col_powers))
        rest = np.delete(np.arange(u), strong)
        gains[rest] = apply_power_control(g, cfg.dr_limit_db, rest)
        weakest = float(np.min(gains[rest] ** 2 * col_powers[rest]))
        # The strong column's own 1-D sum, not col_powers[strong]: numpy
        # rounds the two reductions differently, and the strong column's last
        # bits, which the CSV bytes are computed from, follow this one. It is
        # positive: power control refuses a zero column among the rest, and
        # the strong column is the largest.
        p_strong = float(np.sum(np.abs(g[:, strong]) ** 2))
        gains[strong] = np.sqrt(10.0 ** (cfg.rho_db / 10.0) * weakest / p_strong)
    h = g * gains[None, :]
    order = np.argsort(-np.sum(np.abs(h) ** 2, axis=0), kind="stable")
    return h[:, order]


def noise_variance_from_msnr(h: np.ndarray, msnr_db: float) -> float:
    """Per-entry complex noise variance N0 (linear power) that hits the
    requested median receive SNR (dB).

    Defined as N0 = U * median(||h_u||^2) / (B * 10^(msnr/10)); for an even
    number of users the median averages the two central order statistics.
    """
    b, u = h.shape
    # np.median's arithmetic on sorted powers, without its NaN check, which
    # imports numpy.ma: a NaN sorts last and makes the median NaN.
    p = np.sort(np.sum(np.abs(h) ** 2, axis=0))
    mid = u // 2
    med = p[mid] if u % 2 else (p[mid - 1] + p[mid]) / 2.0
    if np.isnan(p[-1]):
        med = p[-1]
    return u * float(med) / (b * 10.0 ** (msnr_db / 10.0))


def observe(
    h: np.ndarray,
    s: np.ndarray,
    n0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Receive vector(s) h @ s + n with i.i.d. complex Gaussian noise of
    variance ``n0`` per entry; 0 means noiseless, and a negative or NaN
    ``n0`` raises ValueError.

    ``s`` may be a length-U symbol vector or a (U, n) block of symbol
    vectors; the noise is drawn per entry of the output. For a positive
    ``n0``, bit for bit h @ s + sqrt(n0/2) * (a + 1j*b), for a and b two
    ``rng.standard_normal`` draws of the output's shape in that order.
    """
    s = np.asarray(s)
    if s.shape[0] != h.shape[1]:
        raise ValueError(
            f"symbol dimension {s.shape[0]} does not match user count {h.shape[1]}"
        )
    y = np.asarray(h @ s, dtype=complex)
    add_noise(y, n0, rng)
    return y
