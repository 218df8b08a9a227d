"""Synthetic mmWave uplink channels, near-far power control, and the
median-SNR noise model."""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np


def _read_int(value) -> int:
    # int(text) refuses "3.7" and "3.0"; a number must be integral, not a bool.
    if isinstance(value, str):
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def _read_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _read_text(value) -> str:
    # str() would turn any object into text: argparse hands over an empty
    # list for the option value "--", which would name a file "[]".
    if not isinstance(value, str):
        raise ValueError(f"not text: {value!r}")
    return value


def _read_text_list(value) -> tuple:
    if isinstance(value, str):
        value = [m.strip() for m in value.split(",") if m.strip()]
    elif not isinstance(value, Sequence):
        raise ValueError(f"not a comma list or a sequence: {value!r}")
    return tuple(_read_text(m) for m in value)


# The reader for each declared field type. Text is read as a config file or
# a flag gives it, so every route to a field takes the same values.
_READERS = {
    int: _read_int,
    float: _read_float,
    str: _read_text,
    Optional[str]: lambda value: None if value is None else _read_text(value),
    tuple[str, ...]: _read_text_list,
}


# The resolved field annotations of a config class, read once per class.
_field_types = functools.cache(get_type_hints)


def check_field_types(cfg) -> None:
    """Read every field of a frozen config dataclass by the rule for its
    declared type and store the result; a float must also be finite. A bad
    value raises a ValueError that names the key."""
    for name, kind in _field_types(type(cfg)).items():
        value = getattr(cfg, name)
        try:
            value = _READERS[kind](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad value for key '{name}': {exc}") from exc
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(cfg, name, value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Uplink scenario: array/user geometry plus channel-model knobs.

    ``rho_db`` is the receive-power dynamic range (dB) between the strongest
    and weakest user; all other users are power-controlled to within
    ``dr_limit_db``. The geometric channel model draws ``paths`` propagation
    paths per user with angles uniform in ``+-angle_sector_deg``, per-path
    powers decaying by ``path_decay_db`` per path, and log-normal shadowing
    of ``shadowing_std_db`` (median 1).

    Each field is read by the rule for its declared type, alike for text
    from a file or flag and for Python values (``check_field_types``), then
    range-checked; a bad value raises a ValueError that names the key.
    """

    bs_antennas: int = 256
    ues: int = 32
    clusters: int = 32
    rho_db: float = 30.0
    dr_limit_db: float = 6.0
    paths: int = 5
    angle_sector_deg: float = 60.0
    path_decay_db: float = 5.0
    shadowing_std_db: float = 8.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.bs_antennas < 1 or self.ues < 2:
            raise ValueError("need bs_antennas >= 1 and ues >= 2")
        if self.bs_antennas < self.ues:
            raise ValueError(
                f"bs_antennas ({self.bs_antennas}) must be >= ues ({self.ues})"
            )
        if self.clusters < 1 or self.bs_antennas % self.clusters != 0:
            raise ValueError(
                f"bs_antennas ({self.bs_antennas}) must be divisible by "
                f"clusters ({self.clusters})"
            )
        if self.rho_db < self.dr_limit_db:
            raise ValueError(
                f"rho_db ({self.rho_db}) must be >= dr_limit_db "
                f"({self.dr_limit_db})"
            )
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.angle_sector_deg < 0 or self.path_decay_db < 0:
            raise ValueError("angle_sector_deg and path_decay_db must be >= 0")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be >= 0")

    @property
    def antennas_per_cluster(self) -> int:
        return self.bs_antennas // self.clusters


def steering_vector(theta_rad: float | np.ndarray, n: int) -> np.ndarray:
    """Half-wavelength ULA steering vectors [1, e^{j pi sin t}, ...].

    ``theta_rad`` is one angle or an array of angles; the result has shape
    ``(n,) + shape(theta_rad)``, antenna index first.
    """
    sin = np.sin(theta_rad)
    antenna = np.arange(n).reshape((n,) + (1,) * np.ndim(sin))
    return np.exp(1j * np.pi * antenna * sin)


def _add_complex_noise(
    rng: np.random.Generator, out: np.ndarray, variance: float
) -> None:
    # Adds scale * (a + 1j*b), scale = sqrt(variance/2), to the complex array
    # ``out`` in place. All real parts a are drawn before all imaginary parts
    # b, as two rng.standard_normal(out.shape) calls would draw them, into one
    # reused float buffer of half the size of ``out``. The negated test also
    # rejects a NaN variance.
    if not variance >= 0:
        raise ValueError(f"noise variance must be nonnegative, got {variance}")
    scale = np.sqrt(variance / 2.0)
    draws = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=draws)
        draws *= scale
        part += draws


def complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, given variance per entry.

    Allocates the complex result and one float buffer of half its size:
    the real parts are drawn first, then the imaginary parts, each scaled in
    place by sqrt(variance/2). For a positive variance the result is bit for
    bit ``scale * (rng.standard_normal(shape) + 1j*rng.standard_normal(shape))``,
    from the same draws of ``rng``. A negative or NaN variance raises
    ValueError.
    """
    out = np.zeros(shape, dtype=complex)
    _add_complex_noise(rng, out, variance)
    return out


def generate_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a (B, U) geometric multipath channel matrix.

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
    alpha = complex_noise(rng, (npaths, u), 1.0) * np.sqrt(profile)[:, None]
    shadow_db = rng.normal(0.0, cfg.shadowing_std_db, size=u)
    beta = 10.0 ** (shadow_db / 10.0)

    steer = steering_vector(theta, b)  # (B, paths, U)
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


def set_strong_ue_gain(
    g_strong: np.ndarray, weakest_power: float, rho_db: float
) -> float:
    """Gain that puts the strong user exactly ``rho_db`` above ``weakest_power``."""
    p_strong = float(np.sum(np.abs(g_strong) ** 2))
    if p_strong == 0.0:
        raise ValueError("strong user's channel column has zero norm")
    return float(np.sqrt(10.0 ** (rho_db / 10.0) * weakest_power / p_strong))


def realize_channel(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    power_control_all: bool = False,
) -> np.ndarray:
    """Draw a channel and return the (B, U) power-controlled effective channel.

    The effective channel is ``g * diag(d)`` for the propagation channel
    ``g`` and the power-control amplitudes ``d``. In the default (high
    dynamic range) mode, the user with the largest raw channel norm is
    boosted to ``cfg.rho_db`` above the weakest controlled user, while the
    remaining users obey the ``cfg.dr_limit_db`` control rule. With
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
        gains[strong] = set_strong_ue_gain(g[:, strong], weakest, cfg.rho_db)
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
    med = float(np.median(np.sum(np.abs(h) ** 2, axis=0)))
    return u * med / (b * 10.0 ** (msnr_db / 10.0))


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
    vectors; the noise is drawn per entry of the output. Allocates the
    product h @ s and one float buffer of half its size, in which the real
    and then the imaginary noise parts are drawn, scaled and added to the
    product in place. For a positive noise variance the result is bit for
    bit ``h @ s + complex_noise(rng, shape, n0)``, drawn in the same order.
    """
    s = np.asarray(s)
    if s.shape[0] != h.shape[1]:
        raise ValueError(
            f"symbol dimension {s.shape[0]} does not match user count {h.shape[1]}"
        )
    y = np.asarray(h @ s, dtype=complex)
    _add_complex_noise(rng, y, n0)
    return y
