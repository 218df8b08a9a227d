"""Pilot-based training: orthogonal pilots, least-squares channel
estimation, per-cluster covariance blocks, and strongest-user
identification."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import observe
from .linalg import hadamard, posdef_inverse_apply


@dataclass(frozen=True)
class TrainingOutput:
    """Everything the receiver learns from one training phase.

    ``c_y_blocks`` holds only the C diagonal S x S blocks of the training
    block's sample covariance, the part the transform design and AGC read.
    """

    h_hat: np.ndarray  # (B, U) least-squares channel estimate
    c_y_blocks: np.ndarray  # (C, S, S) per-cluster sample covariance blocks
    strong_index: int  # estimated strongest-user column


@functools.lru_cache(maxsize=None)
def generate_pilots(u: int, k: int) -> np.ndarray:
    """First u rows of an order-k Hadamard matrix; entries +-1, orthogonal rows.

    Cached, so the block is built once per (u, k) and returned read-only.
    """
    if k < u:
        raise ValueError(f"pilot length k ({k}) must be >= user count u ({u})")
    full = hadamard(k)
    full.flags.writeable = False
    return full[:u, :]


def simulate_training(
    h: np.ndarray,
    pilots: np.ndarray,
    n0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The training block H @ S_T + N_T, with no quantizer in its path.

    The (B, K) block that ``observe`` receives for the (U, K) pilot block
    with noise variance ``n0`` per entry, bit for bit
    ``h @ pilots + complex_noise(rng, (B, K), n0)`` from the same draws of
    ``rng``. A pilot block whose row count is not U, or a negative or NaN
    ``n0``, raises ValueError.
    """
    return observe(h, pilots, n0, rng)


def ls_channel_estimate(y_train: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Least-squares estimate Y_T S_T^H (S_T S_T^H)^{-1}.

    With orthogonal pilots this equals (1/K) Y_T S_T^H; the general solve is
    used so any full-row-rank pilot matrix works. Rank-deficient pilots make
    the Gram factorization fail.
    """
    pilots = np.asarray(pilots, dtype=complex)
    gram = pilots @ pilots.conj().T
    proj = y_train @ pilots.conj().T
    return posdef_inverse_apply(gram, proj.conj().T).conj().T


def sample_covariance(y_train: np.ndarray, k: int | None = None) -> np.ndarray:
    """Full B x B sample covariance (1/K) Y_T Y_T^H of the training block.

    The definition that ``covariance_blocks`` computes the diagonal blocks
    of; trials only need those blocks and never build this matrix.
    """
    y_train = np.asarray(y_train, dtype=complex)
    if k is None:
        k = y_train.shape[1]
    if k < 1:
        raise ValueError("sample covariance needs at least one snapshot")
    return (y_train @ y_train.conj().T) / k


def covariance_blocks(y_train: np.ndarray, clusters: int) -> np.ndarray:
    """Diagonal S x S blocks (1/K) Y_c Y_c^H of the sample covariance.

    Y_c is the length-S slice of the training block seen by cluster c. The
    (C, S, S) stack equals the diagonal blocks of ``sample_covariance`` at
    B S K work instead of B^2 K.
    """
    y_train = np.asarray(y_train, dtype=complex)
    b, k = y_train.shape
    if clusters < 1 or b % clusters != 0:
        raise ValueError(f"dimension {b} not divisible by {clusters} clusters")
    if k < 1:
        raise ValueError("sample covariance needs at least one snapshot")
    y_c = y_train.reshape(clusters, b // clusters, k)
    return (y_c @ y_c.conj().transpose(0, 2, 1)) / k


def strongest_ue_index(h_hat: np.ndarray) -> int:
    """Column with the largest estimated norm; ties go to the lowest index."""
    return int(np.argmax(np.sum(np.abs(h_hat) ** 2, axis=0)))


def estimate_from_training(
    y_train: np.ndarray, pilots: np.ndarray, clusters: int
) -> TrainingOutput:
    """LS estimate, per-cluster covariance blocks, and strongest-user pick."""
    h_hat = ls_channel_estimate(y_train, pilots)
    return TrainingOutput(
        h_hat=h_hat,
        c_y_blocks=covariance_blocks(y_train, clusters),
        strong_index=strongest_ue_index(h_hat),
    )
