"""Pilot-based training: orthogonal pilots, the training block (the
pilots sent through ``channel.observe``, which ``simulate_training``
names), least-squares channel estimation, per-cluster covariance blocks,
and strongest-user identification."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import observe
from .frontend import split_clusters


@dataclass(frozen=True, eq=False)
class TrainingOutput:
    """Everything the receiver learns from one training phase.

    ``c_y_blocks`` holds only the C diagonal S x S blocks of the training
    block's sample covariance, the part the transform design and AGC read.
    """

    h_hat: np.ndarray  # (B, U) least-squares channel estimate
    c_y_blocks: np.ndarray  # (C, S, S) per-cluster sample covariance blocks
    strong_index: int  # estimated strongest-user column


@functools.lru_cache(maxsize=None)
def generate_pilots(u: int) -> np.ndarray:
    """Pilot block for u users: the first u rows of a Sylvester Hadamard
    matrix of order K, the shortest power of two >= u, built by doubling
    H <- [[H, H], [H, -H]] from H = [1].

    Entries are +-1 and the rows are orthogonal, S S^T = K I. Cached, so
    the block is built once per u and returned read-only.
    """
    if u < 1:
        raise ValueError(f"pilots need at least one user, got u = {u}")
    full = np.ones((1, 1))
    for _ in range((u - 1).bit_length()):
        full = np.block([[full, full], [full, -full]])
    full.flags.writeable = False
    return full[:u, :]


# The training block H @ S_T + N_T is the (B, K) block that ``observe``
# receives for the (U, K) pilot block, with no quantizer in its path.
simulate_training = observe


def ls_channel_estimate(y_train: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Least-squares estimate Y_T S_T^H / K for orthogonal pilots.

    The (U, K) pilot block must meet S_T S_T^H = K I exactly with K >= 1, as
    +-1 Hadamard rows do; then the general estimate Y_T S_T^H (S_T S_T^H)^{-1}
    needs no solve. Any other pilot block, an empty one too, raises ValueError.
    """
    pilots = np.asarray(pilots)
    if pilots.ndim != 2 or pilots.shape[1] < 1 or not np.array_equal(
        pilots @ pilots.conj().T, pilots.shape[1] * np.eye(len(pilots))
    ):
        raise ValueError(
            f"pilots of shape {pilots.shape} are not orthogonal rows of "
            "squared norm K >= 1 (S S^H = K I)"
        )
    return (y_train @ pilots.conj().T) / pilots.shape[1]


def sample_covariance(y_train: np.ndarray) -> np.ndarray:
    """Full B x B sample covariance (1/K) Y_T Y_T^H of the training block.

    The definition that ``covariance_blocks`` computes the diagonal blocks
    of; trials only need those blocks and never build this matrix.
    """
    y_train = np.asarray(y_train, dtype=complex)
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
    y_c = split_clusters(np.asarray(y_train, dtype=complex), clusters)
    k = y_c.shape[2]
    if k < 1:
        raise ValueError("sample covariance needs at least one snapshot")
    return (y_c @ y_c.conj().transpose(0, 2, 1)) / k


def estimate_from_training(
    y_train: np.ndarray, pilots: np.ndarray, clusters: int
) -> TrainingOutput:
    """LS estimate, per-cluster covariance blocks, and strongest-user pick:
    the column of the estimate with the largest norm, ties going to the
    lowest index."""
    h_hat = ls_channel_estimate(y_train, pilots)
    return TrainingOutput(
        h_hat=h_hat,
        c_y_blocks=covariance_blocks(y_train, clusters),
        strong_index=int(np.argmax(np.sum(np.abs(h_hat) ** 2, axis=0))),
    )
