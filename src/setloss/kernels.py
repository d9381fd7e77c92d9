"""Pairwise similarity and distance kernels with analytic entry gradients.

All kernels map a batch of n embeddings (an EmbeddingBatch or an n x d
array) to a symmetric n x n numpy array:

    cosine         S_ij = <z_i, z_j> / (|z_i| |z_j|)        entries in [-1, 1]
    rbf            S_ij = exp(-|z_i - z_j|^2 / (2 bw^2))    entries in (0, 1]
    euclidean      D_ij = |z_i - z_j|                       entries >= 0
    neg-euclidean  S_ij = -D_ij                             similarity flavor of D

Properties enforced here rather than assumed downstream:
  * exact symmetry (matrices are averaged with their transpose once),
  * exact unit diagonal for cosine/rbf and zero diagonal for distances,
  * cosine entries clipped to [-1, 1] against roundoff,
  * cosine refuses embeddings with norm below 1e-12 (ZeroVector).

The *_pullback helpers implement the chain rule from per-entry loss weights
back to embeddings and are the only gradient route the loss module uses. They
take the forward matrix the loss was scored on rather than rebuilding it; the
single-entry kernel_gradient form exists for spot checks against finite
differences.
"""

from __future__ import annotations

import numpy as np

from .batch import EmbeddingBatch
from .errors import NonPositiveBandwidth, ValidationError, ZeroVector

NORM_FLOOR = 1e-12

SIMILARITY_KINDS = ("cosine", "rbf", "neg-euclidean")


def check_kind(kind: str) -> str:
    """`kind` if it names a kernel; else ValidationError listing the choices."""
    if kind not in SIMILARITY_KINDS:
        raise ValidationError(
            f"unknown kernel {kind!r}; choose from {', '.join(SIMILARITY_KINDS)}")
    return kind


def _vectors(batch) -> np.ndarray:
    if isinstance(batch, EmbeddingBatch):
        return batch.vectors
    return np.asarray(batch, dtype=np.float64)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def unit_rows(z: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; raises ZeroVector below the norm floor."""
    norms = np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(norms < NORM_FLOOR)
    if bad.size:
        raise ZeroVector(int(bad[0]))
    return z / norms[:, None]


def cosine_similarity(batch) -> np.ndarray:
    z = _vectors(batch)
    zh = unit_rows(z)
    s = _symmetrized(zh @ zh.T)
    np.clip(s, -1.0, 1.0, out=s)
    np.fill_diagonal(s, 1.0)
    return s


def squared_distances(z: np.ndarray) -> np.ndarray:
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = _symmetrized(d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def euclidean_distance(batch) -> np.ndarray:
    return np.sqrt(squared_distances(_vectors(batch)))


def _rbf_entries(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    s = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    np.fill_diagonal(s, 1.0)
    return s


def rbf_similarity(batch, bandwidth: float = 1.0) -> np.ndarray:
    if not (bandwidth > 0):
        raise NonPositiveBandwidth(bandwidth)
    return _rbf_entries(squared_distances(_vectors(batch)), bandwidth)


def similarity(batch, kind: str = "cosine", bandwidth: float = 1.0) -> np.ndarray:
    if kind == "cosine":
        return cosine_similarity(batch)
    if kind == "rbf":
        return rbf_similarity(batch, bandwidth)
    if kind == "neg-euclidean":
        return -euclidean_distance(batch)
    raise ValidationError(f"unknown kernel kind {kind!r}")


def similarity_and_distance(batch, kind: str = "cosine", bandwidth: float = 1.0):
    """(S, D), equal to `similarity` and `euclidean_distance` but with one
    squared-distance pass under rbf and neg-euclidean."""
    if kind == "rbf" and bandwidth > 0:
        d2 = squared_distances(_vectors(batch))
        return _rbf_entries(d2, bandwidth), np.sqrt(d2)
    if kind == "neg-euclidean":
        d = euclidean_distance(batch)
        return -d, d
    return similarity(batch, kind, bandwidth), euclidean_distance(batch)


def kernel_gradient(batch, kind: str, i: int, j: int, bandwidth: float = 1.0):
    """(dK_ij/dz_i, dK_ij/dz_j) for one matrix entry.

    Diagonal entries are constants for every kind, so i == j returns zeros.
    For "euclidean" at coincident points the derivative does not exist; the
    zero subgradient is returned.
    """
    z = _vectors(batch)
    d = z.shape[1]
    if i == j:
        return np.zeros(d), np.zeros(d)
    if kind == "cosine":
        ni = np.linalg.norm(z[i])
        nj = np.linalg.norm(z[j])
        if ni < NORM_FLOOR:
            raise ZeroVector(i)
        if nj < NORM_FLOOR:
            raise ZeroVector(j)
        zi, zj = z[i] / ni, z[j] / nj
        s = float(zi @ zj)
        return (zj - s * zi) / ni, (zi - s * zj) / nj
    if kind == "rbf":
        if not (bandwidth > 0):
            raise NonPositiveBandwidth(bandwidth)
        diff = z[i] - z[j]
        s = np.exp(-float(diff @ diff) / (2.0 * bandwidth * bandwidth))
        g = -s / (bandwidth * bandwidth) * diff
        return g, -g
    if kind in ("euclidean", "neg-euclidean"):
        diff = z[i] - z[j]
        dist = np.linalg.norm(diff)
        if dist < NORM_FLOOR:
            return np.zeros(d), np.zeros(d)
        g = diff / dist
        if kind == "neg-euclidean":
            g = -g
        return g, -g
    raise ValidationError(f"unknown kernel kind {kind!r}")


def _doubled(weights: np.ndarray) -> np.ndarray:
    # Fold both orientations of each entry weight; diagonal entries of every
    # kernel are constant in the embeddings, so they are zeroed.
    m = weights + weights.T
    np.fill_diagonal(m, 0.0)
    return m


def cosine_pullback(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij weights_ij * S_ij under the cosine kernel."""
    zh = unit_rows(z)
    s = zh @ zh.T
    m = _doubled(weights)
    proj = np.sum(m * s, axis=1)
    grad = m @ zh - proj[:, None] * zh
    return grad / np.linalg.norm(z, axis=1)[:, None]


def rbf_pullback(z: np.ndarray, weights: np.ndarray, s: np.ndarray,
                 bandwidth: float) -> np.ndarray:
    """dL/dZ for L = sum_ij weights_ij * S_ij, given the forward RBF matrix S."""
    m = _doubled(weights) * s / (bandwidth * bandwidth)
    # row i: sum_j m_ij (z_j - z_i)
    return m @ z - np.sum(m, axis=1)[:, None] * z


def sqdist_pullback(z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij weights_ij * D^2_ij."""
    m = _doubled(weights)
    # d(D^2_ij)/dz_i = 2 (z_i - z_j)
    return 2.0 * (np.sum(m, axis=1)[:, None] * z - m @ z)


def distance_pullback(z: np.ndarray, weights: np.ndarray, d: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij weights_ij * D_ij, given the forward distances D."""
    m = _doubled(weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(d > NORM_FLOOR, m / d, 0.0)
    return np.sum(m, axis=1)[:, None] * z - m @ z


def similarity_pullback(z: np.ndarray, weights: np.ndarray, kind: str,
                        bandwidth: float = 1.0, *, s: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij weights_ij * S_ij, given the forward matrix S of `kind`.

    Cosine works from the raw Gram matrix of unit rows instead: the forward
    S is clipped to [-1, 1], and the chain rule needs the unclipped entries.
    """
    if kind == "cosine":
        return cosine_pullback(z, weights)
    if kind == "rbf":
        return rbf_pullback(z, weights, s, bandwidth)
    if kind == "neg-euclidean":
        return distance_pullback(z, -np.asarray(weights), -s)
    raise ValidationError(f"unknown kernel kind {kind!r}")
