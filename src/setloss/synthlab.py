"""Synthetic cluster datasets and the loss-versus-separation sweep.

Two generators. The K-sweep builds four 2-D Gaussian clusters whose
centroids sit at (+-1, +-1) scaled by a fixed schedule of K in 0..7:

    scale(K) = 1 - K/5          K <= 4   (separation shrinks to 0.4)
    scale(K) = -(K - 4)/3       K >= 5   (reflected, separation regrows)

so pairwise centroid distance decreases strictly along K = 0..4 and
increases strictly along 4..7. The cluster noise is drawn once per seed,
independent of K: sweeping K moves only the centroids, so loss differences
across K reflect geometry, not resampling.

The imbalance generator places C Gaussian clusters on scaled coordinate
axes (pairwise-equidistant, so no class is geometrically privileged) and
assigns per-class counts by either schedule:

    longtail  count_k = round(base * decay^(k / (C-1)))
    step      first ceil(C/2) classes get base, the rest base/ratio

Rounding is banker's, matching the worked longtail example
(600, 278, 129, 60) for base 600, decay 1/10, C = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, losses, objectives
from .batch import EmbeddingBatch
from .errors import BadK, EmptyClass, ValidationError, check_count, check_real, is_integer
from .sampling import Rng

K_RANGE = range(8)


def sample_clusters(centroids: np.ndarray, spread: float, counts, seed: int
                    ) -> EmbeddingBatch:
    """Draw the mixture: counts[k] rows of centroids[k] + spread * N(0, I),
    one integer count >= 0 per centroid."""
    check_real("spread", spread, above=0)
    for k, count in enumerate(counts):
        check_count(f"counts[{k}]", count)
    if len(counts) != len(centroids):
        raise ValidationError(f"need one count per centroid ({len(centroids)}), "
                              f"got {tuple(counts)}")
    noise = Rng(seed).normals((sum(counts), centroids.shape[1]))
    vectors = np.repeat(centroids, counts, axis=0) + spread * noise
    return EmbeddingBatch(vectors, np.repeat(np.arange(len(counts)), counts))


def k_scale(k: int) -> float:
    if not is_integer(k) or k not in K_RANGE:
        raise BadK(k)
    if k <= 4:
        return 1.0 - k / 5.0
    return -(k - 4) / 3.0


_CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def make_k_dataset(k: int, points_per_cluster: int = 100,
                   spread: float = 0.3, seed: int = 0) -> EmbeddingBatch:
    """Four 2-D clusters at the corner schedule for this K."""
    centroids = _CORNERS * k_scale(k)
    check_count("points_per_cluster", points_per_cluster, 1)
    return sample_clusters(centroids, spread, (points_per_cluster,) * 4, seed)


def _longtail_counts(c: int, base: int, decay: float) -> tuple[int, ...]:
    check_real("decay", decay, above=0, at_most=1)
    counts = tuple(int(round(base * decay ** (k / (c - 1)))) for k in range(c)) \
        if c > 1 else (base,)
    return counts


def _step_counts(c: int, base: int, ratio: float) -> tuple[int, ...]:
    check_real("ratio", ratio, at_least=1)
    head = (c + 1) // 2
    low = int(round(base / ratio))
    return (base,) * head + (low,) * (c - head)


def make_imbalanced_dataset(kind: str, c: int, d: int, base_count: int,
                            decay_or_ratio: float, spread: float, seed: int,
                            separation: float | None = None) -> EmbeddingBatch:
    """Gaussian classes with longtail or step counts.

    Centroids sit at separation/sqrt(2) along distinct coordinate axes, so
    every centroid pair is exactly `separation` apart (needs C <= d).
    Separation defaults to four spreads.
    """
    check_count("c", c, 1)
    check_count("d", d)
    check_count("base_count", base_count, c)
    if c > d:
        raise ValidationError(
            f"axis-aligned centroids need C <= d, got C={c}, d={d}"
        )
    if kind == "longtail":
        counts = _longtail_counts(c, base_count, decay_or_ratio)
    elif kind == "step":
        counts = _step_counts(c, base_count, decay_or_ratio)
    else:
        raise ValidationError(f"kind must be 'longtail' or 'step', got {kind!r}")
    for label, count in enumerate(counts):
        if count < 1:
            raise EmptyClass(label, count)

    check_real("spread", spread, above=0)
    if separation is None:
        separation = 4.0 * spread
    else:
        check_real("separation", separation)
    centroids = np.zeros((c, d))
    centroids[np.arange(c), np.arange(c)] = separation / math.sqrt(2.0)
    return sample_clusters(centroids, spread, counts, seed)


@dataclass
class SweepResult:
    """Loss values over the (K, objective, kernel) grid, in grid order."""

    rows: list

    def write_csv(self, fh) -> None:
        fh.write(SWEEP_HEADER + "\n")
        for k, name, kind, value in self.rows:
            fh.write(f"{k},{name},{kind},{value!r}\n")

    def value(self, k: int, name: str, kind: str) -> float:
        for row in self.rows:
            if row[:3] == (k, name, kind):
                return row[3]
        raise KeyError((k, name, kind))


SWEEP_HEADER = "k,objective,kernel,loss"


def k_sweep(names, kinds, ks, points_per_cluster: int = 100,
            spread: float = 0.3, seed: int = 0, lam: float = 1.0,
            margin: float = 0.2, bandwidth: float = 1.0) -> SweepResult:
    """Evaluate each objective/kernel on each K's dataset.

    Rows come out sorted by (K, objective order, kernel order) regardless
    of argument order, so repeated sweeps serialize identically. Unknown
    objective or kernel names raise ValidationError, and a K outside
    `K_RANGE` BadK, before any work.
    """
    names = sorted({objectives.get(n).name for n in names},
                   key=objectives.OBJECTIVES.index)
    kinds = sorted({kernels.check_kind(k) for k in kinds},
                   key=kernels.SIMILARITY_KINDS.index)
    for k in ks:
        k_scale(k)
    rows = []
    for k in sorted({int(k) for k in ks}):
        batch = make_k_dataset(k, points_per_cluster, spread, seed)
        for name in names:
            for kind in kinds:
                cfg = losses.LossConfig(name, lam, margin, kind, bandwidth)
                rows.append((k, name, kind, losses.total_loss(batch, cfg).total))
    return SweepResult(rows)
