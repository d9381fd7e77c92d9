"""Analytic embedding gradients for every objective, with an FD verifier.

Each objective is linear in a set of per-entry weights. Its record's weight
rule (see `objectives`) writes dL/dS_ij, and dL/dD_ij or dL/dD^2_ij, for the
whole batch in one call, from the `batch.ClassPartition` the loss evaluation
built and the record's `whole` it computed: the pairwise rules from the
partition's same-class mask, the others class by class. This module pulls
each weight matrix back to the embeddings through the kernel chain rules in
`kernels`. Double sums keep their diagonal weights, which the pullbacks
discard, every kernel diagonal being constant.

Nonsmooth points are handled by fixed subgradient choices: the
facility-location max takes the lowest-index argmax, and a triplet hinge
sitting exactly at zero contributes zero. The checker excludes coordinates
that a record's kink rule marks (gap or hinge argument within
`objectives.TIE_GAP`) instead of pretending finite differences mean
something there; the kink rules read the evaluation's own matrices and
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, losses, objectives
# partition_from_labels stays importable here: perfbench/tracing.py wraps it in grads.
from .batch import EmbeddingBatch, partition_from_labels  # noqa: F401
from .errors import ValidationError
from .sampling import Rng
from .submodcheck import _check_tolerance

# grad_check's absolute floor: coordinates below ABS_FLOOR / tolerance are
# judged against it rather than against their own size.
ABS_FLOOR = 1e-7


def check_batch(n: int, dim: int, seed: int) -> EmbeddingBatch:
    """Random batch with round-robin labels, for gradient checks.

    The positive mean shift keeps cosine row sums above one, so the
    log-ratio objectives stay inside their domain on every draw.
    """
    rng = Rng(seed)
    classes = 3 if n >= 6 else 2
    vectors = 1.0 + 0.6 * rng.normals((n, dim))
    labels = np.arange(n, dtype=np.int64) % classes
    return EmbeddingBatch(vectors, labels)


@dataclass
class GradCheckReport:
    objective: str
    max_abs_error: float
    max_rel_error: float
    worst_coordinate: tuple[int, int]
    passed: bool
    excluded: int = 0


def _entry_weights(obj, s, d, classes, lam, eps, whole, workspace=None):
    """(dL/dS, dL/dD, dL/dD^2) as n x n matrices, or None where unused.

    classes is the batch's `ClassPartition`, and whole the record's
    `whole_value` of s. The weights are built in the workspace's "ws" and
    "wdist" buffers, and the same-class mask in its "mask", when given one.
    """
    ws = kernels.workspace_buffer(workspace, "ws", s.shape)
    wdist = (kernels.workspace_buffer(workspace, "wdist", s.shape)
             if obj.distance is not None else None)
    mask = kernels.workspace_buffer(workspace, "mask", s.shape, bool)
    obj.weights(ws, wdist, mask, s, d, classes, lam, eps, whole)
    return (ws, wdist, None) if obj.distance == "d" else (ws, None, wdist)


def evaluation_gradient(ev: losses.Evaluation,
                        workspace: kernels.Workspace | None = None) -> np.ndarray:
    """Analytic dL/dZ from the matrices and partition one evaluation used.

    The entry weights and pullbacks are built in `workspace` when given one;
    the evaluation's own matrices may live in it too.
    """
    config = ev.config
    ws, wd, wd2 = _entry_weights(objectives.get(config.objective), ev.s, ev.d,
                                 ev.classes, config.lam, config.margin, ev.whole,
                                 workspace)

    z = ev.batch.vectors
    grad = np.zeros_like(z)
    if np.any(ws):
        grad += kernels.similarity_pullback(z, ws, config.kernel, config.bandwidth,
                                            s=ev.s, workspace=workspace)
    if wd is not None:
        grad += kernels.distance_pullback(z, wd, ev.d, workspace)
    if wd2 is not None:
        grad += kernels.sqdist_pullback(z, wd2, workspace)
    return grad


def loss_gradient(batch: EmbeddingBatch, config: losses.LossConfig) -> np.ndarray:
    """Analytic dL/dZ under the config's objective and kernel, one row per
    embedding."""
    return evaluation_gradient(losses.evaluate(batch, config))


def finite_difference_gradient(batch: EmbeddingBatch, config: losses.LossConfig,
                               h: float = 1e-5) -> np.ndarray:
    """Central differences of the total loss, one coordinate at a time."""
    if not 0 < h < np.inf:
        raise ValidationError(f"finite-difference step h must be finite and > 0, got {h}")
    z = batch.vectors
    out = np.empty_like(z)
    work = z.copy()
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            orig = work[i, j]
            work[i, j] = orig + h
            up = losses.total_loss(
                EmbeddingBatch(work, batch.labels, batch.ids), config
            ).total
            work[i, j] = orig - h
            down = losses.total_loss(
                EmbeddingBatch(work, batch.labels, batch.ids), config
            ).total
            work[i, j] = orig
            out[i, j] = (up - down) / (2.0 * h)
    return out


def _excluded_rows(ev: losses.Evaluation) -> np.ndarray:
    """Rows too close to one of the objective's kinks for finite differences."""
    rows = np.zeros(ev.batch.n, dtype=bool)
    objectives.get(ev.config.objective).kinks(rows, ev.s, ev.d, ev.classes,
                                              ev.config.margin)
    return rows


def grad_check(batch: EmbeddingBatch, config: losses.LossConfig,
               h: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic and FD gradients coordinate by coordinate.

    A coordinate's relative error is |a - f| / max(|a|, |f|, ABS_FLOOR /
    tolerance), so tiny coordinates are judged against the absolute floor
    and the pass condition stays exactly max_rel_error <= tolerance, which
    must be finite and >= 0.
    """
    _check_tolerance(tolerance)
    ev = losses.evaluate(batch, config)
    analytic = evaluation_gradient(ev)
    fd = finite_difference_gradient(batch, config, h)

    rows = _excluded_rows(ev)
    keep = ~rows

    diff = np.abs(analytic - fd)
    # Tolerance zero demands exact agreement: the absolute floor drops out
    # and any nonzero difference scores infinite.
    floor = ABS_FLOOR / tolerance if tolerance > 0 else 0.0
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    if not np.any(keep):
        return GradCheckReport(config.objective, 0.0, 0.0, (0, 0), True,
                               excluded=batch.n * batch.dim)
    rel_kept = np.where(keep[:, None], rel, -np.inf)

    worst_flat = int(np.argmax(rel_kept))
    worst = (worst_flat // batch.dim, worst_flat % batch.dim)
    max_rel = float(rel_kept[worst])
    max_abs = float(np.max(np.where(keep[:, None], diff, 0.0)))
    return GradCheckReport(
        objective=config.objective,
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        worst_coordinate=worst,
        passed=bool(max_rel <= tolerance),
        excluded=int(np.sum(rows)) * batch.dim,
    )
