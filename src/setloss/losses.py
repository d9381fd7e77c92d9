"""Objective values over labeled batches.

Thirteen objectives share one evaluation path: build the kernel matrices,
check the batch's class partition against the objective's domain, evaluate
one term per class, and sum. The partition is the batch's own
`batch.ClassPartition`, built once with the batch, so `evaluate` builds
none; it builds the record's `whole` (its `whole_value` of S) once and
keeps it in the `Evaluation` the gradient and the gradient check's kink
rules read. No function below it rebuilds the partition or `whole`: the
domain check, the totals and the weight rules take them as required
arguments. fl's term keeps, from the one gather its max is taken from,
each outside row's argmax, and the `Evaluation` carries those picks to the
weight rule. The terms, and the domain each objective declares, live in
its `objectives` record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, objectives
from ._backend import backend
# partition_from_labels stays importable here: perfbench/tracing.py wraps it in losses.
from .batch import ClassPartition, EmbeddingBatch, partition_from_labels  # noqa: F401
from .errors import (
    DegenerateBatch,
    NonPositiveBandwidth,
    SingleClassBatch,
    ValidationError,
)


@dataclass
class LossConfig:
    """Hyperparameters shared by every objective.

    lam is the graph-cut / log-det regularization weight, margin the triplet
    margin eps, kernel one of cosine | rbf | neg-euclidean.
    """

    objective: str = "fl"
    lam: float = 1.0
    margin: float = 0.2
    kernel: str = "cosine"
    bandwidth: float = 1.0

    def __post_init__(self):
        obj = objectives.get(self.objective)
        kernels.check_kind(self.kernel)
        for key in ("lam", "margin", "bandwidth"):
            if not np.isfinite(getattr(self, key)):
                raise ValidationError(f"{key} must be finite, got {getattr(self, key)}")
        if self.kernel == "rbf" and not (self.bandwidth > 0):
            raise NonPositiveBandwidth(self.bandwidth)
        if self.margin < 0:
            raise ValidationError(f"margin must be >= 0, got {self.margin}")
        obj.check_lam(self.lam)


@dataclass
class LossResult:
    objective: str
    total: float
    per_class: np.ndarray


def matrices(batch: EmbeddingBatch, config: LossConfig,
             workspace: kernels.Workspace | None = None):
    """(similarity, distance) matrices for one batch under one config.

    D is built only for objectives that read it, from the same squared
    distances as S where the kernel uses them. Both are built in
    `workspace` when given one. batch may also be a (..., n, d) array, a
    stack of embeddings; the matrices are then (..., n, n) stacks.
    """
    if objectives.get(config.objective).distance is None:
        return kernels.similarity(batch, config.kernel, config.bandwidth,
                                  workspace), None
    return kernels.similarity_and_distance(batch, config.kernel, config.bandwidth,
                                           workspace)


def check_preconditions(config: LossConfig, classes: ClassPartition,
                        whole) -> None:
    """Raise DegenerateBatch for batches the objective cannot score.

    classes is the batch's partition, whole the record's `whole_value` of S.
    """
    obj = objectives.get(config.objective)
    if classes.num_classes < 2:
        if obj.single_class_ok:
            warnings.warn(
                f"{obj.name}: batch has a single class; cross-class terms are all zero",
                SingleClassBatch,
                stacklevel=4,
            )
            return
        raise DegenerateBatch(obj.name, "needs >= 2 classes")
    sizes = classes.sizes
    if sizes.min() < obj.min_class_size:
        raise DegenerateBatch(
            obj.name, f"every anchor needs a positive pair; class "
                      f"{int(sizes.argmin())} has {int(sizes.min())} sample"
        )
    if obj.positive_rowsum:
        bad = np.flatnonzero(whole <= 0)
        if bad.size:
            raise DegenerateBatch(
                obj.name,
                f"log argument sum_j S_ij - 1 = {whole[bad[0]]:.6g} <= 0 at row {int(bad[0])}",
            )


@dataclass
class Evaluation:
    """One scoring of a batch, with the matrices it used.

    The gradient is taken from these same S, D, `whole` (the record's
    `whole_value` of S) and `picks` (what a record's `picking_term` chose,
    per class: fl's first argmax of each complement row; None for the other
    records), and from the class partition `batch.classes` that the batch
    built with itself, so a training step builds its kernel, its partition,
    n-pairs' and supcon's row sums and fl's gathered blocks once. An S or
    D built in a workspace is valid until that workspace's next kernel
    build. A gradient taken from the evaluation with any workspace writes
    its entry weights over S and D, wherever they were built; a gradient
    taken without one writes over copies and leaves them intact
    (`grads`).
    """

    batch: EmbeddingBatch
    config: LossConfig
    s: np.ndarray
    d: np.ndarray | None
    whole: object
    picks: list | None
    result: LossResult


def evaluate(batch: EmbeddingBatch, config: LossConfig,
             workspace: kernels.Workspace | None = None) -> Evaluation:
    """Build S (and D if needed), check the domain on the batch's own
    partition, and score.

    With a workspace, S and D live in its buffers and are valid until its
    next kernel build; without one they are fresh arrays. Either way S and
    D are valid only until a gradient is taken from them with a workspace,
    which writes the entry weights over them (`Evaluation`).
    """
    s, d = matrices(batch, config, workspace)
    obj = objectives.get(config.objective)
    whole = obj.whole_value(s, config.lam)
    check_preconditions(config, batch.classes, whole)
    total, per, picks = backend.total_value(obj, s, d, batch.classes, config.lam,
                                            config.margin, whole)
    return Evaluation(batch, config, s, d, whole, picks,
                      LossResult(config.objective, total, per))


def total_loss(batch: EmbeddingBatch, config: LossConfig) -> LossResult:
    """L(theta) = sum_k L(theta, A_k) over the batch's class partition."""
    return evaluate(batch, config).result
