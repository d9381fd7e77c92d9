"""Objective values over labeled batches.

Thirteen objectives share one evaluation path: build the kernel matrices,
split the batch into its class partition, evaluate one term per class, and
sum. Per-class terms, written for class A (complement O = V \\ A, |V| = n,
similarity S, squared distance D^2, margin eps, weight lam):

    triplet         sum_{i,p in A, i!=p} sum_{n in O} max(0, D^2_ip - D^2_in + eps)
    n-pairs         -[ sum_{i,j in A} S_ij + sum_{i in A} log(sum_{j in V} S_ij - 1) ]
    opl             (1 - sum_{i,j in A} S_ij) + sum_{i in A, j in O} S_ij
    snn             -sum_{i in A} [ log sum_{j in A\\{i}} e^{S_ij} - log sum_{j in O} e^{S_ij} ]
    supcon          -(1/|A|) sum_{i,j in A} S_ij + sum_{i in A} log(sum_{j in V} S_ij - 1)
    submod-triplet  sum_{i in A, n in O} S^2_in - sum_{i,p in A} S^2_ip
    submod-snn      sum_{i in A} [ log sum_{j in A\\{i}} e^{D_ij} + log sum_{j in O} e^{S_ij} ]
    submod-supcon   -sum_{i,j in A} S_ij + sum_{i in A} log sum_{j in O} e^{S_ij}
    gc-sf           sum_{i in A, j in O} S_ij - lam * sum_{i,j in A} S_ij
    gc-cf           lam * sum_{i in A, j in O} S_ij
    logdet-sf       log det(S_A + lam I)
    logdet-cf       log det(S_A + lam I) - log det(S_V + lam I)
    fl              sum_{i in O} max_{j in A} S_ij        (+ n for the "sf" variant)

Double sums over a class run over all ordered pairs including i = j; the
"- 1" inside the n-pairs and supcon logarithms is a literal scalar; snn-style
inner sums exclude the anchor itself. There is no temperature parameter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels, objectives
from ._backend import backend
from .batch import EmbeddingBatch, partition_from_labels
from .errors import (
    DegenerateBatch,
    LambdaBelowOne,
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
        if self.objective not in objectives.OBJ_CODE:
            raise ValidationError(
                f"unknown objective {self.objective!r}; "
                f"choose from {', '.join(objectives.OBJECTIVES)}"
            )
        if self.kernel not in kernels.SIMILARITY_KINDS:
            raise ValidationError(
                f"unknown kernel {self.kernel!r}; choose from "
                + ", ".join(kernels.SIMILARITY_KINDS)
            )
        if self.kernel == "rbf" and not (self.bandwidth > 0):
            raise NonPositiveBandwidth(self.bandwidth)
        if self.margin < 0:
            raise ValidationError(f"margin must be >= 0, got {self.margin}")
        if self.objective in objectives.GC_OBJECTIVES and self.lam < 1.0:
            raise LambdaBelowOne(self.lam)
        if self.objective in objectives.LOGDET_OBJECTIVES and not (self.lam > 0):
            raise ValidationError(
                f"log-det objectives need lam > 0, got {self.lam}"
            )


@dataclass
class LossResult:
    objective: str
    total: float
    per_class: np.ndarray
    config: LossConfig = field(repr=False, default=None)


def matrices(batch: EmbeddingBatch, config: LossConfig):
    """(similarity, distance) matrices for one batch under one config."""
    s = kernels.similarity(batch, config.kernel, config.bandwidth).entries
    need_d = config.objective in objectives.NEEDS_DISTANCE
    d = kernels.euclidean_distance(batch).entries if need_d else None
    return s, d


def check_preconditions(batch: EmbeddingBatch, config: LossConfig, s: np.ndarray) -> None:
    """Raise DegenerateBatch for batches the objective cannot score."""
    obj = config.objective
    c = batch.num_classes
    if c < 2:
        if obj in objectives.SINGLE_CLASS_OK:
            warnings.warn(
                f"{obj}: batch has a single class; cross-class terms are all zero",
                SingleClassBatch,
                stacklevel=4,
            )
            return
        raise DegenerateBatch(obj, "needs >= 2 classes")
    if obj == "triplet":
        sizes = np.bincount(batch.labels)
        if sizes.min() < 2:
            raise DegenerateBatch(
                obj, f"every anchor needs a positive pair; class {int(sizes.argmin())} "
                     f"has {int(sizes.min())} sample"
            )
    if obj in objectives.NEEDS_POSITIVE_ROWSUM:
        row = np.sum(s, axis=1) - 1.0
        bad = np.flatnonzero(row <= 0)
        if bad.size:
            raise DegenerateBatch(
                obj,
                f"log argument sum_j S_ij - 1 = {row[bad[0]]:.6g} <= 0 at row {int(bad[0])}",
            )


@dataclass
class Evaluation:
    """One scoring of a batch, with the matrices and partition it used.

    The gradient is taken from these same S, D and class sets, so a
    training step builds its kernel once.
    """

    batch: EmbeddingBatch
    config: LossConfig
    s: np.ndarray
    d: np.ndarray | None
    sets: list
    result: LossResult


def evaluate(batch: EmbeddingBatch, config: LossConfig) -> Evaluation:
    """Build S (and D if needed), check the domain, partition, and score."""
    s, d = matrices(batch, config)
    check_preconditions(batch, config, s)
    sets = list(partition_from_labels(batch.labels))
    code = objectives.OBJ_CODE[config.objective]
    total, per = backend.total_value(code, s, d, sets, config.lam, config.margin)
    return Evaluation(batch, config, s, d, sets,
                      LossResult(config.objective, total, per, config))


def total_loss(batch: EmbeddingBatch, config: LossConfig) -> LossResult:
    """L(theta) = sum_k L(theta, A_k) over the batch's class partition."""
    return evaluate(batch, config).result


def _variant_config(config: LossConfig, objective: str) -> LossConfig:
    return LossConfig(objective, config.lam, config.margin, config.kernel, config.bandwidth)


def loss_fl(batch: EmbeddingBatch, config: LossConfig, variant: str = "cf") -> LossResult:
    """Facility-location loss; the "sf" variant adds |V| to every class term."""
    res = total_loss(batch, _variant_config(config, "fl"))
    if variant == "sf":
        per = res.per_class + batch.n
        return LossResult("fl", float(per.sum()), per, res.config)
    if variant != "cf":
        raise ValidationError(f"fl variant must be 'sf' or 'cf', got {variant!r}")
    return res

def loss_gc(batch: EmbeddingBatch, config: LossConfig, variant: str = "sf") -> LossResult:
    if variant not in ("sf", "cf"):
        raise ValidationError(f"gc variant must be 'sf' or 'cf', got {variant!r}")
    return total_loss(batch, _variant_config(config, f"gc-{variant}"))


def loss_logdet(batch: EmbeddingBatch, config: LossConfig, variant: str = "sf") -> LossResult:
    if variant not in ("sf", "cf"):
        raise ValidationError(f"logdet variant must be 'sf' or 'cf', got {variant!r}")
    return total_loss(batch, _variant_config(config, f"logdet-{variant}"))


def loss_baseline(batch: EmbeddingBatch, config: LossConfig) -> LossResult:
    if config.objective not in ("triplet", "n-pairs", "opl", "snn", "supcon"):
        raise ValidationError(f"{config.objective!r} is not a baseline objective")
    return total_loss(batch, config)
