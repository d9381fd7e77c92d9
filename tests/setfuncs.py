"""Textbook set functions over similarity kernels: the tests' oracle.

Three function families, each mapping a subset A of the ground set V to a
real score under a fixed similarity matrix S:

    facility-location   f(A) = sum_{i in V} max_{j in A} S_ij,  f(empty) = 0
    graph-cut           f(A) = sum_{i in A, j in V \\ A} S_ij
    log-det             f(A) = log det(S_A + lam I)

These are the textbook forms. The per-class objective terms in `losses`
differ where the training formulas differ (the facility-location loss sums
over V \\ A only, and graph-cut terms place lam per variant); both views
exist on purpose: the submodularity checker exercises the loss forms, and
the tests pin those forms against these.

Two combinators aggregate a function over a class partition: the summed
within-class score sum_k f(A_k), and that sum minus f(V), which trades
within-class structure against whole-batch redundancy and vanishes when f
is modular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from setloss.batch import ClassPartition
from setloss.errors import EmptyGroundSet, NotPositiveDefinite, ValidationError

SET_FUNCTION_KINDS = ("facility-location", "graph-cut", "log-det")


@dataclass(frozen=True)
class SetFunctionKind:
    """A function family plus its weight lam.

    lam is the graph-cut within-set weight (must be >= 1 to keep the cut
    form submodular) and the log-det diagonal regularizer (must be > 0 so
    the factorization exists for any PSD kernel).
    """

    kind: str = "facility-location"
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in SET_FUNCTION_KINDS:
            raise ValidationError(
                f"unknown set function {self.kind!r}; choose from "
                + ", ".join(SET_FUNCTION_KINDS)
            )
        if self.kind == "graph-cut" and self.lam < 1.0:
            raise ValidationError(
                f"graph-cut needs lam >= 1 for submodularity, got {self.lam}"
            )
        if self.kind == "log-det" and not (self.lam > 0):
            raise ValidationError(f"log-det needs lam > 0, got {self.lam}")


def _matrix(s) -> np.ndarray:
    m = np.asarray(s, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got {m.shape}")
    if m.shape[0] == 0:
        raise EmptyGroundSet()
    return m


def logdet_psd(m: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"matrix of order {m.shape[0]} has no Cholesky factor"
        ) from None
    return float(2.0 * np.sum(np.log(np.diagonal(chol))))


def eval_set_function(kind: SetFunctionKind, s, a) -> float:
    """f(A) for an index subset A of the ground set behind s."""
    m = _matrix(s)
    n = m.shape[0]
    members = np.asarray(sorted(set(int(i) for i in a)), dtype=np.intp)
    if members.size and (members[0] < 0 or members[-1] >= n):
        raise ValidationError(f"subset indices must lie in [0, {n})")

    if kind.kind == "facility-location":
        if members.size == 0:
            return 0.0
        return float(np.sum(np.max(m[:, members], axis=1)))

    if kind.kind == "graph-cut":
        if members.size == 0 or members.size == n:
            return 0.0
        outside = np.setdiff1d(np.arange(n), members, assume_unique=True)
        return float(np.sum(m[np.ix_(members, outside)]))

    if members.size == 0:
        return 0.0
    block = m[np.ix_(members, members)] + kind.lam * np.eye(members.size)
    return logdet_psd(block)


def total_information(kind: SetFunctionKind, s, partition: ClassPartition) -> float:
    """sum_k f(A_k) over the partition's classes."""
    return float(sum(eval_set_function(kind, s, a) for a in partition.sets))


def total_correlation(kind: SetFunctionKind, s, partition: ClassPartition) -> float:
    """sum_k f(A_k) - f(V): nonnegative whenever f is submodular."""
    m = _matrix(s)
    everything = range(m.shape[0])
    return total_information(kind, m, partition) - eval_set_function(kind, m, everything)
