"""Labeled embedding batches and their class partitions.

A batch is the ground set V: n embeddings in R^d with integer class labels.
Labels must cover 0..C-1 with every class nonempty, so a label array always
induces a valid partition of V. `ClassPartition` is the one form of that
partition the package passes around: the class sets A_k, which the loss
terms sum over, with the labels, sizes, same-class mask and complements the
gradient's weight rules read. The CSV layout is one row per embedding with
header ``id,label,f0,...,f{d-1}``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGroundSet, ParseError, ValidationError


@dataclass
class EmbeddingBatch:
    """Ground set of labeled embeddings.

    vectors : (n, d) float64
    labels  : (n,) int64, values covering 0..C-1 with no empty class
    ids     : n opaque sample identifiers (row order)
    """

    vectors: np.ndarray
    labels: np.ndarray
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ValidationError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        n, d = self.vectors.shape
        if n == 0:
            raise EmptyGroundSet()
        if d == 0:
            raise ValidationError("embedding dimension must be >= 1")
        if self.labels.shape != (n,):
            raise ValidationError(
                f"labels shape {self.labels.shape} does not match {n} embeddings"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("vectors contain non-finite values")
        if self.labels.min() < 0:
            raise ValidationError("labels must be nonnegative")
        gap = _first_empty_class(self.labels)
        if gap is not None:
            raise ValidationError(
                f"labels must cover 0..{self.labels.max()} contiguously; "
                f"class {gap} is empty"
            )
        if not self.ids:
            self.ids = [str(i) for i in range(n)]
        elif len(self.ids) != n:
            raise ValidationError(f"{len(self.ids)} ids for {n} embeddings")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def partition(self) -> ClassPartition:
        return partition_from_labels(self.labels)


@dataclass
class ClassPartition:
    """Disjoint nonempty index sets A_1..A_C whose union is range(n).

    sets[k] lists class k's rows; labels[i] is row i's class and sizes[k]
    class k's size.
    """

    sets: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.sets = tuple(np.asarray(a, dtype=np.int64) for a in self.sets)
        if not self.sets:
            raise ValidationError("partition needs at least one class")
        for k, a in enumerate(self.sets):
            if a.size == 0:
                raise ValidationError(f"class {k} is empty")
        seen = np.concatenate(self.sets)
        n = seen.size
        if np.unique(seen).size != n or seen.min() != 0 or seen.max() != n - 1:
            raise ValidationError("class sets must partition range(n) disjointly")
        self.sizes = np.array([a.size for a in self.sets])
        self.labels = np.empty(n, dtype=np.int64)
        self.labels[seen] = np.repeat(np.arange(len(self.sets)), self.sizes)

    @property
    def num_classes(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def same_class(self, out: np.ndarray | None = None) -> np.ndarray:
        """The n x n bool mask of row pairs that share a class, written into
        `out` (and returned) when given one."""
        # Row i of the mask is its class's row of the small class-by-row table.
        rows = np.arange(len(self.sets))[:, None] == self.labels
        return np.take(rows, self.labels, axis=0, out=out, mode="clip")

    def with_complements(self):
        """(A, O) for each class in order, O = V \\ A in ascending order."""
        for k, a in enumerate(self.sets):
            yield a, np.flatnonzero(self.labels != k)


def _first_empty_class(labels: np.ndarray) -> int | None:
    """The lowest class in 0..max(labels) that no label names, if any."""
    gaps = np.flatnonzero(np.bincount(labels) == 0)
    return int(gaps[0]) if gaps.size else None


def partition_from_labels(labels: np.ndarray) -> ClassPartition:
    labels = np.asarray(labels, dtype=np.int64)
    c = int(labels.max()) + 1
    return ClassPartition(tuple(np.flatnonzero(labels == k) for k in range(c)))


def read_embedding_file(path) -> EmbeddingBatch:
    """Parse an ``id,label,f0,...`` CSV into a batch.

    Raises ParseError with the 1-based line number of the first bad record.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise ParseError(path, 1, "header must be id,label,f0,...")
        want = ["f%d" % i for i in range(len(header) - 2)]
        if header[2:] != want:
            raise ParseError(path, 1, "feature columns must be f0..f%d" % (len(header) - 3))
        d = len(header) - 2
        ids, labels, rows, lines = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            lines.append(lineno)
            if len(row) != d + 2:
                raise ParseError(path, lineno, f"expected {d + 2} fields, got {len(row)}")
            ids.append(row[0])
            try:
                label = int(row[1])
            except ValueError:
                raise ParseError(path, lineno, f"label {row[1]!r} is not an integer") from None
            if label < 0:
                raise ParseError(path, lineno, f"label {label} is negative")
            labels.append(label)
            try:
                values = [float(x) for x in row[2:]]
            except ValueError:
                raise ParseError(path, lineno, "non-numeric feature value") from None
            if not all(map(math.isfinite, values)):
                raise ParseError(path, lineno, "non-finite feature value")
            rows.append(values)
    if not rows:
        raise ParseError(path, 2, "no data rows")
    labels = np.array(labels, dtype=np.int64)
    try:
        return EmbeddingBatch(np.array(rows), labels, ids)
    except ValidationError as exc:
        # A gap in the labels shows first at the first row labelled above it.
        gap = _first_empty_class(labels)
        row = 0 if gap is None else int(np.argmax(labels > gap))
        raise ParseError(path, lines[row], str(exc)) from exc


def write_embedding_file(path, batch: EmbeddingBatch) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + ["f%d" % i for i in range(batch.dim)])
        for i in range(batch.n):
            writer.writerow(
                [batch.ids[i], int(batch.labels[i])]
                + [repr(float(x)) for x in batch.vectors[i]]
            )
