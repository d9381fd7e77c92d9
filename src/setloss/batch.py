"""Labeled embedding batches and their class partitions.

A batch is the ground set V: n embeddings in R^d with integer class labels.
Labels must cover 0..C-1 with every class nonempty, so a label array always
induces a valid partition of V; `_labels` is the one check of that, run once
per partition. `ClassPartition` is the one form of that partition the
package passes around, built from labels: the class sets A_k, which the
loss terms sum over, with the labels, sizes and complements the gradient's
weight rules read. A batch builds its partition once, as `classes`, and
every loss, gradient and split reads that one. Rows are known by their
position alone. The CSV layout is one row per embedding with header
``id,label,f0,...,f{d-1}``; the id column is checked for its place in the
header and otherwise not read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroundSet, ParseError, ValidationError


@dataclass
class EmbeddingBatch:
    """Ground set of labeled embeddings.

    vectors : (n, d) float64
    labels  : (n,) int64, values covering 0..C-1 with no empty class
    classes : the `ClassPartition` of labels, built once with the batch

    The batch keeps the caller's label array when it is already int64, and
    its partition is derived from it once, so those labels must not be
    written after the batch is built.
    """

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        # Labels are cast first and checked last, so a batch names a
        # non-integer label before any fault of its vectors, and a negative
        # label or an empty class after them.
        labels = _integers(self.labels)
        if self.vectors.ndim != 2:
            raise ValidationError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        n, d = self.vectors.shape
        if n == 0:
            raise EmptyGroundSet()
        if d == 0:
            raise ValidationError("embedding dimension must be >= 1")
        if labels.shape != (n,):
            raise ValidationError(
                f"labels shape {labels.shape} does not match {n} embeddings"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("vectors contain non-finite values")
        self.classes = partition_from_labels(labels)
        self.labels = self.classes.labels

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classes.num_classes


@dataclass
class ClassPartition:
    """The class sets A_1..A_C of a label array, built from the labels.

    labels[i] is row i's class, sets[k] lists class k's rows in ascending
    order and sizes[k] is class k's size. Any partition of range(n) into
    nonempty sets is written as labels: row i gets the index of its set.
    """

    labels: np.ndarray

    def __post_init__(self):
        self.labels, self.sizes = _labels(self.labels)
        self.sets = tuple(np.flatnonzero(self.labels == k)
                          for k in range(self.sizes.size))

    @property
    def num_classes(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def with_complements(self):
        """(A, O) for each class in order, O = V \\ A in ascending order."""
        for k, a in enumerate(self.sets):
            yield a, np.flatnonzero(self.labels != k)


def span(index: np.ndarray) -> slice | None:
    """slice(lo, hi) when the 1-D index lists lo, lo + 1, ..., hi - 1 in
    that order, None for any other index, the empty one included.

    The one test of whether an index set is a run of rows that a slice can
    read in place of a gather.
    """
    if index.ndim != 1 or index.size == 0:
        return None
    lo = int(index[0])
    hi = lo + index.size
    if int(index[-1]) != hi - 1 or not np.array_equal(index, np.arange(lo, hi)):
        return None
    return slice(lo, hi)


def _labels(values) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sizes): values as 1-D int64 labels that cover 0..C-1 with no
    empty class, and each class's size.

    The one check of a label array: ValidationError if the labels are not
    integers or not 1-D, are negative or leave a class empty; EmptyGroundSet
    if there are none.
    """
    labels = _integers(values)
    if labels.ndim != 1:
        raise ValidationError(f"labels shape {labels.shape} is not 1-D")
    if labels.size == 0:
        raise EmptyGroundSet()
    if labels.min() < 0:
        raise ValidationError("labels must be nonnegative")
    sizes = np.bincount(labels)
    gap = _first_empty_class(sizes)
    if gap is not None:
        raise ValidationError(
            f"labels must cover 0..{sizes.size - 1} contiguously; class {gap} is empty"
        )
    return labels, sizes


def _integers(values) -> np.ndarray:
    """values as int64; ValidationError if the cast changes any of them
    (a fraction, NaN or inf) or cannot be made (None, a word). Integer
    input costs a dtype check."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            cast = values.astype(np.int64)
    except (TypeError, ValueError):
        raise ValidationError("labels must be integers") from None
    if not np.array_equal(cast, values):
        raise ValidationError("labels must be integers")
    return cast


def _first_empty_class(sizes: np.ndarray) -> int | None:
    """The lowest class of size 0 in a `bincount` of labels, if any."""
    gaps = np.flatnonzero(sizes == 0)
    return int(gaps[0]) if gaps.size else None


def partition_from_labels(labels: np.ndarray) -> ClassPartition:
    """The class partition of labels: `ClassPartition(labels)`."""
    return ClassPartition(labels)


def read_embedding_file(path) -> EmbeddingBatch:
    """Parse an ``id,label,f0,...`` CSV into a batch; the ids are not kept.

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
        labels, rows, lines = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            lines.append(lineno)
            if len(row) != d + 2:
                raise ParseError(path, lineno, f"expected {d + 2} fields, got {len(row)}")
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
        return EmbeddingBatch(np.array(rows), labels)
    except ValidationError as exc:
        # A gap in the labels shows first at the first row labelled above it.
        gap = _first_empty_class(np.bincount(labels))
        row = 0 if gap is None else int(np.argmax(labels > gap))
        raise ParseError(path, lines[row], str(exc)) from exc

