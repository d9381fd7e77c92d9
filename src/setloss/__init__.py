"""Submodular set-function losses over labeled embedding batches."""

from .batch import ClassPartition, EmbeddingBatch, partition_from_labels
from .kernels import (
    cosine_similarity,
    euclidean_distance,
    rbf_similarity,
    similarity,
)
from .losses import LossConfig, LossResult, total_loss
from .objectives import EXPECTED_PROPERTY, OBJECTIVES

__version__ = "0.1.0"

__all__ = [
    "ClassPartition",
    "EmbeddingBatch",
    "EXPECTED_PROPERTY",
    "LossConfig",
    "LossResult",
    "OBJECTIVES",
    "cosine_similarity",
    "euclidean_distance",
    "partition_from_labels",
    "rbf_similarity",
    "similarity",
    "total_loss",
]
