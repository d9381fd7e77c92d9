"""Two-stage toy trainer: linear extractor, then nearest-centroid eval.

Stage 1 learns a single matrix W by plain gradient descent on one of the
objectives, embedding raw inputs as z = W x with optional projection to
the unit sphere (on by default; the kernels see unit vectors either way
under cosine, but normalization also conditions the distance-based
terms). Each step scores the batch once and takes the analytic dL/dz
from that same evaluation, so the kernel is built once per step. The
kernel, the entry weights and the pullback's n x n temporaries are built
in `kernels.thread_workspace()`, so no step allocates an n x n array
unless its batch is larger than any its thread has used. Every buffer is
written before it is read, so a run that raised leaves nothing the next
run sees.
The gradient chains dL/dz through the normalization Jacobian and the
linear map; no momentum, no schedule.

Stage 2 freezes W, computes class centroids of the embedded training
split, and classifies the held-out split by nearest centroid. That stands
in for fitting a linear classifier head: it is closed-form, deterministic,
and measures exactly the geometry the stage-1 objectives are supposed to
shape (tight classes, separated centroids). Reports carry the
substitution note so downstream readers know which stage-2 variant
produced them.

Splits are stratified per class with a fixed derived stream, so every
objective in a comparison trains and evaluates on identical data and
identical initial W.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import grads, kernels, losses
from .batch import EmbeddingBatch
from .errors import (DegenerateBatch, DivergedLoss, MissingClass, SetLossError,
                     ValidationError, check_integers)
from .sampling import Rng

STAGE2_NOTE = "stage 2 = nearest-centroid over frozen embeddings (linear-head stand-in)"


@dataclass
class ExtractorParams:
    """The learned linear map plus its output convention."""

    W: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.W.ndim != 2 or self.W.shape[0] < 2:
            raise ValidationError(
                f"W must be (out_dim >= 2) x in_dim, got shape {self.W.shape}"
            )

    def embed(self, x: np.ndarray):
        """(z, norms): z = W x, scaled to unit rows when normalizing, and
        the floored (n, 1) row norms it was divided by (None if not)."""
        y = np.asarray(x, dtype=np.float64) @ self.W.T
        if not self.normalize:
            return y, None
        norms = np.maximum(np.linalg.norm(y, axis=1, keepdims=True), kernels.NORM_FLOOR)
        return y / norms, norms


@dataclass
class TrainConfig:
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)
    lr: float = 0.1
    steps: int = 500
    batch_size: int | None = None
    seed: int = 0
    eval_split: float = 0.25
    out_dim: int | None = None
    normalize: bool = True

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:
            raise ValidationError(f"learning rate must be finite and >= 0, got {self.lr}")
        sizes = {"batch_size": self.batch_size, "out_dim": self.out_dim}
        check_integers(steps=self.steps, **{k: v for k, v in sizes.items() if v is not None})
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not 0 < self.eval_split < 1:
            raise ValidationError(
                f"eval split must lie in (0, 1), got {self.eval_split}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.out_dim is not None and self.out_dim < 2:
            raise ValidationError(f"out_dim must be >= 2, got {self.out_dim}")


@dataclass
class TrainReport:
    objective: str
    loss_curve: list
    accuracy: float
    per_class_recall: np.ndarray
    confusion: np.ndarray
    intra_class_variance: float
    inter_class_separation: float
    note: str = STAGE2_NOTE

    def to_json(self) -> str:
        payload = {
            "objective": self.objective,
            "note": self.note,
            "loss_curve": [float(v) for v in self.loss_curve],
            "accuracy": self.accuracy,
            "per_class_recall": [float(v) for v in self.per_class_recall],
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "intra_class_variance": self.intra_class_variance,
            "inter_class_separation": self.inter_class_separation,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def initial_params(in_dim: int, out_dim: int, seed: int,
                   normalize: bool = True) -> ExtractorParams:
    """Seeded orthogonal init (QR of a Gaussian, signs fixed).

    Orthonormal rows start the extractor at an isometry, so stage-1
    training begins from the raw data's geometry instead of a lossy
    random projection. Falls back to scaled Gaussian when out_dim
    exceeds in_dim and no such isometry exists.
    """
    rng = Rng(seed).derive(101)
    g = rng.normals((out_dim, in_dim))
    if out_dim > in_dim:
        return ExtractorParams(g / np.sqrt(in_dim), normalize)
    q, r = np.linalg.qr(g.T)
    w = (q * np.sign(np.diagonal(r))).T
    return ExtractorParams(w, normalize)


def _minibatch(data: EmbeddingBatch, size: int, rng: Rng) -> EmbeddingBatch:
    """Stratified draw with every class represented at least once."""
    picks = []
    for a in data.classes:
        want = max(1, int(round(size * a.size / data.n)))
        order = rng.permutation(a.size)[:min(want, a.size)]
        picks.append(a[order])
    # every class contributes, so the labels still cover 0..C-1
    return _rows(data, np.concatenate(picks))


def _rows(data: EmbeddingBatch, idx: np.ndarray) -> EmbeddingBatch:
    """The batch of data's rows idx."""
    return EmbeddingBatch(data.vectors[idx], data.labels[idx])


def train_stage1(data: EmbeddingBatch, config: TrainConfig):
    """Gradient descent on the configured objective.

    Returns (params, loss_curve) with steps + 1 curve entries: the loss
    before each update and once more after the last one.
    """
    if data.num_classes < 2:
        raise DegenerateBatch(config.loss.objective,
                              f"stage-1 training needs >= 2 classes, got {data.num_classes}")
    out_dim = data.dim if config.out_dim is None else config.out_dim
    params = initial_params(data.dim, out_dim, config.seed, config.normalize)
    rng = Rng(config.seed).derive(202)
    full = config.batch_size is None or config.batch_size >= data.n

    work = kernels.thread_workspace()
    curve = []
    for step in range(config.steps + 1):
        batch = data if full else _minibatch(data, config.batch_size, rng)
        z, norms = params.embed(batch.vectors)
        embedded = EmbeddingBatch(z, batch.labels)

        ev = losses.evaluate(embedded, config.loss, work)
        value = ev.result.total
        if not np.isfinite(value):
            raise DivergedLoss(step, value)
        curve.append(value)
        if step == config.steps:
            break

        g = grads.evaluation_gradient(ev, work)
        if config.normalize:
            g = (g - np.sum(g * z, axis=1, keepdims=True) * z) / norms
        params.W -= config.lr * (g.T @ batch.vectors)
    return params, curve


def evaluate_stage2(params: ExtractorParams, train_data: EmbeddingBatch,
                    eval_data: EmbeddingBatch,
                    objective: str = "", loss_curve=()) -> TrainReport:
    """Nearest-centroid classification of the eval split; MissingClass if
    the eval split has a class the train split lacks."""
    c = max(train_data.num_classes, eval_data.num_classes)
    if train_data.num_classes < c:
        raise MissingClass(train_data.num_classes, "stage-2 train split")
    fit, _ = params.embed(train_data.vectors)
    centroids = np.array([fit[a].mean(axis=0) for a in train_data.classes])
    z, _ = params.embed(eval_data.vectors)
    dists = np.linalg.norm(z[:, None, :] - centroids[None, :, :], axis=2)
    predicted = np.argmin(dists, axis=1)

    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (eval_data.labels, predicted), 1)
    accuracy = float(np.trace(confusion)) / eval_data.n
    row = confusion.sum(axis=1)
    recall = np.divide(np.diagonal(confusion), row,
                       out=np.zeros(c), where=row > 0)

    own = np.take(centroids, eval_data.labels, axis=0)
    intra = float(np.mean(np.sum((z - own) ** 2, axis=1)))
    diffs = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
    inter = float(np.min(diffs[np.triu_indices(c, k=1)])) if c > 1 else 0.0

    return TrainReport(objective, list(loss_curve), accuracy, recall,
                       confusion, intra, inter)


def check_split(data: EmbeddingBatch) -> None:
    """Raise ValidationError unless every class has the two samples that a
    stratified split needs, one for each side."""
    sizes = data.classes.sizes
    if sizes.min() < 2:
        raise ValidationError(f"class {int(sizes.argmin())} has 1 sample; "
                              f"a stratified split needs >= 2")


def split_batch(data: EmbeddingBatch, eval_fraction: float, seed: int):
    """Stratified (train, eval) split; every class lands in both, with its
    rows in their order in data."""
    check_split(data)
    rng = Rng(seed).derive(303)
    train_idx, eval_idx = [], []
    for a in data.classes:
        order = a[rng.permutation(a.size)]
        n_eval = min(a.size - 1, max(1, int(round(a.size * eval_fraction))))
        eval_idx.append(order[:n_eval])
        train_idx.append(order[n_eval:])
    return (_rows(data, np.sort(np.concatenate(train_idx))),
            _rows(data, np.sort(np.concatenate(eval_idx))))


def run_objective(data: EmbeddingBatch, config: TrainConfig) -> TrainReport:
    """Split, train stage 1, evaluate stage 2."""
    train_data, eval_data = split_batch(data, config.eval_split, config.seed)
    params, curve = train_stage1(train_data, config)
    return evaluate_stage2(params, train_data, eval_data,
                           config.loss.objective, curve)


def compare_objectives(names, data: EmbeddingBatch,
                       config: TrainConfig) -> list[TrainReport]:
    """Train each objective on identical splits, seed, and initial W.

    A failing objective yields a report with NaN metrics and the failure
    recorded in its note; the run continues.
    """
    out = []
    for name in names:
        try:
            cfg = replace(config, loss=replace(config.loss, objective=name))
            out.append(run_objective(data, cfg))
        except SetLossError as exc:
            nan = float("nan")
            out.append(TrainReport(name, [], nan, np.array([]),
                                   np.zeros((0, 0), dtype=np.int64), nan, nan,
                                   note=f"failed: {exc}"))
    return out


COMPARISON_HEADER = "objective,accuracy,rare_class_recall,intra_var,inter_sep,final_loss"


def write_comparison_csv(reports, rare_label: int, fh) -> None:
    fh.write(COMPARISON_HEADER + "\n")
    for rep in reports:
        rare = (float(rep.per_class_recall[rare_label])
                if rep.per_class_recall.size > rare_label else float("nan"))
        final = rep.loss_curve[-1] if rep.loss_curve else float("nan")
        fh.write(f"{rep.objective},{rep.accuracy!r},{rare!r},"
                 f"{rep.intra_class_variance!r},{rep.inter_class_separation!r},"
                 f"{final!r}\n")
