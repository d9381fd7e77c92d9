"""Analytic embedding gradients for every objective, with an FD verifier.

Each objective is linear in a set of per-entry weights W. Its record's
weight rule (see `objectives`) writes, for the whole batch in one call, the
doubled weights M = W + W.T of dL/dS_ij and of dL/dD_ij or dL/dD^2_ij,
each only for a matrix the record `reads`: every kernel is symmetric, so
the pullbacks in `kernels` read each entry weight in both orientations at
once. The rules read the batch's own `batch.ClassPartition`
(`EmbeddingBatch.classes`, built with the batch), the record's `whole` the
loss evaluation computed and, for fl, the argmax its term picked. The
pairwise rules write M from per-row vectors and each class's diagonal
block (a view where the class is a run of rows, else a gathered copy
written back), and fl from its picks, with no transposed read; the
loop-built rules (triplet, snn, submod-snn, submod-supcon) and the log-det
rules build W and fold it. `objectives.Scaled` zeroes M's diagonal, every
kernel diagonal being constant, and this module pulls M back to the
embeddings through the kernel chain rules in `kernels`.

Every entry weight has one destination: the kernel matrix it pulls back
through, S for dL/dS and D for dL/dD or dL/dD^2. The rule writes M there
in the one form that matrix's pullback reads (`kernels.WEIGHT_FORMS`): M
under cosine and for D^2, M o S under rbf, and M / S or M / D, zero at
coincident points, under neg-euclidean and for D. The gradient pulls back
through each matrix the evaluation built, and through no other: a D^2
weight as twice the distance pullback, and a record that reads no S
(triplet) through no similarity pullback at all. The strip forms go a
strip of rows at a time, each entry one rounding of M_ij x S_ij or
M_ij / K_ij: the bits of M turned into its form afterwards. The gradient
hands the rule the evaluation's own S and D, wherever the evaluation
built them, and so spends the evaluation: one evaluation gives one
gradient. Its temporaries belong to the calling thread: a rule that
builds W builds it in `kernels.thread_workspace()`'s "ws", and the cosine
pullback its Gram in the same workspace's "cos", so a step writes M into
no n x n array of its own.

Nonsmooth points are handled by fixed subgradient choices: the
facility-location max takes the lowest-index argmax, and a triplet hinge
sitting exactly at zero contributes zero. The checker excludes coordinates
that a record's kink rule marks (gap or hinge argument within
`objectives.TIE_GAP`) instead of pretending finite differences mean
something there; the kink rules read the evaluation's own matrices and
its batch's partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, losses, objectives
# partition_from_labels stays importable here: perfbench/tracing.py wraps it in grads.
from .batch import EmbeddingBatch, partition_from_labels  # noqa: F401
from .errors import check_count, check_real
from .sampling import Rng

# grad_check's absolute floor: coordinates below ABS_FLOOR / tolerance are
# judged against it rather than against their own size.
ABS_FLOOR = 1e-7


def check_batch(n: int, dim: int, seed: int) -> EmbeddingBatch:
    """Random batch with round-robin labels, for gradient checks.

    The positive mean shift keeps cosine row sums above one, so the
    log-ratio objectives stay inside their domain on every draw. n and dim
    must be integers, n >= 2 and dim >= 1, no larger than sys.maxsize
    (`errors.check_count`).
    """
    check_count("n", n, 2)
    check_count("dim", dim, 1)
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


def _entry_weights(obj, kind, s, d, classes, lam, eps, whole, picks=None):
    """Write over s and d, each where it is given (not None), the doubled
    weights M = W + W.T, with a zero diagonal, of dL/dS and of dL/dD or
    dL/dD^2, in the form that matrix's pullback reads
    (`kernels.WEIGHT_FORMS`, keyed by the kernel `kind` and by the
    distance the record `reads`).

    classes is the batch's `ClassPartition`, whole the record's
    `whole_value` of s, and picks the evaluation's `picks` (fl's). A
    folding rule builds its W in the calling thread's "ws" buffer, zeroed
    first, which the other rules never ask for.
    """
    shape = (s if d is None else d).shape
    out, dout = (None if k is None else objectives.Scaled(k, kernels.WEIGHT_FORMS[key])
                 for k, key in ((s, kind), (d, obj.reads[-1])))

    def scratch():
        w = kernels.thread_workspace().buffer("ws", shape)
        w.fill(0.0)
        return w
    obj.weights(out, dout, scratch, s, d, classes, picks, lam, eps, whole)


def evaluation_gradient(ev: losses.Evaluation) -> np.ndarray:
    """Analytic dL/dZ from the matrices and picks one evaluation used, and
    its batch's partition.

    The weights are written over the kernel matrices they belong to, ev.s
    and ev.d themselves, wherever they live, which are then spent: an
    evaluation gives one gradient. Read anything else from S or D (the
    gradient check's kink rows) before taking it. The temporaries come
    from the calling thread's workspace.
    """
    config = ev.config
    obj = objectives.get(config.objective)
    s, d = ev.s, ev.d
    _entry_weights(obj, config.kernel, s, d, ev.batch.classes, config.lam,
                   config.margin, ev.whole, ev.picks)

    z = ev.batch.vectors
    # An all-zero M pulls back to signed zeros, which the add makes +0.0.
    grad = np.zeros_like(z)
    if s is not None:
        grad += kernels.similarity_pullback(z, s, config.kernel, config.bandwidth)
    if d is not None:
        # d(D^2_ij)/dz_i = 2 (z_i - z_j), twice the distance Laplacian.
        grad += (2.0 if obj.reads[-1] == "d2" else 1.0) * kernels.distance_pullback(z, d)
    return grad


def loss_gradient(batch: EmbeddingBatch, config: losses.LossConfig) -> np.ndarray:
    """Analytic dL/dZ under the config's objective and kernel, one row per
    embedding."""
    return evaluation_gradient(losses.evaluate(batch, config))


def finite_difference_gradient(batch: EmbeddingBatch, config: losses.LossConfig,
                               h: float = 1e-5) -> np.ndarray:
    """Central differences of the total loss, one coordinate at a time.

    Every shifted batch is built from the batch's own class partition, so
    no shift checks or partitions the labels again."""
    check_real("finite-difference step h", h, above=0)
    z = batch.vectors
    out = np.empty_like(z)
    work = z.copy()
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            orig = work[i, j]
            work[i, j] = orig + h
            up = losses.total_loss(EmbeddingBatch(work, batch.classes), config).total
            work[i, j] = orig - h
            down = losses.total_loss(EmbeddingBatch(work, batch.classes), config).total
            work[i, j] = orig
            out[i, j] = (up - down) / (2.0 * h)
    return out


def _excluded_rows(ev: losses.Evaluation) -> np.ndarray:
    """Rows too close to one of the objective's kinks for finite differences."""
    rows = np.zeros(ev.batch.n, dtype=bool)
    objectives.get(ev.config.objective).kinks(rows, ev.s, ev.d, ev.batch.classes,
                                              ev.config.margin)
    return rows


def grad_check(batch: EmbeddingBatch, config: losses.LossConfig,
               h: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic and FD gradients coordinate by coordinate.

    A coordinate's relative error is |a - f| / max(|a|, |f|, ABS_FLOOR /
    tolerance), so tiny coordinates are judged against the absolute floor
    and the pass condition stays exactly max_rel_error <= tolerance, which
    must be finite and >= 0. The step h must be finite and > 0; both are
    checked before the loss is evaluated.
    """
    check_real("tolerance", tolerance, at_least=0)
    check_real("finite-difference step h", h, above=0)
    ev = losses.evaluate(batch, config)
    # The kink rows read the S and D the loss was scored on, which the
    # gradient then spends.
    rows = _excluded_rows(ev)
    keep = ~rows
    analytic = evaluation_gradient(ev)
    fd = finite_difference_gradient(batch, config, h)

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
