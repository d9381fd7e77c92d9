"""Analytic embedding gradients for every objective, with an FD verifier.

Each objective is linear in a set of per-entry weights W. Its record's
weight rule (see `objectives`) writes, for the whole batch in one call, the
doubled weights M = W + W.T of dL/dS_ij, and of dL/dD_ij or dL/dD^2_ij:
every kernel is symmetric, so the pullbacks in `kernels` read each entry
weight in both orientations at once. The rules read the batch's own
`batch.ClassPartition` (`EmbeddingBatch.classes`, built with the batch),
the record's `whole` the loss evaluation computed and, for fl, the argmax
its term picked. The pairwise rules write M from per-row vectors and each
class's diagonal block (a view where the class is a run of rows, else a
gathered copy written back), and fl from its picks, with no transposed
read; the loop-built rules (triplet, snn, submod-snn, submod-supcon) and
the log-det rules build W and fold it. `objectives.Scaled` zeroes M's
diagonal, every kernel diagonal being constant, and this module pulls M
back to the embeddings through the kernel chain rules in `kernels`.

Every entry weight has one destination: the kernel matrix it pulls back
through, S for dL/dS and D for dL/dD or dL/dD^2. The rule writes M there
in the one form that matrix's pullback reads (`kernels.WEIGHT_FORMS`): M
under cosine and for D^2, M o S under rbf, and M / S or M / D, zero at
coincident points, under neg-euclidean and for D. The strip forms go a
strip of rows at a time, each entry one rounding of M_ij x S_ij or
M_ij / K_ij: the bits of M turned into its form afterwards. Given a
workspace, the gradient hands the rule the evaluation's own S and D, and
a training step writes M into no n x n array of its own (a rule that
builds W builds it in the workspace's "ws"). Given none, it
hands it copies, and the evaluation is left as it was built, for the
gradient check's kink rules to read.

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


def _entry_weights(obj, kind, s, d, classes, lam, eps, whole, workspace=None,
                   picks=None):
    """(m, mdist): the doubled weights of dL/dS and, for a record with a
    `distance`, of dL/dD or dL/dD^2, else None; each M = W + W.T with a
    zero diagonal, written over the kernel matrix it belongs to, s or d, in
    the form that matrix's pullback reads (`kernels.WEIGHT_FORMS`, keyed by
    the kernel `kind` and by `obj.distance`).

    classes is the batch's `ClassPartition`, whole the record's
    `whole_value` of s, and picks the evaluation's `picks` (fl's). A
    folding rule builds its W in the workspace's "ws" buffer, which the
    other rules never ask for.
    """
    forms = kernels.WEIGHT_FORMS
    dout = None if obj.distance is None else objectives.Scaled(d, forms[obj.distance])
    obj.weights(objectives.Scaled(s, forms[kind]), dout,
                lambda: kernels.workspace_buffer(workspace, "ws", s.shape),
                s, d, classes, picks, lam, eps, whole)
    return s, None if dout is None else d


def evaluation_gradient(ev: losses.Evaluation,
                        workspace: kernels.Workspace | None = None) -> np.ndarray:
    """Analytic dL/dZ from the matrices and picks one evaluation used, and
    its batch's partition.

    The weights are written over the kernel matrices they belong to: ev.s
    and ev.d themselves when given a workspace, wherever they live, which
    are then spent, and copies of them when not, which leaves the
    evaluation as it was scored for the gradient check's kink rules. The
    pullbacks' own buffers come from the workspace when given one.
    """
    config = ev.config
    obj = objectives.get(config.objective)
    s, d = (ev.s, ev.d) if workspace is not None else (
        ev.s.copy(), None if ev.d is None else ev.d.copy())
    m, mdist = _entry_weights(obj, config.kernel, s, d, ev.batch.classes, config.lam,
                              config.margin, ev.whole, workspace, ev.picks)

    z = ev.batch.vectors
    # An all-zero m pulls back to signed zeros, which the add makes +0.0.
    grad = np.zeros_like(z)
    grad += kernels.similarity_pullback(z, m, config.kernel, config.bandwidth,
                                        workspace=workspace)
    if mdist is not None:
        grad += (kernels.distance_pullback if obj.distance == "d"
                 else kernels.sqdist_pullback)(z, mdist)
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
            up = losses.total_loss(EmbeddingBatch(work, batch.labels), config).total
            work[i, j] = orig - h
            down = losses.total_loss(EmbeddingBatch(work, batch.labels), config).total
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
