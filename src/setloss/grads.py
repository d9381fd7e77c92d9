"""Analytic embedding gradients for every objective, with an FD verifier.

Each objective is linear in a set of per-entry weights: collect dL/dS_ij,
dL/dD_ij, and dL/dD^2_ij over the class partition, then pull each weight
matrix back to the embeddings through the kernel chain rules in `kernels`.
The weight builders mirror the value formulas in `losses` term for term,
including the conventions that matter for agreement with finite
differences: anchors are excluded from their own soft-nearest-neighbor
sums, empty sums contribute nothing, and double sums keep the diagonal
(which the pullbacks then discard, every kernel diagonal being constant).

Nonsmooth points are handled by fixed subgradient choices: the
facility-location max takes the lowest-index argmax, and a triplet hinge
sitting exactly at zero contributes zero. The checker excludes coordinates
near either kind of kink (gap or hinge argument within 1e-3) instead of
pretending finite differences mean something there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, losses, objectives
from .batch import EmbeddingBatch, partition_from_labels
from .sampling import Rng

TIE_GAP = 1e-3


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
class GradientMatrix:
    """dL/dZ, one row per embedding."""

    entries: np.ndarray


@dataclass
class GradCheckReport:
    objective: str
    max_abs_error: float
    max_rel_error: float
    worst_coordinate: tuple[int, int]
    passed: bool
    excluded: int = 0


def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = np.exp(v - np.max(v))
    return shifted / np.sum(shifted)


def _entry_weights(code, s, d, sets, lam, eps):
    """(dL/dS, dL/dD, dL/dD^2) as n x n matrices, or None where unused."""
    n = s.shape[0]
    everything = np.arange(n)
    ws = np.zeros((n, n))
    wd = wd2 = None

    if code == objectives.OBJ_CODE["logdet-cf"]:
        inv_full = np.linalg.inv(s + lam * np.eye(n))

    for members in sets:
        a = np.asarray(members, dtype=np.intp)
        comp = np.setdiff1d(everything, a, assume_unique=True)
        aa = np.ix_(a, a)

        if code == objectives.OBJ_CODE["triplet"]:
            if wd2 is None:
                wd2 = np.zeros((n, n))
            d2 = d * d
            for i in a:
                for p in a:
                    if p == i or comp.size == 0:
                        continue
                    active = d2[i, p] - d2[i, comp] + eps > 0.0
                    wd2[i, p] += float(np.sum(active))
                    wd2[i, comp] -= active.astype(float)

        elif code == objectives.OBJ_CODE["n-pairs"]:
            ws[aa] -= 1.0
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] -= inv_row[:, None]

        elif code == objectives.OBJ_CODE["opl"]:
            ws[aa] -= 1.0
            ws[np.ix_(a, comp)] += 1.0

        elif code == objectives.OBJ_CODE["snn"]:
            for i in a:
                own = a[a != i]
                if own.size:
                    ws[i, own] -= _softmax(s[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["supcon"]:
            ws[aa] -= 1.0 / a.size
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] += inv_row[:, None]

        elif code == objectives.OBJ_CODE["submod-triplet"]:
            ws[np.ix_(a, comp)] += 2.0 * s[np.ix_(a, comp)]
            ws[aa] -= 2.0 * s[aa]

        elif code == objectives.OBJ_CODE["submod-snn"]:
            if wd is None:
                wd = np.zeros((n, n))
            for i in a:
                own = a[a != i]
                if own.size:
                    wd[i, own] += _softmax(d[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["submod-supcon"]:
            ws[aa] -= 1.0
            for i in a:
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["gc-sf"]:
            ws[np.ix_(a, comp)] += 1.0
            ws[aa] -= lam

        elif code == objectives.OBJ_CODE["gc-cf"]:
            ws[np.ix_(a, comp)] += lam

        elif code == objectives.OBJ_CODE["logdet-sf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))

        elif code == objectives.OBJ_CODE["logdet-cf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))
            ws -= inv_full

        elif code == objectives.OBJ_CODE["fl"]:
            # Each outside row's weight goes to its first (lowest-index) max.
            ws[comp, a[np.argmax(s[np.ix_(comp, a)], axis=1)]] += 1.0

        else:
            raise ValueError(f"no gradient rule for objective code {code}")

    return ws, wd, wd2


def evaluation_gradient(ev: losses.Evaluation) -> GradientMatrix:
    """Analytic dL/dZ from the matrices and partition one evaluation used."""
    config = ev.config
    code = objectives.OBJ_CODE[config.objective]
    ws, wd, wd2 = _entry_weights(code, ev.s, ev.d, ev.sets, config.lam, config.margin)

    z = ev.batch.vectors
    grad = np.zeros_like(z)
    if np.any(ws):
        grad += kernels.similarity_pullback(z, ws, config.kernel, config.bandwidth,
                                            s=ev.s)
    if wd is not None:
        grad += kernels.distance_pullback(z, wd, ev.d)
    if wd2 is not None:
        grad += kernels.sqdist_pullback(z, wd2)
    return GradientMatrix(grad)


def loss_gradient(batch: EmbeddingBatch, config: losses.LossConfig) -> GradientMatrix:
    """Analytic dL/dZ under the config's objective and kernel."""
    return evaluation_gradient(losses.evaluate(batch, config))


def finite_difference_gradient(batch: EmbeddingBatch, config: losses.LossConfig,
                               h: float = 1e-5) -> GradientMatrix:
    """Central differences of the total loss, one coordinate at a time."""
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
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
    return GradientMatrix(out)


def _excluded_rows(batch: EmbeddingBatch, config: losses.LossConfig,
                   s: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    """Rows too close to a kink for finite differences to be trusted."""
    rows = np.zeros(batch.n, dtype=bool)
    sets = list(partition_from_labels(batch.labels))
    everything = np.arange(batch.n)

    if config.objective == "fl":
        for a in sets:
            a = np.asarray(a)
            if a.size < 2:
                continue
            for i in np.setdiff1d(everything, a, assume_unique=True):
                vals = s[i, a]
                order = np.argsort(vals)
                if vals[order[-1]] - vals[order[-2]] < TIE_GAP:
                    rows[i] = True
                    rows[a[order[-1]]] = True
                    rows[a[order[-2]]] = True

    if config.objective == "triplet":
        d2 = d * d
        for a in sets:
            a = np.asarray(a)
            comp = np.setdiff1d(everything, a, assume_unique=True)
            for i in a:
                for p in a:
                    if p == i:
                        continue
                    near = np.abs(d2[i, p] - d2[i, comp] + config.margin) < TIE_GAP
                    if np.any(near):
                        rows[i] = True
                        rows[p] = True
                        rows[comp[near]] = True
    return rows


def grad_check(batch: EmbeddingBatch, config: losses.LossConfig,
               h: float = 1e-5, tolerance: float = 1e-4,
               abs_floor: float = 1e-7) -> GradCheckReport:
    """Compare analytic and FD gradients coordinate by coordinate.

    A coordinate's relative error is |a - f| / max(|a|, |f|, abs_floor /
    tolerance), so tiny coordinates are judged against the absolute floor
    and the pass condition stays exactly max_rel_error <= tolerance.
    """
    analytic = loss_gradient(batch, config).entries
    fd = finite_difference_gradient(batch, config, h).entries

    s, d = losses.matrices(batch, config)
    rows = _excluded_rows(batch, config, s, d)
    keep = ~rows

    diff = np.abs(analytic - fd)
    # Tolerance zero demands exact agreement: the absolute floor drops out
    # and any nonzero difference scores infinite.
    floor = abs_floor / tolerance if tolerance > 0 else 0.0
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
