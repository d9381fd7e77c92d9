"""The thirteen loss objectives, one record each.

A record (`Objective`) holds everything the package knows about its
objective; the rest of the package reads its fields instead of branching
on objective names.

Per-class terms, written for class A (complement O = V \\ A, |V| = n,
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
    fl              sum_{i in O} max_{j in A} S_ij

Double sums over a class run over all ordered pairs including i = j; the
"- 1" inside the n-pairs and supcon logarithms is a literal scalar; snn-style
inner sums exclude the anchor itself. There is no temperature parameter.

Claims, which the lattice checker compares its verdict against:
  "submodular"      claimed submodular, and no proof against it is known;
  "not-submodular"  claimed non-submodular (the pairwise baselines);
  "refuted"         claimed submodular, but the formula as implemented is
                    disproved in closed form, so a scan must find violations.
                    submod-snn is the one case; the proof is
                    tests/test_submodcheck.py::
                    test_submod_snn_orthonormal_counterexample_closed_form.
Only "submodular" expects a scan to find no violations (`expected_verdict`).

Modules pass the records, resolving a name once with `get`. `REGISTRY`
order is the order of `OBJECTIVES` and of verdict and sweep rows; keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LambdaBelowOne, NotPositiveDefinite, ValidationError

# Gradient checks exclude coordinates whose fl argmax gap or triplet hinge
# argument lies within this of a kink.
TIE_GAP = 1e-3

_math_log = np.frompyfunc(math.log, 1, 1)


def _lse(x: np.ndarray) -> np.ndarray:
    """Stabilized log(sum(exp(x))) over the last axis; -inf where it is empty."""
    if x.shape[-1] == 0:
        return np.full(x.shape[:-1], -math.inf)
    top = np.max(x, axis=-1)
    total = np.sum(np.exp(x - top[..., None]), axis=-1)
    return top + _math_log(total).astype(float)


def _logdet_spd(m: np.ndarray):
    """log det via symmetric positive-definite factorization.

    Takes one matrix or a stack of them over the last two axes.
    """
    if m.shape[-1] == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"{m.shape[-1]}x{m.shape[-1]} regularized block is not positive definite"
        ) from None
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _gather(x: np.ndarray, *index) -> np.ndarray:
    """x[..., *index] as a C-contiguous array.

    Gathered after a leading `...`, the block can come back with the index
    axes outermost in memory, and a last-axis sum over it then runs in
    another order than over one matrix's block. The copy (none for one
    matrix) gives every matrix of a stack the bits it has alone.
    """
    return np.ascontiguousarray(x[(Ellipsis,) + index])


def _block_sum(s: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum of each row's s[rows_r x cols_r] block, read in row-major order."""
    block = _gather(s, rows[:, :, None], cols[:, None, :])
    return np.sum(block.reshape(block.shape[:-2] + (-1,)), axis=-1)


def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = np.exp(v - np.max(v))
    return shifted / np.sum(shifted)


def _triplet_term(s, d, mem, comp, lam, eps, whole):
    lead = d.shape[:-2] + mem.shape[:1]
    anchors = mem[:, :, None]
    d2m = _gather(d, anchors, mem[:, None, :]) ** 2
    d2c = _gather(d, anchors, comp[:, None, :]) ** 2
    total = np.zeros(lead)
    for a in range(mem.shape[1]):
        hinge = d2m[..., a, :, None] - d2c[..., a, None, :]
        hinge += eps
        np.maximum(hinge, 0.0, out=hinge)
        hinge[..., a, :] = 0.0
        total += np.sum(hinge.reshape(lead + (-1,)), axis=-1)
    return total


def _rows_less_one(s, lam):
    """sum_{j in V} S_ij - 1 for every row i: n-pairs' and supcon's `whole`."""
    return np.sum(s, axis=-1) - 1.0


def _row_logs(rows, mem):
    """sum_{i in A} log(rows_i) for each row A of mem, rows from `_rows_less_one`."""
    # Rowsums at or below 1 push the log outside its domain; the scan
    # layers treat the resulting inf/nan as off-domain, not as values.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(np.log(_gather(rows, mem)), axis=-1)


def _npairs_term(s, d, mem, comp, lam, eps, whole):
    return -(_block_sum(s, mem, mem) + _row_logs(whole, mem))


def _opl_term(s, d, mem, comp, lam, eps, whole):
    return (1.0 - _block_sum(s, mem, mem)) + _block_sum(s, mem, comp)


def _anchor_lses(pos_from, s, mem, comp):
    """Anchor log-sum-exps over classmates (of pos_from) and over O (of s)."""
    m = mem.shape[1]
    anchors = mem[:, :, None]
    # Row a of `others` lists every position but a, in order, so
    # own[r, a] holds anchor a's classmates in row r.
    idx = np.arange(m - 1)
    others = idx + (idx >= np.arange(m)[:, None])
    own = mem[:, others]
    pos = (_lse(_gather(pos_from, anchors, own)) if m > 1
           else np.zeros(s.shape[:-2] + mem.shape))
    return pos, _lse(_gather(s, anchors, comp[:, None, :]))


def _snn_term(s, d, mem, comp, lam, eps, whole):
    pos, neg = _anchor_lses(s, s, mem, comp)
    total = np.zeros(s.shape[:-2] + mem.shape[:1])
    for a in range(mem.shape[1]):
        total += neg[..., a] - pos[..., a]
    return total


def _supcon_term(s, d, mem, comp, lam, eps, whole):
    return -_block_sum(s, mem, mem) / mem.shape[1] + _row_logs(whole, mem)


def _submod_triplet_term(s, d, mem, comp, lam, eps, whole):
    s2 = s * s
    return _block_sum(s2, mem, comp) - _block_sum(s2, mem, mem)


def _submod_snn_term(s, d, mem, comp, lam, eps, whole):
    pos, neg = _anchor_lses(d, s, mem, comp)
    total = np.zeros(s.shape[:-2] + mem.shape[:1])
    for a in range(mem.shape[1]):
        total += pos[..., a] + neg[..., a]
    return total


def _submod_supcon_term(s, d, mem, comp, lam, eps, whole):
    total = -_block_sum(s, mem, mem)
    neg = _lse(_gather(s, mem[:, :, None], comp[:, None, :]))
    for a in range(mem.shape[1]):
        total += neg[..., a]
    return total


def _gc_sf_term(s, d, mem, comp, lam, eps, whole):
    return _block_sum(s, mem, comp) - lam * _block_sum(s, mem, mem)


def _gc_cf_term(s, d, mem, comp, lam, eps, whole):
    return lam * _block_sum(s, mem, comp)


def _logdet_sf_term(s, d, mem, comp, lam, eps, whole):
    return _logdet_spd(_gather(s, mem[:, :, None], mem[:, None, :])
                       + lam * np.eye(mem.shape[1]))


def _logdet_cf_term(s, d, mem, comp, lam, eps, whole):
    # whole is one log det per matrix of s, subtracted from its row of terms.
    return (_logdet_sf_term(s, d, mem, comp, lam, eps, whole)
            - np.expand_dims(whole, -1))


def _fl_term(s, d, mem, comp, lam, eps, whole):
    nearest = np.max(_gather(s, comp[:, :, None], mem[:, None, :]), axis=-1)
    return np.sum(nearest, axis=-1)


def _triplet_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(0.0)
    wdist.fill(0.0)
    d2 = d * d
    for a, comp in classes.with_complements():
        for i in a:
            for p in a:
                if p == i or comp.size == 0:
                    continue
                active = d2[i, p] - d2[i, comp] + eps > 0.0
                wdist[i, p] += float(np.sum(active))
                wdist[i, comp] -= active.astype(float)


# The mask-built rules below write, for every entry, the value the per-class
# accumulation into a zero matrix left there: (0.0 - x) where that
# subtracted x, (0.0 + x) where it added x, 0.0 where it wrote nothing. Those
# forms keep signed zeros (0.0 - 0.0 is 0.0, not -0.0).

def _npairs_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    inv_row = 1.0 / whole
    ws[...] = (0.0 - inv_row)[:, None]
    np.copyto(ws, (-1.0 - inv_row)[:, None], where=classes.same_class(mask))


def _opl_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(1.0)
    np.copyto(ws, -1.0, where=classes.same_class(mask))


def _snn_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(0.0)
    for a, comp in classes.with_complements():
        for i in a:
            own = a[a != i]
            if own.size:
                ws[i, own] -= _softmax(s[i, own])
            if comp.size:
                ws[i, comp] += _softmax(s[i, comp])


def _supcon_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    inv_row = 1.0 / whole
    inv_size = 1.0 / classes.sizes
    ws[...] = (0.0 + inv_row)[:, None]
    np.copyto(ws, ((0.0 - inv_size[classes.labels]) + inv_row)[:, None],
              where=classes.same_class(mask))


def _submod_triplet_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    np.multiply(s, 2.0, out=ws)
    np.negative(ws, out=ws, where=classes.same_class(mask))
    # -x + 0.0 is 0.0 - x and x + 0.0 is 0.0 + x, signed zeros included.
    ws += 0.0


def _submod_snn_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(0.0)
    wdist.fill(0.0)
    for a, comp in classes.with_complements():
        for i in a:
            own = a[a != i]
            if own.size:
                wdist[i, own] += _softmax(d[i, own])
            if comp.size:
                ws[i, comp] += _softmax(s[i, comp])


def _submod_supcon_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    np.subtract(0.0, classes.same_class(mask), out=ws)
    for a, comp in classes.with_complements():
        for i in a:
            if comp.size:
                ws[i, comp] += _softmax(s[i, comp])


def _gc_sf_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(1.0)
    np.copyto(ws, 0.0 - lam, where=classes.same_class(mask))


def _gc_cf_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    ws.fill(0.0 + lam)
    np.copyto(ws, 0.0, where=classes.same_class(mask))


def _logdet_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    # logdet-cf's inverse of the whole S + lam I is subtracted after each
    # class's block; logdet-sf, whose whole is None, has none.
    inv = None if whole is None else np.linalg.inv(s + lam * np.eye(s.shape[-1]))
    ws.fill(0.0)
    for a in classes.sets:
        ws[np.ix_(a, a)] += np.linalg.inv(s[np.ix_(a, a)] + lam * np.eye(a.size))
        if inv is not None:
            ws -= inv


def _fl_weights(ws, wdist, mask, s, d, classes, lam, eps, whole):
    # Each outside row's weight goes to its first (lowest-index) max.
    ws.fill(0.0)
    rows, cols = [], []
    for a, comp in classes.with_complements():
        rows.append(comp)
        cols.append(a[np.argmax(s[np.ix_(comp, a)], axis=1)])
    ws[np.concatenate(rows), np.concatenate(cols)] = 1.0


def _triplet_kinks(rows, s, d, classes, eps):
    d2 = d * d
    for a, comp in classes.with_complements():
        for i in a:
            for p in a:
                if p == i:
                    continue
                near = np.abs(d2[i, p] - d2[i, comp] + eps) < TIE_GAP
                if np.any(near):
                    rows[i] = True
                    rows[p] = True
                    rows[comp[near]] = True


def _fl_kinks(rows, s, d, classes, eps):
    for a, comp in classes.with_complements():
        if a.size < 2:
            continue
        for i in comp:
            vals = s[i, a]
            order = np.argsort(vals)
            if vals[order[-1]] - vals[order[-2]] < TIE_GAP:
                rows[i] = True
                rows[a[order[-1]]] = True
                rows[a[order[-2]]] = True


def _lam_at_least_one(lam):
    if lam < 1.0:
        raise LambdaBelowOne(lam)


def _lam_positive(lam):
    if not (lam > 0):
        raise ValidationError(f"log-det objectives need lam > 0, got {lam}")


@dataclass(frozen=True)
class Objective:
    """One objective's term, gradient rule, domain and claimed property.

    term(s, d, mem, comp, lam, eps, whole) gives one value per row of mem, a
    stack of equal-size index sets A with complements comp. s and d may be
    (..., n, n) stacks of matrices, with whole computed from the same stack;
    the terms then come back as (..., count), each matrix's row the bits
    that matrix gives alone.
    weights(ws, wdist, mask, s, d, classes, lam, eps, whole) takes the
    whole batch's partition as a `batch.ClassPartition` and writes every
    entry of the n x n dL/dS into ws and, when `distance` ("d" or "d2") is
    set, of dL/dD or dL/dD^2 into wdist; `distance` also says that the
    objective reads D at all. mask is an n x n bool buffer (or None) for
    `classes.same_class`. The buffers come in holding anything.
    kinks(rows, s, d, classes, eps) marks the rows within TIE_GAP of a
    nonsmooth point of any class of the same partition.
    whole_value maps (s, lam) to what every term and weight call shares:
    the row sums less one for n-pairs and supcon, log det of S + lam I for
    logdet-cf, None for the rest. Callers compute it once and pass it as
    `whole`. A record with `positive_rowsum` has those row sums as its
    whole_value, so a training step computes them once.
    """

    name: str
    claim: str
    term: Callable
    weights: Callable
    distance: str | None = None
    single_class_ok: bool = False    # a one-class batch is scored, with a warning
    positive_rowsum: bool = False    # needs whole_value, sum_j S_ij - 1, > 0
    min_class_size: int = 1
    kinks: Callable = lambda rows, s, d, classes, eps: None
    check_lam: Callable = lambda lam: None
    whole_value: Callable = lambda s, lam: None

    @property
    def expected_verdict(self) -> str:
        """What a lattice scan should find: violations unless claimed "submodular"."""
        return "submodular-consistent" if self.claim == "submodular" else "violated"


REGISTRY = (
    Objective("triplet", "not-submodular", _triplet_term, _triplet_weights,
              kinks=_triplet_kinks, distance="d2", min_class_size=2),
    Objective("n-pairs", "submodular", _npairs_term, _npairs_weights,
              positive_rowsum=True, whole_value=_rows_less_one),
    Objective("opl", "submodular", _opl_term, _opl_weights),
    Objective("snn", "not-submodular", _snn_term, _snn_weights),
    Objective("supcon", "not-submodular", _supcon_term, _supcon_weights,
              positive_rowsum=True, whole_value=_rows_less_one),
    Objective("submod-triplet", "submodular", _submod_triplet_term,
              _submod_triplet_weights),
    Objective("submod-snn", "refuted", _submod_snn_term, _submod_snn_weights,
              distance="d"),
    Objective("submod-supcon", "submodular", _submod_supcon_term,
              _submod_supcon_weights),
    Objective("gc-sf", "submodular", _gc_sf_term, _gc_sf_weights,
              single_class_ok=True, check_lam=_lam_at_least_one),
    Objective("gc-cf", "submodular", _gc_cf_term, _gc_cf_weights,
              single_class_ok=True, check_lam=_lam_at_least_one),
    Objective("logdet-sf", "submodular", _logdet_sf_term, _logdet_weights,
              single_class_ok=True, check_lam=_lam_positive),
    Objective("logdet-cf", "submodular", _logdet_cf_term, _logdet_weights,
              single_class_ok=True, check_lam=_lam_positive,
              whole_value=lambda s, lam: _logdet_spd(s + lam * np.eye(s.shape[-1]))),
    Objective("fl", "submodular", _fl_term, _fl_weights, kinks=_fl_kinks,
              single_class_ok=True),
)

OBJECTIVES = tuple(obj.name for obj in REGISTRY)
EXPECTED_PROPERTY = {obj.name: obj.claim for obj in REGISTRY}
_BY_NAME = {obj.name: obj for obj in REGISTRY}


def get(name: str) -> Objective:
    """The record for an objective name; ValidationError lists the choices."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(
            f"unknown objective {name!r}; choose from {', '.join(OBJECTIVES)}"
        ) from None
