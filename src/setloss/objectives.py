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

Eight records come from two term families, each record's coefficients
stated once in its `REGISTRY` entry, from which one factory writes both the
term and the weight rule:
  `_pairwise`    (c - w sum_{A x A} K) + b sum_{A x O} K, K = S or S o S:
                 n-pairs (w = 1, with its row logs), opl (c = b = w = 1),
                 submod-triplet (b = w = 1 on S o S), gc-sf (b = 1, w = lam)
                 and gc-cf (b = lam, w = 0). Its second differences are
                 Delta_kl f(A) = -2 (b + w) K_kl;
  `_anchor_lse`  -w sum_{A x A} S + per anchor the log-sum-exp over O, plus
                 or minus one over its classmates: snn (minus, over S),
                 submod-snn (plus, over D) and submod-supcon (none, w = 1).
triplet, supcon, the log-det pair and fl have terms and rules of their own.

Claims, which the lattice checker compares its verdict against:
  "submodular"      claimed submodular, and no proof against it is known;
                    submod-supcon's claim provably holds whenever every
                    off-diagonal S_ij >= 0, always so under rbf, since its
                    second differences obey Delta_kl f(A) < -2 S_kl
                    (sufficient, not necessary; the proof is
                    tests/test_submodcheck.py::
                    test_submod_supcon_second_difference_is_below_minus_twice_s);
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

from .batch import span
from .errors import LambdaBelowOne, NotPositiveDefinite, ValidationError, check_real

# Gradient checks exclude coordinates whose fl argmax gap or triplet hinge
# argument lies within this of a kink.
TIE_GAP = 1e-3

# Rows of at most this many entries take their maximum as a column loop of
# np.maximum, one call per column over every row at once, where np.max's
# reduce pays about 90 ns a row. On the log-sum-exp and fl blocks of value
# tables (rows of at most n - 1 <= 11 entries) the loop takes 8-12x less
# time for a stack of 60 draws at n = 6 or one draw at n = 12, and about as
# long for one draw at n = 6; on training blocks of 200 x 600 or 600 x 200
# entries it is 7-26x slower (2-core x86 VM).
_SHORT_ROW = 16


def _row_max(x: np.ndarray) -> np.ndarray:
    """np.max(x, axis=-1), bit for bit.

    A maximum is exact, so the column loop can differ from np.max's reduce
    only in which of tied zeros (0.0 or -0.0) or NaNs it returns; a block
    with a zero or NaN maximum, which kernel blocks almost never have, is
    handed to np.max whole.
    """
    if not 0 < x.shape[-1] <= _SHORT_ROW:
        return np.max(x, axis=-1)
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    return top if np.all(np.abs(top) > 0) else np.max(x, axis=-1)


def _lse(x: np.ndarray) -> np.ndarray:
    """Stabilized log(sum(exp(x))) over the last axis; -inf where it is empty."""
    if x.shape[-1] == 0:
        return np.full(x.shape[:-1], -math.inf)
    top = _row_max(x)
    total = np.sum(np.exp(x - top[..., None]), axis=-1)
    return top + np.log(total)


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


def _block(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row r's x[..., rows_r x cols_r] block, C-contiguous, stacked as
    `_gather` stacks them.

    One index set on one matrix is read through a slice where its rows or
    its columns are a run (`batch.span`), as a class of class-sorted data
    is, with one copy in `_gather`'s element order. A gather with two index
    arrays looks up both for every entry; the slice copies whole stretches.
    Other sets, and stacks of matrices, go through `_gather`.
    """
    if x.ndim == 2 and rows.shape[0] == 1:
        r, c = span(rows[0]), span(cols[0])
        if r is not None and c is not None:
            return np.ascontiguousarray(x[r, c])[None]
        if r is not None:
            return np.take(x[r], cols[0], axis=1)[None]
        if c is not None:
            return x[rows[0], c][None]
    return _gather(x, rows[:, :, None], cols[:, None, :])


def _block_sum(s: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum of each row's s[rows_r x cols_r] block, read in row-major order."""
    block = _block(s, rows, cols)
    return np.sum(block.reshape(block.shape[:-2] + (-1,)), axis=-1)


def _row_softmax(block: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-D block, each row the bits it has alone."""
    shifted = np.exp(block - np.max(block, axis=1)[:, None])
    return shifted / np.sum(shifted, axis=1)[:, None]


def _triplet_hinges(d, mem, comp, eps):
    """Yield (a, h) for each anchor column a of mem: h[..., r, p, c] is
    D^2_ip - D^2_ic + eps for the anchor i = mem[r, a], the positive
    mem[r, p] and the negative comp[r, c]. Row p = a pairs the anchor with
    itself, and every caller drops it."""
    d2m = _block(d, mem, mem) ** 2
    d2c = _block(d, mem, comp) ** 2
    for a in range(mem.shape[1]):
        hinge = d2m[..., a, :, None] - d2c[..., a, None, :]
        hinge += eps
        yield a, hinge


def _triplet_term(s, d, mem, comp, lam, eps, whole):
    lead = d.shape[:-2] + mem.shape[:1]
    total = np.zeros(lead)
    for a, hinge in _triplet_hinges(d, mem, comp, eps):
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


def _others(m: int) -> np.ndarray:
    """(m, m - 1) positions: row a lists every position but a, in order."""
    idx = np.arange(m - 1)
    return idx + (idx >= np.arange(m)[:, None])


def _supcon_term(s, d, mem, comp, lam, eps, whole):
    return -_block_sum(s, mem, mem) / mem.shape[1] + _row_logs(whole, mem)


def _logdet_sf_term(s, d, mem, comp, lam, eps, whole):
    return _logdet_spd(_block(s, mem, mem) + lam * np.eye(mem.shape[1]))


def _logdet_cf_term(s, d, mem, comp, lam, eps, whole):
    # whole is one log det per matrix of s, subtracted from its row of terms.
    return (_logdet_sf_term(s, d, mem, comp, lam, eps, whole)
            - np.expand_dims(whole, -1))


def _fl_term(s, d, mem, comp, lam, eps, whole):
    return np.sum(_row_max(_block(s, comp, mem)), axis=-1)


def _fl_picking_term(s, d, mem, comp, lam, eps, whole):
    """fl's term, and each complement row's first argmax in mem, from one
    gathered block."""
    block = _block(s, comp, mem)
    return np.sum(np.max(block, axis=-1), axis=-1), np.argmax(block, axis=-1)


# Every rule writes the doubled weights M = W + W.T off the diagonal, bit
# for bit the fold of the W that accumulating each class's weights into a
# zero matrix gives. That W holds (0.0 - x) where the accumulation
# subtracted x, (0.0 + x) where it added x and 0.0 where it wrote nothing;
# those forms keep signed zeros (0.0 - 0.0 is 0.0, not -0.0).
# `Scaled.rows` zeroes the diagonals.
#
# A rule writes M through a `Scaled`, which holds M itself or the one form
# of M that its kernel's pullback reads, written over the kernel matrix
# the rule is handed (`grads._entry_weights`). Either way a rule gives
# `Scaled.rows` a writer of M's rows; the rules built from per-row vectors
# and each class's diagonal block (`_within`), and fl's from its picks,
# write them without a transposed read. The others build W in the buffer
# `scratch()` returns and fold it with `_fold`, the one transposed read of
# a training step.

# Rows of M that `Scaled.rows` writes at a time over a kernel matrix in a
# form: at n = 800 a strip is 0.4 MB, where all of M would be 5.1 MB.
_STRIP = 64


@dataclass(frozen=True)
class Scaled:
    """Where a weight rule writes its doubled weights M, with a zero
    diagonal: into m, as M itself with no form, or with a `form` from
    `kernels.WEIGHT_FORMS` as that form of M over the kernel matrix K that
    m holds on entry, which may be the very s or d the rule reads.
    """

    m: np.ndarray
    form: Callable | None = None

    def rows(self, write) -> None:
        """Fill m from write(t, lo), which writes M's rows lo to
        lo + len(t) into t, and zero m's diagonal. With no form, all rows
        go into m at once; with one, a strip at a time, each turned by
        form(rows, strip) into the form over its rows of m before the next
        strip is written. A writer that reads an n x n array reads only its
        rows lo to lo + len(t), so it may read m. No kernel gradient reads
        the diagonal, every kernel diagonal being constant."""
        m = self.m
        if self.form is None:
            write(m, 0)
        else:
            t = np.empty((min(_STRIP, len(m)), len(m)))
            for lo in range(0, len(m), _STRIP):
                rows = m[lo:lo + _STRIP]
                strip = t[:len(rows)]
                write(strip, lo)
                self.form(rows, strip)
        np.fill_diagonal(m, 0.0)


def _fold(w, out):
    """M = w + w.T into the `Scaled` out: the doubled weights of a rule that
    builds W itself."""
    out.rows(lambda t, lo: np.add(w[lo:lo + len(t)], w[:, lo:lo + len(t)].T, out=t))


def _within(m, classes, write, lo=0):
    """Call write(block, rows, cols) on the part of each class's diagonal
    block that m holds, where m is rows lo to lo + len(m) of an n x n
    matrix: block is m's part of [rows x cols], cols the class's rows and
    rows those of them that m holds.

    classes is a `batch.ClassPartition` or any sequence of its class sets.
    A class that is a run of rows (`span`), as in class-sorted data, gives
    a view of m, with rows and cols as slices. Any other class gives an
    `np.ix_` gathered copy, written back to m after write returns, and its
    index.
    """
    hi = lo + m.shape[0]
    for a in classes:
        cols = span(a)
        if cols is not None:
            top, bottom = max(cols.start, lo), min(cols.stop, hi)
            if top < bottom:
                write(m[top - lo:bottom - lo, cols], slice(top, bottom), cols)
            continue
        rows = a[(a >= lo) & (a < hi)]
        if rows.size:
            index = np.ix_(rows - lo, a)
            block = m[index]
            write(block, rows, a)
            m[index] = block


def _outer_sums(out, u, v, classes):
    """M_ij = u_i + u_j between classes and v_i + v_j within, into the
    `Scaled` out: the doubled weights of a W whose row i holds u_i between
    classes and v_i within."""
    def write(t, lo):
        # A row-broadcast copy and a contiguous add, with the same operands
        # in the same order, take 0.7 ms at n = 800 where one broadcast
        # outer add takes 1.1 ms (2-core x86 VM).
        t[...] = u[lo:lo + len(t), None]
        t += u
        _within(t, classes, lambda block, rows, cols: np.add(v[rows, None], v[cols],
                                                             out=block), lo)
    out.rows(write)


def _triplet_weights(out, dout, scratch, s, d, classes, picks, lam, eps,
                     whole):
    w = scratch()
    # The counts are whole numbers, so one add per entry is the per-pair
    # loop's bits, signed zeros included (0.0 - 0 is 0.0).
    for a, comp in classes.with_complements():
        for k, hinge in _triplet_hinges(d, a[None], comp[None], eps):
            active = hinge[0] > 0.0
            active[k] = False
            w[a[k], a] += np.count_nonzero(active, axis=1)
            w[a[k], comp] -= np.count_nonzero(active, axis=0)
    _fold(w, dout)


def _classmates(classes):
    """(anchors, own) for each class of two or more: row k of own lists, in
    order, the classmates of the anchor in row k of the (size, 1) anchors."""
    for a in classes.sets:
        if a.size > 1:
            yield a[:, None], a[_others(a.size)]


def _add_outside_softmax(w, s, classes):
    """Add to w[i, O] the softmax of s[i, O], for every anchor i of every
    class with a nonempty complement O."""
    for a, comp in classes.with_complements():
        if comp.size:
            anchors = a[:, None]
            w[anchors, comp] += _row_softmax(s[anchors, comp])


def _supcon_weights(out, dout, scratch, s, d, classes, picks, lam, eps,
                    whole):
    inv_row = 1.0 / whole
    inv_size = 1.0 / classes.sizes
    _outer_sums(out, 0.0 + inv_row, (0.0 - inv_size[classes.labels]) + inv_row,
                classes)


def _logdet_weights(out, dout, scratch, s, d, classes, picks, lam, eps,
                    whole):
    # logdet-cf's inverse of the whole S + lam I is subtracted after each
    # class's block is written back, so each class goes through `_within`
    # alone; logdet-sf, whose whole is None, has none.
    inv = None if whole is None else np.linalg.inv(s + lam * np.eye(s.shape[-1]))
    w = scratch()
    for a in classes:
        block_inv = np.linalg.inv(_block(s, a[None], a[None])[0] + lam * np.eye(a.size))
        _within(w, (a,), lambda block, *_: np.add(block, block_inv, out=block))
        if inv is not None:
            w -= inv
    _fold(w, out)


def _fl_weights(out, dout, scratch, s, d, classes, picks, lam, eps, whole):
    # W is 1 from each outside row to its first (lowest-index) max in the
    # class, which the term picked, and 0.0 elsewhere; no pair is picked
    # twice, so M is 1 at those pairs plus 1 at the transposed pairs.
    rows = np.concatenate([comp for _, comp in classes.with_complements()])
    cols = np.concatenate([a[pick] for a, pick in zip(classes.sets, picks)])

    def write(t, lo):
        t.fill(0.0)
        here = (rows >= lo) & (rows < lo + len(t))
        t[rows[here] - lo, cols[here]] = 1.0
        here = (cols >= lo) & (cols < lo + len(t))
        t[cols[here] - lo, rows[here]] += 1.0
    out.rows(write)


# The two term families. Each factory returns a record's (term, weights)
# pair, both written from the one statement of its coefficients that the
# record's `REGISTRY` entry makes. A coefficient is a number or _LAM, the
# config's lam.
_LAM = "lam"


def _coefficient(c, lam, x=1.0):
    """c x, with x itself where c is 1, so that no pass multiplies by 1."""
    return x if c == 1.0 else (lam if c == _LAM else c) * x


def _pairwise(between, within, const=0.0, squared=False, logs=False):
    """(term, weights) of the pairwise family: per class A with complement O,

        f(A) = (const - within sum_{i,j in A} K_ij) + between sum_{i in A, j in O} K_ij

    with K = S, or S o S when squared. With logs, n-pairs' modular part
    sum_{i in A} log(whole_i) joins the within sum inside its bracket, as
    -(AA + R). A sum whose coefficient is the number 0 is not computed, and
    const is taken only with both sums, as opl's (1 - AA) + AO; with one,
    each record's own expression is kept pass for pass.
    For k != l outside A, Delta_kl f(A) = -2 (between + within) K_kl
    whatever the signs of K, the modular parts cancelling.

    W is (0.0 + between) between classes and (0.0 - within) within; logs
    subtracts 1 / whole_i from row i of both (`_outer_sums`). Squared, each
    is scaled by dK/dS = 2S, which the writer reads before it writes over
    S; that case takes between = 1, so that a between weight is 0.0 + 2S and
    a within one 0.0 + 2S x (0.0 - within), each exact for any within.
    """
    assert not squared or between == 1.0, "a squared kernel takes between = 1"

    def term(s, d, mem, comp, lam, eps, whole):
        k = s * s if squared else s
        inner = outer = None
        if within != 0.0:
            inner = _coefficient(within, lam, _block_sum(k, mem, mem))
            if logs:
                inner += _row_logs(whole, mem)
        if between != 0.0:
            outer = _coefficient(between, lam, _block_sum(k, mem, comp))
        if inner is None or outer is None:
            return outer if inner is None else -inner
        return (const - inner) + outer if const else outer - inner

    def weights(out, dout, scratch, s, d, classes, picks, lam, eps, whole):
        up, down = 0.0 + _coefficient(between, lam), 0.0 - _coefficient(within, lam)
        if logs:
            inv_row = 1.0 / whole
            _outer_sums(out, up - inv_row, down - inv_row, classes)
            return

        def write(t, lo):
            if squared:
                # W is symmetric, as S is, so M = W + W; x + 0.0 is 0.0 + x,
                # signed zeros included.
                np.multiply(s[lo:lo + len(t)], 2.0, out=t)
                _within(t, classes, lambda block, *_: np.multiply(block, down, block), lo)
                t += 0.0
                t += t
            else:
                t.fill(up + up)
                _within(t, classes, lambda block, *_: block.fill(down + down), lo)
        out.rows(write)

    return term, weights


def _anchor_lse(classmates=None, sign=1.0, within=0.0):
    """(term, weights) of the anchor log-sum-exp family: per class A with
    complement O,

        f(A) = -within sum_{i,j in A} S_ij
               + sum_{i in A} [ log sum_{j in O} e^{S_ij}
                                + sign log sum_{j in A\\{i}} e^{K_ij} ]

    where K is S or D as classmates names it ("s" or "d"); with classmates
    None, or in a one-member class, the classmate sum is left out (taken as
    0; no log-sum-exp is -0.0, so adding none keeps the bits of adding 0).
    Each anchor's terms add to the class's total in anchor order.

    W is (0.0 - within) within classes, plus sign x each anchor's softmax
    over its classmates' K, plus each anchor's softmax over its outside S.
    A classmate softmax over D folds into dout, the rest into out.
    """
    combine = np.add if sign > 0 else np.subtract

    def term(s, d, mem, comp, lam, eps, whole):
        m = mem.shape[1]
        neg = _lse(_block(s, mem, comp))
        total = (-_coefficient(within, lam, _block_sum(s, mem, mem)) if within
                 else np.zeros(neg.shape[:-1]))
        pos = None
        if classmates is not None and m > 1:
            # Row r's anchor a has the classmates mem[r, _others(m)[a]].
            pos = _lse(_gather(s if classmates == "s" else d, mem[:, :, None],
                               mem[:, _others(m)]))
        for a in range(m):
            total += neg[..., a] if pos is None else combine(neg[..., a], pos[..., a])
        return total

    def weights(out, dout, scratch, s, d, classes, picks, lam, eps, whole):
        w = scratch()
        if within:
            _within(w, classes, lambda block, *_: block.fill(0.0 - within))
        if classmates is not None:
            k = s if classmates == "s" else d
            for anchors, own in _classmates(classes):
                w[anchors, own] = combine(w[anchors, own], _row_softmax(k[anchors, own]))
            if classmates == "d":
                _fold(w, dout)
                w.fill(0.0)
        _add_outside_softmax(w, s, classes)
        _fold(w, out)

    return term, weights


def _triplet_kinks(rows, s, d, classes, eps):
    for a, comp in classes.with_complements():
        for k, hinge in _triplet_hinges(d, a[None], comp[None], eps):
            near = np.abs(hinge[0]) < TIE_GAP
            near[k] = False
            if near.any():
                rows[a[k]] = True
                rows[a[near.any(axis=1)]] = True
                rows[comp[near.any(axis=0)]] = True


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
    check_real("lam", lam, above=0)


@dataclass(frozen=True)
class Objective:
    """One objective's term, gradient rule, domain and claimed property.

    term(s, d, mem, comp, lam, eps, whole) gives one value per row of mem, a
    stack of equal-size index sets A with complements comp. s and d may be
    (..., n, n) stacks of matrices, with whole computed from the same stack;
    the terms then come back as (..., count), each matrix's row the bits
    that matrix gives alone.
    reads names the matrices that the term, the weight rule and the kink
    rule read: "s" for S, and then "d" or "d2" for D read as D or as D^2 (D
    is built either way, and a D^2 reader squares it). Only those are built
    (`losses.matrices`) and handed to them; the others are None. triplet
    reads only ("d2",), submod-snn ("s", "d"), every other record ("s",).
    weights(out, dout, scratch, s, d, classes, picks, lam, eps, whole)
    takes the whole batch's partition as a `batch.ClassPartition` and
    writes the doubled weights M = W + W.T of the n x n dL/dS through the
    `Scaled` out, and of dL/dD or dL/dD^2 through dout; each is None for a
    matrix the record does not read. An out or dout with a form holds S or
    D on entry, and may be s or d itself.
    Only the off-diagonal entries count: `Scaled.rows` zeroes the
    diagonals, which no kernel gradient reads.
    scratch() returns an n x n buffer of zeros, in which the loop-built and
    log-det rules build W and fold it with `_fold`; the others never ask
    for it and write M without a transposed read. A rule that writes a
    function of each class's diagonal block does so through `_within`.
    picks is what `picking_term` returned for each class of the same
    partition, in class order, and None for a record without one.
    kinks(rows, s, d, classes, eps) marks the rows within TIE_GAP of a
    nonsmooth point of any class of the same partition.
    picking_term, where set (fl), is the term over one class that also
    returns, from the same gathered block, what the weight rule reads:
    each complement row's first argmax among the members. `pure.total_value`
    always scores with it, and `losses.evaluate` keeps the picks in the
    `Evaluation`.
    whole_value maps (s, lam) to what every term and weight call shares:
    the row sums less one for n-pairs and supcon, log det of S + lam I for
    logdet-cf, None for the rest. Callers compute it once and pass it as
    `whole`. `positive_rowsum`, which the domain check reads, holds
    exactly for the records whose whole_value is those row sums, so a
    training step computes them once.
    """

    name: str
    claim: str
    term: Callable
    weights: Callable
    reads: tuple = ("s",)
    single_class_ok: bool = False    # a one-class batch is scored, with a warning
    min_class_size: int = 1
    picking_term: Callable | None = None
    kinks: Callable = lambda rows, s, d, classes, eps: None
    check_lam: Callable = lambda lam: None
    whole_value: Callable = lambda s, lam: None

    @property
    def positive_rowsum(self) -> bool:
        """Whether the domain needs every whole_value, sum_j S_ij - 1, > 0."""
        return self.whole_value is _rows_less_one

    @property
    def expected_verdict(self) -> str:
        """What a lattice scan should find: violations unless claimed "submodular"."""
        return "submodular-consistent" if self.claim == "submodular" else "violated"


REGISTRY = (
    Objective("triplet", "not-submodular", _triplet_term, _triplet_weights,
              kinks=_triplet_kinks, reads=("d2",), min_class_size=2),
    Objective("n-pairs", "submodular", *_pairwise(between=0.0, within=1.0, logs=True),
              whole_value=_rows_less_one),
    Objective("opl", "submodular", *_pairwise(between=1.0, within=1.0, const=1.0)),
    Objective("snn", "not-submodular", *_anchor_lse("s", sign=-1.0)),
    Objective("supcon", "not-submodular", _supcon_term, _supcon_weights,
              whole_value=_rows_less_one),
    Objective("submod-triplet", "submodular",
              *_pairwise(between=1.0, within=1.0, squared=True)),
    Objective("submod-snn", "refuted", *_anchor_lse("d", sign=1.0), reads=("s", "d")),
    Objective("submod-supcon", "submodular", *_anchor_lse(within=1.0)),
    Objective("gc-sf", "submodular", *_pairwise(between=1.0, within=_LAM),
              single_class_ok=True, check_lam=_lam_at_least_one),
    Objective("gc-cf", "submodular", *_pairwise(between=_LAM, within=0.0),
              single_class_ok=True, check_lam=_lam_at_least_one),
    Objective("logdet-sf", "submodular", _logdet_sf_term, _logdet_weights,
              single_class_ok=True, check_lam=_lam_positive),
    Objective("logdet-cf", "submodular", _logdet_cf_term, _logdet_weights,
              single_class_ok=True, check_lam=_lam_positive,
              whole_value=lambda s, lam: _logdet_spd(s + lam * np.eye(s.shape[-1]))),
    Objective("fl", "submodular", _fl_term, _fl_weights, kinks=_fl_kinks,
              single_class_ok=True, picking_term=_fl_picking_term),
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
