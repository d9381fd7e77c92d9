"""The computation core: the subset lattice behind term values and scans.

Each objective's formula lives in its `objectives` record, which callers
pass in as `obj`; this module only supplies the index sets it is evaluated
on. Every term call evaluates a record's term over a stack of equal-size
index sets, a (count, m) array whose rows are the subsets A, with the
record's `whole` passed in by the caller. `term_value` scores one subset,
`total_value` each class of a `batch.ClassPartition` with the complements
the partition yields, and `value_table` evaluates once per cardinality
m = 1..n rather than once per subset, reading each cardinality's bitmasks,
members and complements from an index cached per n. The lattice scan,
`dr_scan`, takes each x's gains f(x|A) over every subset A of V\\{x} and
judges f(x|A) >= f(x|B) over a cached index of every submask pair A < B
on the n - 1 bits other than x, in the order of the nested submask loop
it replaced; bit x is inserted for each x. It takes each table's smallest
margin from submask minima, a fast zeta (subset-sum) transform with fmin
in place of + (Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Mobius", STOC 2007), and compares pair by pair only the
tables that can violate.

Tables and scans also take stacks, one leading axis of draws: `value_table`
scores (k, n, n) kernels into (k, 2^n) tables with the same calls, and
`dr_scan` judges a whole (k, 2^n) stack in one pass, with the tables
innermost, returning per-table tallies and the first violating table's
violations. `tables_per_scan` says how many tables' gains fill about
_SCAN_BLOCK: the stack a caller draws, tabulates and scans at once. Each
table of a stack keeps the bits it has alone.

A scan's gains, minima and margins are built in place, in the "gain",
"low" and "near" buffers of the thread's `kernels.thread_workspace()` (see
`kernels.Workspace`). Nothing a scan returns points into them.

The batched forms keep the bits of the per-subset loops they replaced. Each
block is gathered in the loop's order and summed as one contiguous row, so
numpy's pairwise summation sees the same sequence; per-anchor sums run as a
column loop from the same starting value; a row maximum is exact, so it
keeps its bits whichever way it is taken. tests/test_pure_backend.py keeps
those loops as a frozen oracle and pins the tables, scan results and totals
to them bit for bit.

Log policy: log-sum-exp takes its logarithm with np.log. Its np.exp already
picks SIMD code by host, so no choice of log made the log-sum-exp tables
host-independent, and a Python-level math.log per (anchor, subset) was half
of a table's cost. With AVX-512, np.log differs from math.log in the last
place on 0.05% of sums in [1, 21]; without it, they agree bit for bit. The
oracle takes a scalar np.log, which gives the array's bits on any one host,
so it still judges the tables bit for bit.

Conventions:
  * the empty set evaluates to 0 for every objective, although opl's formula
    (1 - sum_{A x A} S) + sum_{A x O} S gives it 1: opl's table is the
    formula less 1 at the empty set alone, so a scan with the empty set
    included misses opl's violations at A = empty for -1/4 < S_xl < 0;
  * an empty log-sum-exp over an anchor's own class (singleton set under
    self-exclusion) contributes 0 -- the term is dropped;
  * an empty log-sum-exp over the complement (A = V) yields -inf: the value
    genuinely diverges at the top of the lattice;
  * log-sum-exp uses max-shift stabilization;
  * graph-cut style double sums over a class include the diagonal;
  * the lattice scan leaves out comparisons with A empty unless asked:
    every chain it judges from a nonempty A up to B stays nonempty.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .. import kernels
from ..objectives import Objective

# value_table refuses larger ground sets before it builds anything: a table
# and its cached index grow as n 2^n, several GB at n = 24 already.
MAX_TABLE_N = 24


def term_value(obj: Objective, s: np.ndarray, d: np.ndarray | None,
               members, lam: float, eps: float, whole) -> float:
    """Term of one objective over one index set A of distinct indices.

    s and d are the similarity and distance matrices, each None unless the
    record `reads` it, and whole the record's `whole_value` of s.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return 0.0
    n = (d if s is None else s).shape[-1]
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    # A repeated member leaves the complement short, and the reshape raises.
    comp = np.flatnonzero(~inside).reshape(1, n - members.size)
    return float(obj.term(s, d, members[None], comp, lam, eps, whole)[0])


def total_value(obj: Objective, s: np.ndarray, d: np.ndarray | None,
                classes, lam: float, eps: float, whole):
    """Sum of per-class terms over a `batch.ClassPartition`; returns (total,
    per-class array, picks). whole is the record's `whole_value` of s.

    A record with a `picking_term` (fl) is scored with it, and picks lists
    each class's picks in class order; it is None for the other records.
    """
    per = []
    picks = None if obj.picking_term is None else []
    for a, comp in classes.with_complements():
        if picks is None:
            value = obj.term(s, d, a[None], comp[None], lam, eps, whole)
        else:
            value, pick = obj.picking_term(s, d, a[None], comp[None], lam, eps,
                                           whole)
            picks.append(pick[0])
        per.append(float(value[0]))
    per = np.array(per)
    return float(np.sum(per)), per, picks


def _frozen(*arrays):
    """Mark cached index arrays read-only: every caller shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _lattice(n: int):
    """(bitmasks, members, complements) of every subset of size m, m = 1..n.

    Bitmasks ascend within each size, and so do each row's indices.
    """
    bits = np.arange(1 << n)
    inside = (bits[:, None] >> np.arange(n)) & 1 == 1
    size = np.sum(inside, axis=1)
    out = []
    for m in range(1, n + 1):
        sub = inside[size == m]
        out.append(_frozen(bits[size == m],
                           np.nonzero(sub)[1].reshape(len(sub), m),
                           np.nonzero(~sub)[1].reshape(len(sub), n - m)))
    return tuple(out)


def value_table(obj: Objective, s: np.ndarray, d: np.ndarray | None,
                lam: float, eps: float) -> np.ndarray:
    """Objective value for every subset of V, indexed by bitmask.

    s and d are each None unless the record `reads` it, and may be
    (..., n, n) stacks; the tables are then (..., 2^n), one per matrix,
    each the bits that matrix's own table has. The cached index and the
    largest cardinality's gathered blocks grow as n 2^n per matrix, so
    tables stay cheap up to n of about 16; the submodularity checker stops
    at 12.
    """
    *lead, n = (d if s is None else s).shape[:-1]
    if n > MAX_TABLE_N:
        raise ValueError(f"subset table limited to {MAX_TABLE_N} points, got {n}")
    whole = obj.whole_value(s, lam)
    out = np.zeros((*lead, 1 << n))
    for bits, members, comp in _lattice(n):
        out[..., bits] = obj.term(s, d, members, comp, lam, eps, whole)
    return out


# `tables_per_scan` bounds the gains of one scan by about this many, half a
# megabyte, and the pair scan judges its margins in chunks of about as many.
_SCAN_BLOCK = 1 << 16
# The margin of two finite gains no larger than this in magnitude is finite.
_HALF_MAX = float(np.finfo(np.float64).max) / 2


def _row_sets(n: int) -> np.ndarray:
    """Row x lists every subset of V\\{x}, ascending: bit x inserted into
    each (n-1)-bit mask, so column `low` of every row is the same mask."""
    low = np.arange(1 << max(n - 1, 0))
    x = np.arange(n)[:, None]
    return (low >> x << (x + 1)) | (low & ((1 << x) - 1))


@functools.lru_cache(maxsize=8)
def _scan_index(n: int, include_empty: bool):
    """(sets, upper, pairs): what `dr_scan` compares, in the loop's order.

    sets is `_row_sets(n)` and upper is each of its sets with x added. pairs
    holds a row of A and a row of B columns of sets: every pair (A, B) of
    (n-1)-bit masks where A is a proper submask of B, B descending and then
    A descending over the submasks of B; A = 0 appears only with
    include_empty. One index of at most 3^(n-1) pairs serves every x.
    """
    w = max(n - 1, 0)
    b = np.arange(1 << w)[::-1]
    size = 1 << np.sum((b[:, None] >> np.arange(w)) & 1, axis=1)
    bb = np.repeat(b, size)
    # Within B's run, t counts down from 2^|B| - 1 to 0; depositing its
    # bits into B's set bits, lowest first, lists B's submasks descending.
    t = np.repeat(np.cumsum(size) - 1, size) - np.arange(bb.size)
    aa = np.zeros_like(bb)
    used = np.zeros_like(bb)
    for j in range(w):
        has = (bb >> j) & 1
        aa |= ((t >> used) & has) << j
        used += has
    keep = aa != bb
    if not include_empty:
        keep &= aa != 0
    sets = _row_sets(n)
    return _frozen(sets, sets | (1 << np.arange(n))[:, None],
                   np.stack([aa[keep], bb[keep]]))


def tables_per_scan(n: int) -> int:
    """How many n-point tables one `dr_scan` call should hold: their
    k n 2^(n-1) gains fill about _SCAN_BLOCK, 341 tables at n = 6 and two
    at n = 12."""
    return max(1, _SCAN_BLOCK // max(n << max(n - 1, 0), 1))


def _halves(*arrays):
    """For each bit j of the subsets on the middle axis of (n, 2^w, k)
    arrays, each array's views of the entries whose subsets lack j and of
    the same subsets with j added."""
    n, size, k = arrays[0].shape
    for j in range(size.bit_length() - 1):
        yield [h for a in arrays for h in a.reshape(n, -1, 2, 1 << j, k).swapaxes(0, 2)]


def _judged(gain: np.ndarray, include_empty: bool, work) -> np.ndarray:
    """Per table, the pairs of `_scan_index` whose two gains are finite,
    from the (n, 2^(n-1), k) gains, counted in "low" and "near".

    Summing over subsets counts, for every B at once, the A <= B with a
    finite gain, A = 0 only with include_empty; each finite B is judged
    against all of them but itself.
    """
    finite = np.isfinite(gain, out=work.buffer("near", gain.shape))
    below = work.buffer("low", gain.shape)
    np.copyto(below, finite)
    if not include_empty:
        below[:, 0] = 0
    itself = np.sum(below, axis=(0, 1))
    for without, added in _halves(below):
        added += without
    return (np.sum(np.multiply(below, finite, out=below), axis=(0, 1))
            - itself).astype(np.int64)


def _pair_margins(gains: np.ndarray, pairs: np.ndarray, work, overflow: bool):
    """The margins of (n, 2^(n-1), k) gains over `_scan_index` pairs, in
    the loop's order, in chunks of about _SCAN_BLOCK: whole x rows where
    they fit, and runs of one row's pairs where they do not.

    Yields (x0, index, margins): margins[j] holds table j's margins of rows
    x0.. over the pairs in index, row by row. Each pair gather copies a run
    of k values, into "near" (the A side) or "gain" (the B side); the
    margins are then copied table by table into "gain", so that per-table
    passes run along contiguous rows. With overflow, a margin that
    overflowed is set to NaN, like one that meets an off-domain gain.
    """
    n, _, k = gains.shape
    span = max(1, min(pairs.shape[1], _SCAN_BLOCK // k))
    step = max(1, _SCAN_BLOCK // (span * k))
    for x0 in range(0, n, step):
        for p0 in range(0, pairs.shape[1], span):
            index = pairs[:, p0:p0 + span]
            shape = (min(step, n - x0), index.shape[1], k)
            # mode="clip" writes straight into out; the default "raise"
            # buffers a fresh copy first. Both indexes are in range.
            margin, other = (np.take(gains[x0:x0 + step], side, axis=1, mode="clip",
                                     out=work.buffer(name, shape))
                             for side, name in zip(index, ("near", "gain")))
            with np.errstate(over="ignore"):
                np.subtract(margin, other, out=margin)
            per = work.buffer("gain", (k, margin.size // k))
            np.copyto(per, margin.reshape(-1, k).T)
            if overflow:
                np.copyto(per, math.nan, where=np.isinf(per))
            yield x0, index, per


def dr_scan(table: np.ndarray, n: int, tol: float, include_empty: bool,
            max_stored: int = 1000):
    """Judge every diminishing-returns triple f(x|A) >= f(x|B), A < B <=
    V\\{x}, over `_scan_index(n, include_empty)`: for each x, B runs down
    the subsets of V\\{x} and A down those of B.

    table holds 2^n values, or is a (..., 2^n) stack of tables. Returns
    (min_margin, compared, skipped, violation_count, violations): the first
    four per table, as plain numbers for one table and as arrays shaped like
    the stack for a stack; violations holds the first violating table's
    violations, at most max_stored of them, each (A_bits, B_bits, x, gain_A,
    gain_B). Comparisons where either gain is non-finite lie outside the
    objective's domain; they are skipped and tallied rather than judged.
    Comparisons are taken x by x and, for each x, in the index's order;
    violations are stored in that order.

    The gains are laid out as (n, 2^(n-1), k), tables innermost, in the
    thread's "gain" buffer, with NaN for an off-domain gain, which every
    NaN-ignoring minimum passes over; `compared` comes in closed form from
    the finite gains (`_judged`). Every table is then judged by its submask
    minima: n - 1 `fmin` passes over the bits leave in "low" the least gain
    over the submasks of each B (A = 0 only with include_empty) and in
    "near" the least over its proper ones, and the least of near - gain is
    the table's min_margin, since rounding is monotone. Only a table whose
    minimum is below -tol, or exactly zero (the loop kept the sign of the
    first zero it met), or that has a finite gain beyond half the largest
    float (its margins may overflow, and the loop skipped those) is judged
    pair by pair: its gains are gathered into "low", its margins compared in
    chunks (`_pair_margins`), and then the first violating table's
    violations are listed x by x.
    """
    t = np.asarray(table, dtype=np.float64)
    by_set = np.ascontiguousarray(t.reshape(-1, t.shape[-1]).T)
    k = by_set.shape[1]
    sets, upper, pairs = _scan_index(n, include_empty)
    work = kernels.thread_workspace()
    gain = np.take(by_set, upper, axis=0, out=work.buffer("gain", upper.shape + (k,)),
                   mode="clip")
    low = np.take(by_set, sets, axis=0, out=work.buffer("low", gain.shape), mode="clip")
    near = work.buffer("near", gain.shape)
    compared = np.full(k, n * pairs.shape[1], dtype=np.int64)
    huge = np.zeros(k, dtype=bool)
    # Non-finite values only mark off-domain subsets, so nan from inf - inf
    # is expected, and so is an overflow between two finite values.
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(gain, low, out=gain)
        # Zero lies inside the range, so initial=0.0 moves no bound; it
        # gives n = 0, which has no gains, a minimum and a maximum.
        if not -_HALF_MAX <= gain.min(initial=0.0) <= gain.max(initial=0.0) <= _HALF_MAX:
            np.copyto(gain, math.nan, where=~np.isfinite(gain))
            huge = np.fmax.reduce(np.abs(gain, out=near), axis=(0, 1)) > _HALF_MAX
            compared = _judged(gain, include_empty, work)
        np.copyto(low, gain)
        if not include_empty:
            low[:, 0] = math.nan
        near.fill(math.nan)
        # Bit j moves the least over the submasks of B - {j} into both
        # minima of B; every proper submask of B lacks a bit of B.
        for low0, low1, _, near1 in _halves(low, near):
            np.fmin(near1, low0, out=near1)
            np.fmin(low1, low0, out=low1)
        np.subtract(near, gain, out=near)
    min_margin = np.fmin.reduce(near.reshape(-1, k), axis=0, initial=math.inf)
    count = np.zeros(k, dtype=np.int64)
    viols = []
    scan = np.flatnonzero((min_margin < -tol) | (min_margin == 0) | huge)
    if scan.size:
        gains = np.take(gain, scan, axis=2, mode="clip",
                        out=work.buffer("low", gain.shape[:2] + scan.shape))
        overflow = bool(huge[scan].any())
        if overflow:
            compared[scan] = 0
        # A table with a zero minimum or overflowing margins takes its
        # minimum from the pairs; the others already have theirs.
        redo = (min_margin[scan] == 0) | huge[scan]
        least = np.full(scan.size, math.inf)
        for _, _, margin in _pair_margins(gains, pairs, work, overflow):
            if overflow:
                compared[scan] += np.add.reduce(np.isfinite(margin), axis=1)
            if redo.any():
                # NaN where every margin of a table's chunk was skipped.
                here = np.fmin.reduce(margin, axis=1)
                # The loop kept the first of equal minima and replaced a
                # minimum only when strictly lower, so a zero minimum keeps
                # the sign of the first zero it met.
                zero = np.flatnonzero(here == 0)
                here[zero] = margin[zero, np.argmax(margin[zero] == 0, axis=1)]
                least = np.where(here < least, here, least)
            count[scan] += np.add.reduce(margin < -tol, axis=1)
        min_margin[scan[redo]] = least[redo]
        first = np.flatnonzero(count[scan])
        if first.size and max_stored:
            one = np.take(gains, first[:1], axis=2)
            for x0, index, margin in _pair_margins(one, pairs, work, overflow):
                found = np.flatnonzero(margin[0] < -tol)[:max_stored - len(viols)]
                rows, cols = np.divmod(found, index.shape[1])
                x, (a, b) = x0 + rows, index[:, cols]
                viols.extend(zip(sets[x, a].tolist(), sets[x, b].tolist(), x.tolist(),
                                 one[x, a, 0].tolist(), one[x, b, 0].tolist()))
                if len(viols) == max_stored:
                    break
    tallies = (min_margin, compared, n * pairs.shape[1] - compared, count)
    if t.ndim == 1:
        return (float(min_margin[0]), *(int(v[0]) for v in tallies[1:]), viols)
    return (*(v.reshape(t.shape[:-1]) for v in tallies), viols)
