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
it replaced; bit x is inserted for each x.

Tables and scans also take stacks, one leading axis of draws: `value_table`
scores (k, n, n) kernels into (k, 2^n) tables with the same calls, and
`dr_scan` judges a whole (k, 2^n) stack in one pass, with the tables
innermost, returning per-table tallies and the first violating table's
violations. `tables_per_block` says how many whole tables hold about
_SCAN_BLOCK triples, the stack a caller tabulates at once, and
`tables_per_scan` how many tables' gains fill about _SCAN_BLOCK, the stack
a caller hands to one scan. Each table of a stack keeps the bits it has
alone.

A scan's gains and margins are built in place, in the "gain", "margin",
"other" and "bad" buffers of the thread's `kernels.thread_workspace()`
(see `kernels.Workspace`). Nothing a scan returns points into them.

The batched forms keep the bits of the per-subset loops they replaced. Each
block is gathered in the loop's order and summed as one contiguous row, so
numpy's pairwise summation sees the same sequence; per-anchor sums run as a
column loop from the same starting value; log-sum-exp takes its logarithm
with math.log, element by element, because np.log can differ from it in the
last place. tests/test_pure_backend.py keeps those loops as a frozen oracle
and pins the tables, scan results and totals to them bit for bit.

Conventions:
  * the empty set evaluates to 0 for every objective;
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

    s is the similarity matrix, d the distance matrix that records with a
    `distance` read, and whole the record's `whole_value` of s.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return 0.0
    inside = np.zeros(s.shape[-1], dtype=bool)
    inside[members] = True
    # A repeated member leaves the complement short, and the reshape raises.
    comp = np.flatnonzero(~inside).reshape(1, s.shape[-1] - members.size)
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

    s and d may be (..., n, n) stacks; the tables are then (..., 2^n), one
    per matrix, each the bits that matrix's own table has. The cached index
    and the largest cardinality's gathered blocks grow as n 2^n per matrix,
    so tables stay cheap up to n of about 16; the submodularity checker
    stops at 12.
    """
    n = s.shape[-1]
    if n > MAX_TABLE_N:
        raise ValueError(f"subset table limited to {MAX_TABLE_N} points, got {n}")
    whole = obj.whole_value(s, lam)
    out = np.zeros(s.shape[:-2] + (1 << n,))
    for bits, members, comp in _lattice(n):
        out[..., bits] = obj.term(s, d, members, comp, lam, eps, whole)
    return out


# A scan judges its margins in chunks of about this many triples, whole x rows
# where they fit, so its "margin" and "other" buffers stay about half a megabyte
# each; `tables_per_scan` bounds the "gain" buffer of one call the same way.
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
    """(sets, upper, a_low, b_low): what `dr_scan` compares, in the loop's
    order.

    sets is `_row_sets(n)` and upper is each of its sets with x added. a_low
    and b_low index their columns with every pair (A, B) of (n-1)-bit masks
    where A is a proper submask of B, B descending and then A descending
    over the submasks of B; A = 0 appears only with include_empty. One index
    of at most 3^(n-1) pairs serves every x.
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
    return _frozen(sets, sets | (1 << np.arange(n))[:, None], aa[keep], bb[keep])


def tables_per_block(n: int) -> int:
    """How many whole n-point tables hold about _SCAN_BLOCK of `dr_scan`'s
    default triples: 60 at n = 6, one from n = 10 on."""
    # Each x pairs every nonempty A with every proper supermask B on n - 1 bits.
    w = max(n - 1, 0)
    return max(1, _SCAN_BLOCK // max(n * (3 ** w - 2 ** (w + 1) + 1), 1))


def tables_per_scan(n: int) -> int:
    """How many n-point tables one `dr_scan` call should hold: their
    k n 2^(n-1) gains fill about _SCAN_BLOCK, 341 tables at n = 6 and two
    at n = 12."""
    return max(1, _SCAN_BLOCK // max(n << max(n - 1, 0), 1))


def _judged(finite: np.ndarray, include_empty: bool) -> np.ndarray:
    """Per table, the pairs of `_scan_index` whose two gains are finite,
    from the (n, 2^(n-1), k) finiteness of the gains.

    Summing over subsets counts, for every B at once, the A <= B with a
    finite gain; each finite B is then judged against all of them but
    itself, and against A = 0 only with include_empty.
    """
    n, size, k = finite.shape
    below = finite.astype(np.int32)
    for j in range(size.bit_length() - 1):
        v = below.reshape(n, -1, 2, 1 << j, k)
        v[:, :, 1] += v[:, :, 0]
    # below[x, B] counts the finite A <= B, and below[x, -1] all of row x.
    full = below[:, -1].astype(np.int64)
    below *= finite
    judged = np.sum(below, axis=(0, 1), dtype=np.int64) - np.sum(full, axis=0)
    if not include_empty:
        judged -= np.sum(below[:, 0] * (full - 1), axis=0)
    return judged


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

    The whole stack is judged in one pass, in chunks of about _SCAN_BLOCK
    margins. The gains are laid out as (n, 2^(n-1), k), tables innermost,
    in the thread's "gain" buffer, so that each pair gather copies a run of
    k values into "margin" (the A side) or "other" (the B side). An
    off-domain gain becomes NaN, and so does every margin it enters, which
    the NaN-ignoring minimum and the comparison with -tol both pass over:
    no per-triple finiteness pass is needed, and `compared` comes in closed
    form from the finite gains (`_judged`). Only a chunk whose smallest
    margin is below -tol is compared with -tol, in "bad", counted and
    listed. A chunk of more margins per table than tables first copies
    them table by table into "other", so that each per-table pass runs
    along a contiguous row. The loop's own steps are kept for three cases:
    a chunk with a zero minimum finds the first zero in scan order, whose
    sign the loop kept; and a call of one chunk, where one count costs less
    than the closed form, or with a finite gain beyond half the largest
    float, whose margins may overflow, counts each chunk's finite margins,
    in "bad", and sets the others to NaN.
    """
    t = np.asarray(table, dtype=np.float64)
    stack = t.reshape(-1, t.shape[-1])
    k = stack.shape[0]
    sets, upper, a_low, b_low = _scan_index(n, include_empty)
    pairs = a_low.size
    work = kernels.thread_workspace()
    by_set = np.ascontiguousarray(stack.T)
    gain = np.take(by_set, upper, axis=0, out=work.buffer("gain", upper.shape + (k,)),
                   mode="clip")
    below = np.take(by_set, sets, axis=0, out=work.buffer("other", gain.shape),
                    mode="clip")
    # Non-finite values only mark off-domain subsets, so nan from inf - inf
    # is expected, and so is an overflow between two finite values.
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(gain, below, out=gain)
    # A chunk holds whole x rows where they fit, and a run of one row's
    # pairs where they do not.
    span = max(1, min(pairs, _SCAN_BLOCK // k))
    step = max(1, _SCAN_BLOCK // (span * k))
    counted = step >= n and span >= pairs
    finite = None
    if not -_HALF_MAX <= gain.min() <= gain.max() <= _HALF_MAX:
        finite = np.isfinite(gain)
        np.copyto(gain, math.nan, where=np.logical_not(finite))
        counted = counted or not (-_HALF_MAX <= np.fmin.reduce(gain, axis=None)
                                  and np.fmax.reduce(gain, axis=None) <= _HALF_MAX)
    if counted:
        compared = np.zeros(k, dtype=np.int64)
    elif finite is None:
        compared = np.full(k, n * pairs, dtype=np.int64)
    else:
        compared = _judged(finite, include_empty)
    min_margin = np.full(k, math.inf)
    count = np.zeros(k, dtype=np.int64)
    viols = []
    first = k  # the first table with a stored violation; k while none has
    for x0 in range(0, n, step):
        x1 = min(x0 + step, n)
        for p0 in range(0, pairs, span):
            p1 = min(p0 + span, pairs)
            shape = (x1 - x0, p1 - p0, k)
            margin, other = (work.buffer(name, shape) for name in ("margin", "other"))
            # mode="clip" writes straight into out; the default "raise"
            # buffers a fresh copy first. Both indexes are in range.
            np.take(gain[x0:x1], a_low[p0:p1], axis=1, out=margin, mode="clip")
            np.take(gain[x0:x1], b_low[p0:p1], axis=1, out=other, mode="clip")
            with np.errstate(over="ignore"):
                np.subtract(margin, other, out=margin)
            flat = margin.reshape(-1, k)
            if flat.shape[0] > k:
                # "other" is free once subtracted.
                per = other.reshape(k, -1)
                np.copyto(per, flat.T)
                mask = work.buffer("bad", per.shape, bool)
            else:
                per = flat.T
                mask = work.buffer("bad", flat.shape, bool).T
            # per[j] is table j's margins in scan order; mask is laid out alike.
            if counted:
                judged = np.isfinite(per, out=mask)
                compared += np.add.reduce(judged, axis=1, dtype=np.int64)
                np.copyto(per, math.nan, where=np.logical_not(judged, out=mask))
            # NaN where every margin of a table's chunk was skipped.
            low = np.fmin.reduce(per, axis=1)
            if low.all():
                np.fmin(min_margin, low, out=min_margin)
            else:
                # The loop kept the first of equal minima and replaced a
                # minimum only when strictly lower, so a zero minimum keeps
                # the sign of the first zero it met.
                zero = np.flatnonzero(low == 0)
                low[zero] = per[zero, np.argmax(per[zero] == 0, axis=1)]
                min_margin = np.where(low < min_margin, low, min_margin)
            if not np.fmin.reduce(low) < -tol:
                continue
            bad = np.less(per, -tol, out=mask)
            count += np.add.reduce(bad, axis=1, dtype=np.int64)
            hits = np.flatnonzero(low < -tol) if max_stored else ()
            if len(hits) and hits[0] <= first:
                if hits[0] < first:
                    first, viols = int(hits[0]), []
                rows, cols = np.divmod(
                    np.flatnonzero(bad[first])[:max_stored - len(viols)], p1 - p0)
                x, a, b = x0 + rows, a_low[p0 + cols], b_low[p0 + cols]
                viols.extend(zip(sets[x, a].tolist(), sets[x, b].tolist(), x.tolist(),
                                 gain[x, a, first].tolist(), gain[x, b, first].tolist()))
    skipped = n * pairs - compared
    if t.ndim == 1:
        return (float(min_margin[0]), int(compared[0]), int(skipped[0]),
                int(count[0]), viols)
    lead = t.shape[:-1]
    return (min_margin.reshape(lead), compared.reshape(lead), skipped.reshape(lead),
            count.reshape(lead), viols)
