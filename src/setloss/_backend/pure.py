"""The computation core: the subset lattice behind term values and scans.

Each objective's formula lives in its `objectives` record, which callers
pass in as `obj`; this module only supplies the index sets it is evaluated
on. Every term call evaluates a record's term over a stack of equal-size
index sets, a (count, m) array whose rows are the subsets A, with the
record's `whole` passed in by the caller. `term_value` scores one subset,
`total_value` each class of a `batch.ClassPartition` with the complements
the partition yields, and `value_table` evaluates once per cardinality
m = 1..n rather than once per subset, reading each cardinality's bitmasks,
members and complements from an index cached per n. Both lattice scans
run one engine, `_scan`: it takes each x's gains f(x|A) over every subset A
of V\\{x} and judges f(x|A) >= f(x|B) over a cached index of (A, B) pairs
on the n - 1 bits other than x; bit x is inserted for each x. `dr_scan`'s
index holds every submask pair A < B, in the order of the nested submask
loop it replaced. `local_scan`'s holds only the pairs B = A + j, the local
form f(A+i) + f(A+j) >= f(A+i+j) + f(A) with i = x.

Tables and scans also take stacks, one leading axis of draws: `value_table`
scores (k, n, n) kernels into (k, 2^n) tables with the same calls, and
`_scan` judges a (k, 2^n) stack in blocks of about _SCAN_BLOCK triples,
returning per-table tallies and the first violating table's violations.
`tables_per_block` says how many whole tables fill one block. Each table of
a stack keeps the bits it has alone.

A block's margins are built in place, in views of a per-thread arena
(`_arena_views`): one float64 array holding the two gathered gain blocks,
the first of which becomes the margins, and one bool array holding the
finite and violation masks. The arena grows to the largest block its thread
has judged and is never shrunk, about 1.2 MB at n = 6 and 3.1 MB at n = 12,
so successive blocks reuse pages already mapped instead of allocating
(and faulting in) fresh half-megabyte temporaries each time. Nothing a scan
returns points into it.

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
  * both lattice scans leave out comparisons with A empty (the DR scan
    unless asked, the local scan always), so they judge the same lattice:
    every chain from a nonempty A up to B stays nonempty.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from ..objectives import Objective

# value_table refuses larger ground sets before it builds anything: a table
# and its cached index grow as n 2^n, several GB at n = 24 already.
MAX_TABLE_N = 24


def _terms(obj, s: np.ndarray, d: np.ndarray | None, mem: np.ndarray,
           comp: np.ndarray, lam: float, eps: float, whole) -> np.ndarray:
    """The record's term over mem; comp holds each row's complement."""
    if mem.shape[1] == 0:
        return np.zeros(s.shape[:-2] + mem.shape[:1])
    return obj.term(s, d, mem, comp, lam, eps, whole)


def term_value(obj: Objective, s: np.ndarray, d: np.ndarray | None,
               members, lam: float, eps: float, whole) -> float:
    """Term of one objective over one index set A of distinct indices.

    s is the similarity matrix, d the distance matrix that records with a
    `distance` read, and whole the record's `whole_value` of s.
    """
    members = np.asarray(members, dtype=np.int64)
    inside = np.zeros(s.shape[-1], dtype=bool)
    inside[members] = True
    # A repeated member leaves the complement short, and the reshape raises.
    comp = np.flatnonzero(~inside).reshape(1, s.shape[-1] - members.size)
    return float(_terms(obj, s, d, members[None], comp, lam, eps, whole)[0])


def total_value(obj: Objective, s: np.ndarray, d: np.ndarray | None,
                classes, lam: float, eps: float, whole):
    """Sum of per-class terms over a `batch.ClassPartition`; returns (total,
    per-class array). whole is the record's `whole_value` of s."""
    per = np.array([float(_terms(obj, s, d, a[None], comp[None], lam, eps, whole)[0])
                    for a, comp in classes.with_complements()])
    return float(np.sum(per)), per


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
        out[..., bits] = _terms(obj, s, d, members, comp, lam, eps, whole)
    return out


# A scan judges its margins in blocks of whole x rows holding about this many
# triples: each of the arena's two float views is then about half a megabyte.
_SCAN_BLOCK = 1 << 16

_arena = threading.local()


def _arena_views(shape):
    """Two float64 and two bool arrays of `shape`, views of this thread's
    arena; their contents are left over from the last block."""
    size = math.prod(shape)
    if getattr(_arena, "size", -1) < size:
        _arena.floats = np.empty(2 * size)
        _arena.bools = np.empty(2 * size, dtype=bool)
        _arena.size = size
    f, b = _arena.floats, _arena.bools
    return (f[:size].reshape(shape), f[size:2 * size].reshape(shape),
            b[:size].reshape(shape), b[size:2 * size].reshape(shape))


def _row_sets(n: int) -> np.ndarray:
    """Row x lists every subset of V\\{x}, ascending: bit x inserted into
    each (n-1)-bit mask, so column `low` of every row is the same mask."""
    low = np.arange(1 << max(n - 1, 0))
    x = np.arange(n)[:, None]
    return (low >> x << (x + 1)) | (low & ((1 << x) - 1))


@functools.lru_cache(maxsize=8)
def _scan_index(n: int, include_empty: bool):
    """(sets, a_low, b_low): what `dr_scan` compares, in the loop's order.

    sets is `_row_sets(n)`. a_low and b_low index its columns with every
    pair (A, B) of (n-1)-bit masks where A is a proper submask of B, B
    descending and then A descending over the submasks of B; A = 0 appears
    only with include_empty. One index of at most 3^(n-1) pairs serves
    every x.
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
    return _frozen(_row_sets(n), aa[keep], bb[keep])


@functools.lru_cache(maxsize=8)
def _local_index(n: int):
    """(sets, a_low, b_low): what `local_scan` compares, the (n-1)-bit mask
    pairs (A, A | bit j) with A nonempty and j not in A, A ascending and
    then j ascending."""
    w = max(n - 1, 0)
    a = np.repeat(np.arange(1 << w), w)
    j = np.tile(np.arange(w), 1 << w)
    keep = (a != 0) & ((a >> j) & 1 == 0)
    return _frozen(_row_sets(n), a[keep], (a | 1 << j)[keep])


def tables_per_block(n: int) -> int:
    """How many whole n-point tables hold about _SCAN_BLOCK of `dr_scan`'s
    default triples: 60 at n = 6, one from n = 10 on."""
    # Each x pairs every nonempty A with every proper supermask B on n - 1 bits.
    w = max(n - 1, 0)
    return max(1, _SCAN_BLOCK // max(n * (3 ** w - 2 ** (w + 1) + 1), 1))


def _scan(table: np.ndarray, n: int, tol: float, index, max_stored: int):
    """Judge f(x|A) >= f(x|B) for each x and each pair (A, B) of `index`.

    table holds 2^n values, or is a (..., 2^n) stack of tables. Returns
    (min_margin, compared, skipped, violation_count, violations): the first
    four per table, as plain numbers for one table and as arrays shaped like
    the stack for a stack; violations holds the first violating table's
    violations, at most max_stored of them, each (A_bits, B_bits, x, gain_A,
    gain_B). Comparisons where either gain is non-finite lie outside the
    objective's domain; they are skipped and tallied rather than judged.
    Comparisons are taken x by x and, for each x, in the index's order;
    violations are stored in that order.
    """
    t = np.asarray(table, dtype=np.float64)
    stack = t.reshape(-1, t.shape[-1])
    k = stack.shape[0]
    sets, a_low, b_low = index
    # Non-finite values only mark off-domain subsets; their gains are
    # tallied as skipped below, so nan from inf - inf is expected.
    with np.errstate(invalid="ignore"):
        gain = stack[:, sets | (1 << np.arange(n))[:, None]] - stack[:, sets]
    min_margin = np.full(k, math.inf)
    compared = np.zeros(k, dtype=np.int64)
    skipped = np.zeros(k, dtype=np.int64)
    count = np.zeros(k, dtype=np.int64)
    viols = []
    first = k  # the first table with a stored violation; k while none has
    pairs = max(a_low.size, 1)
    step = max(1, _SCAN_BLOCK // (pairs * k))
    for x0 in range(0, n, step):
        g = gain[:, x0:x0 + step]
        margin, other, finite, bad = _arena_views(g.shape[:2] + a_low.shape)
        # mode="clip" writes straight into out; the default "raise" buffers
        # a fresh copy first. Both indexes are in range.
        np.take(g, a_low, axis=-1, out=margin, mode="clip")
        np.take(g, b_low, axis=-1, out=other, mode="clip")
        with np.errstate(invalid="ignore"):
            np.subtract(margin, other, out=margin)
        np.isfinite(margin, out=finite)
        judged = np.count_nonzero(finite, axis=(1, 2))
        compared += judged
        skipped += margin[0].size - judged
        # Off-domain margins become inf: never a minimum, never below -tol.
        np.copyto(margin, math.inf, where=np.logical_not(finite, out=bad))
        if judged.any():
            # argmin keeps the first of equal minima, as the loop did, and a
            # later block replaces a minimum only when strictly lower, so a
            # zero minimum keeps the sign the loop met first.
            kept = margin.reshape(k, -1)
            low = kept[np.arange(k), np.argmin(kept, axis=1)]
            min_margin = np.where(low < min_margin, low, min_margin)
        np.less(margin, -tol, out=bad)
        count += np.count_nonzero(bad, axis=(1, 2))
        hits = np.flatnonzero(bad.reshape(k, -1).any(axis=1)) if max_stored else []
        if len(hits) and hits[0] <= first:
            if hits[0] < first:
                first, viols = int(hits[0]), []
            rows, cols = np.divmod(
                np.flatnonzero(bad[first])[:max_stored - len(viols)], pairs)
            a, b = a_low[cols], b_low[cols]
            viols.extend(zip(sets[x0 + rows, a].tolist(), sets[x0 + rows, b].tolist(),
                             (x0 + rows).tolist(), g[first, rows, a].tolist(),
                             g[first, rows, b].tolist()))
    if t.ndim == 1:
        return (float(min_margin[0]), int(compared[0]), int(skipped[0]),
                int(count[0]), viols)
    lead = t.shape[:-1]
    return (min_margin.reshape(lead), compared.reshape(lead), skipped.reshape(lead),
            count.reshape(lead), viols)


def dr_scan(table: np.ndarray, n: int, tol: float, include_empty: bool,
            max_stored: int = 1000):
    """Scan every diminishing-returns triple x, A <= B <= V\\{x} with `_scan`:
    for each x, B runs down the subsets of V\\{x} and A down those of B.
    table may be a stack of tables (see `_scan`)."""
    return _scan(table, n, tol, _scan_index(n, include_empty), max_stored)


def local_scan(table: np.ndarray, n: int, tol: float, max_stored: int = 1000):
    """Scan f(A+i) + f(A+j) >= f(A+i+j) + f(A), A nonempty, i != j outside A.

    Each comparison is the DR triple x = i, B = A + j, judged by `_scan`.
    A function is submodular exactly when all of them hold (Schrijver,
    Combinatorial Optimization, 2003), so this gives `dr_scan`'s default
    verdict from n(n-1)(2^(n-2) - 1) comparisons, each pair {i, j} twice.
    """
    return _scan(table, n, tol, _local_index(n), max_stored)
