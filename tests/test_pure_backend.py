"""The numpy backend against its frozen scalar oracle, bit for bit.

Everything between the two "Frozen oracle" markers is the per-subset code
`setloss._backend.pure` ran before its terms, tables and scans were batched,
copied verbatim: one term per call, one table entry per subset, one Python
iteration per diminishing-returns triple. It is the reference the batched
code must reproduce exactly -- values, inf/nan positions, scan tallies,
min_margin and stored violations -- and is not to be edited.

One line has been edited since: `_lse` took its logarithm with `math.log`
and now takes a scalar `np.log`, because the batched log-sum-exp takes
numpy's `np.log`, as it takes `np.exp`, and a scalar `np.log` gives the
array's bits on the host it runs on.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setloss import grads, kernels, losses, objectives, submodcheck
from setloss._backend import pure
from setloss.batch import EmbeddingBatch, partition_from_labels, span
from setloss.errors import NotPositiveDefinite
from setloss.sampling import Rng

# ---- Frozen oracle -------------------------------------------------------

TRIPLET, NPAIRS, OPL, SNN, SUPCON = 0, 1, 2, 3, 4
SUB_TRIPLET, SUB_SNN, SUB_SUPCON = 5, 6, 7
GC_SF, GC_CF, LOGDET_SF, LOGDET_CF, FL = 8, 9, 10, 11, 12


def _lse(x: np.ndarray) -> float:
    """Stabilized log(sum(exp(x))); -inf for an empty vector."""
    if x.size == 0:
        return -math.inf
    m = float(np.max(x))
    return m + float(np.log(float(np.sum(np.exp(x - m)))))


def _logdet_spd(m: np.ndarray) -> float:
    """log det via symmetric positive-definite factorization."""
    if m.shape[0] == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"{m.shape[0]}x{m.shape[0]} regularized block is not positive definite"
        ) from None
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def term_value(code: int, s: np.ndarray, d: np.ndarray | None,
               members: np.ndarray, lam: float, eps: float,
               logdet_full: float | None = None) -> float:
    """Per-class (or per-subset) term of one objective.

    s is the similarity matrix, d the Euclidean distance matrix (only read by
    the triplet and submod-snn codes), members the index set A. logdet_full
    lets callers amortize log det(S_V + lam I) across logdet-cf calls.
    """
    members = np.asarray(members, dtype=np.int64)
    m = members.size
    n = s.shape[0]
    if m == 0:
        return 0.0
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    comp = np.flatnonzero(~mask)

    if code == FL:
        if comp.size == 0:
            return 0.0
        return float(np.sum(np.max(s[np.ix_(comp, members)], axis=1)))

    if code == GC_SF:
        cross = float(np.sum(s[np.ix_(members, comp)]))
        within = float(np.sum(s[np.ix_(members, members)]))
        return cross - lam * within

    if code == GC_CF:
        return lam * float(np.sum(s[np.ix_(members, comp)]))

    if code == LOGDET_SF or code == LOGDET_CF:
        block = s[np.ix_(members, members)] + lam * np.eye(m)
        val = _logdet_spd(block)
        if code == LOGDET_CF:
            if logdet_full is None:
                logdet_full = _logdet_spd(s + lam * np.eye(n))
            val -= logdet_full
        return val

    if code == OPL:
        within = float(np.sum(s[np.ix_(members, members)]))
        cross = float(np.sum(s[np.ix_(members, comp)]))
        return (1.0 - within) + cross

    if code == NPAIRS or code == SUPCON:
        within = float(np.sum(s[np.ix_(members, members)]))
        row = np.sum(s[members], axis=1) - 1.0
        # Rowsums at or below 1 push the log outside its domain; the scan
        # layers treat the resulting inf/nan as off-domain, not as values.
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = float(np.sum(np.log(row)))
        if code == NPAIRS:
            return -(within + logs)
        return -within / m + logs

    if code == SUB_TRIPLET:
        s2 = s * s
        cross = float(np.sum(s2[np.ix_(members, comp)]))
        within = float(np.sum(s2[np.ix_(members, members)]))
        return cross - within

    if code == SUB_SUPCON:
        within = float(np.sum(s[np.ix_(members, members)]))
        total = -within
        for i in members:
            total += _lse(s[i, comp])
        return total

    if code == SNN:
        total = 0.0
        for i in members:
            own = members[members != i]
            pos = _lse(s[i, own]) if own.size else 0.0
            neg = _lse(s[i, comp])
            total += neg - pos
        return total

    if code == SUB_SNN:
        total = 0.0
        for i in members:
            own = members[members != i]
            pos = _lse(d[i, own]) if own.size else 0.0
            total += pos + _lse(s[i, comp])
        return total

    if code == TRIPLET:
        if comp.size == 0 or m < 2:
            return 0.0
        d2m = d[np.ix_(members, members)] ** 2
        d2c = d[np.ix_(members, comp)] ** 2
        total = 0.0
        for a in range(m):
            hinge = np.maximum(d2m[a][:, None] - d2c[a][None, :] + eps, 0.0)
            hinge[a, :] = 0.0
            total += float(np.sum(hinge))
        return total

    raise ValueError(f"unknown objective code {code}")


def total_value(code: int, s: np.ndarray, d: np.ndarray | None,
                sets, lam: float, eps: float):
    """Sum of per-class terms; returns (total, per-class array)."""
    logdet_full = None
    if code == LOGDET_CF:
        n = s.shape[0]
        logdet_full = _logdet_spd(s + lam * np.eye(n))
    per = np.array(
        [term_value(code, s, d, a, lam, eps, logdet_full) for a in sets]
    )
    return float(np.sum(per)), per


def value_table(code: int, s: np.ndarray, d: np.ndarray | None,
                lam: float, eps: float) -> np.ndarray:
    """Objective value for every subset of V, indexed by bitmask."""
    n = s.shape[0]
    logdet_full = None
    if code == LOGDET_CF:
        logdet_full = _logdet_spd(s + lam * np.eye(n))
    out = np.empty(1 << n)
    idx = np.arange(n)
    for bits in range(1 << n):
        members = idx[(bits >> idx) & 1 == 1]
        out[bits] = term_value(code, s, d, members, lam, eps, logdet_full)
    return out


def dr_scan(table: np.ndarray, n: int, tol: float, include_empty: bool,
            max_stored: int = 1000):
    """Scan every diminishing-returns triple x, A <= B <= V\\{x}.

    Returns (min_margin, compared, skipped, violation_count, violations)
    where each stored violation is (A_bits, B_bits, x, gain_A, gain_B).
    Triples where either gain is non-finite lie outside the objective's
    domain; they are skipped and tallied rather than judged.
    """
    t = table
    full = (1 << n) - 1
    min_margin = math.inf
    compared = 0
    skipped = 0
    count = 0
    viols = []
    for x in range(n):
        xb = 1 << x
        rest = full & ~xb
        b = rest
        while True:
            # Plain floats: inf arithmetic without numpy scalar warnings.
            gain_b = float(t[b | xb]) - float(t[b])
            a = b
            while True:
                if a != b and (include_empty or a != 0):
                    gain_a = float(t[a | xb]) - float(t[a])
                    margin = gain_a - gain_b
                    if math.isfinite(margin):
                        compared += 1
                        if margin < min_margin:
                            min_margin = margin
                        if margin < -tol:
                            count += 1
                            if len(viols) < max_stored:
                                viols.append((a, b, x, float(gain_a), float(gain_b)))
                    else:
                        skipped += 1
                if a == 0:
                    break
                a = (a - 1) & b
            if b == 0:
                break
            b = (b - 1) & rest
    return min_margin, compared, skipped, count, viols

# ---- Frozen oracle ends --------------------------------------------------


LAM, EPS = 1.0, 0.2
KERNELS = ("cosine", "rbf")
# The oracle spells each objective as its position in the registry; the
# library takes the records themselves.
CODE = {name: i for i, name in enumerate(objectives.OBJECTIVES)}


def instance(seed, n, kernel):
    return both(submodcheck.draw_batch(Rng(seed), n), kernel)


def both(batch, kernel):
    """S and D, built directly: each objective reads the ones it needs."""
    return kernels.similarity(batch, kernel, 0.8), kernels.euclidean_distance(batch)


def same_bits(new, old):
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    return new.shape == old.shape and np.array_equal(new.view(np.int64),
                                                     old.view(np.int64))


def new_without_warnings(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_value_table_matches_oracle(name, kernel):
    obj = objectives.get(name)
    for n in (1, 2, 6, 9):
        s, d = instance(n, n, kernel)
        old = value_table(CODE[name], s, d, LAM, EPS)
        new = new_without_warnings(pure.value_table, obj, s, d, LAM, EPS)
        assert same_bits(new, old), n


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_dr_scan_matches_oracle(name, kernel):
    code = CODE[name]
    for n, seed in ((1, 0), (2, 0), (6, 0), (6, 1)):
        s, d = instance(seed, n, kernel)
        table = value_table(code, s, d, LAM, EPS)
        for include_empty in (False, True):
            for tol in (1e-9, 0.0):
                old = dr_scan(table, n, tol, include_empty)
                new = new_without_warnings(pure.dr_scan, table, n, tol,
                                           include_empty)
                # repr tells -0.0 from 0.0 and shows every float exactly
                assert repr(new) == repr(old), (n, seed, include_empty, tol)


def test_dr_scan_matches_oracle_across_blocks():
    # At n = 10 a scan judges its x rows in several blocks, the last one short.
    n = 10
    s, d = instance(5, n, "cosine")
    for name in ("supcon", "submod-snn"):
        table = value_table(CODE[name], s, d, LAM, EPS)
        for max_stored in (3, 1000):
            old = dr_scan(table, n, 1e-9, False, max_stored)
            new = new_without_warnings(pure.dr_scan, table, n, 1e-9, False,
                                       max_stored)
            assert old[3] > max_stored
            assert repr(new) == repr(old), (name, max_stored)


def _loop_pairs(n, include_empty):
    """The frozen loop's (A, B) pairs on the n - 1 bits other than x, in its
    order: B down the subsets, A down the proper submasks of B."""
    rest = (1 << (n - 1)) - 1
    pairs = []
    b = rest
    while True:
        a = b
        while True:
            if a != b and (include_empty or a != 0):
                pairs.append((a, b))
            if a == 0:
                break
            a = (a - 1) & b
        if b == 0:
            break
        b = (b - 1) & rest
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def whole_row_scan(table, n, tol, include_empty, max_stored=1000):
    """`dr_scan`'s results from every x's margins at once: g[a] - g[b] over
    the loop's pairs, with non-finite margins skipped. np.argmin returns the
    first of equal minima, as the loop kept it."""
    a_low, b_low = _loop_pairs(n, include_empty)
    low = np.arange(1 << (n - 1))
    min_margin, compared, skipped, count, viols = math.inf, 0, 0, 0, []
    for x in range(n):
        sets = (low >> x << (x + 1)) | (low & ((1 << x) - 1))
        with np.errstate(invalid="ignore", over="ignore"):
            g = table[sets | (1 << x)] - table[sets]
            margin = g[a_low] - g[b_low]
        finite = np.isfinite(margin)
        compared += int(np.sum(finite))
        skipped += int(np.sum(~finite))
        judged = np.where(finite, margin, math.inf)
        if judged.size and judged[np.argmin(judged)] < min_margin:
            min_margin = float(judged[np.argmin(judged)])
        bad = np.flatnonzero(finite & (margin < -tol))
        count += bad.size
        viols += [(int(sets[a_low[i]]), int(sets[b_low[i]]), x, float(g[a_low[i]]),
                   float(g[b_low[i]])) for i in bad[:max_stored - len(viols)]]
    return min_margin, compared, skipped, count, viols


@pytest.mark.parametrize("n", (6, 9, 10, 11, 12))
def test_dr_scan_matches_a_whole_row_oracle_past_the_loop(n):
    # From n = 9 on the frozen loop is too slow; at n = 6 it vouches for the
    # whole-row oracle. Each table is judged alone and in a stack of the two.
    for name in objectives.OBJECTIVES:
        for kernel in KERNELS:
            tables = [pure.value_table(objectives.get(name), *instance(seed, n, kernel),
                                       LAM, EPS) for seed in (0, 1)]
            lone = [whole_row_scan(t, n, 1e-9, False) for t in tables]
            if n == 6:
                assert repr(lone) == repr([dr_scan(t, n, 1e-9, False) for t in tables])
            for t, old in zip(tables, lone):
                new = new_without_warnings(pure.dr_scan, t, n, 1e-9, False)
                assert repr(new) == repr(old), (name, kernel)
            got = new_without_warnings(pure.dr_scan, np.stack(tables), n, 1e-9, False)
            assert [[repr(v) for v in tally.tolist()] for tally in got[:4]] == [
                [repr(old[f]) for old in lone] for f in range(4)], (name, kernel)
            assert got[4] == next((old[4] for old in lone if old[3]), [])


@pytest.mark.parametrize("include_empty", [False, True])
def test_dr_scan_of_an_empty_ground_set_compares_nothing(include_empty):
    # n = 0 has one subset and no triple, so it scans as n = 1 does, alone
    # and per table of a stack. Its empty gains used to raise numpy's bare
    # "zero-size array to reduction operation minimum".
    for n in (0, 1):
        table = np.arange(1 << n, dtype=np.float64)
        want = dr_scan(table, n, 1e-9, include_empty)
        assert want == (math.inf, 0, 0, 0, [])
        assert repr(pure.dr_scan(table, n, 1e-9, include_empty)) == repr(want)
        stack = np.broadcast_to(table, (2, 3, 1 << n))
        *tallies, viols = pure.dr_scan(stack, n, 1e-9, include_empty)
        assert [(v.shape, v.tolist()) for v in tallies] == [
            ((2, 3), [[w] * 3] * 2) for w in want[:4]]
        assert [v.dtype for v in tallies[1:]] == [np.int64] * 3
        assert viols == []


def test_dr_scan_keeps_the_sign_of_the_first_zero_minimum():
    # With the empty set included, n = 2 has two triples; both margins are
    # zero here, one of them -0.0, and the loop keeps whichever came first.
    for table in ([0.0, -0.0, 1.0, 1.0], [0.0, 1.0, -0.0, 1.0]):
        table = np.array(table)
        old = dr_scan(table, 2, 0.0, True)
        assert old[:2] == (0.0, 2)
        assert repr(pure.dr_scan(table, 2, 0.0, True)) == repr(old)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_total_value_matches_oracle(name, kernel):
    code, obj = CODE[name], objectives.get(name)
    # 240 rows gives 80-member classes: blocks past numpy's 8-element
    # unrolled sums and rows past its 128-element pairwise split.
    for batch in (grads.check_batch(12, 8, 0), grads.check_batch(240, 8, 1)):
        s, d = both(batch, kernel)
        classes = partition_from_labels(batch.labels)
        old_total, old_per = total_value(code, s, d, classes, LAM, EPS)
        new_total, new_per, _ = new_without_warnings(pure.total_value, obj, s, d,
                                                     classes, LAM, EPS,
                                                     obj.whole_value(s, LAM))
        assert same_bits(new_per, old_per), batch.n
        assert same_bits(new_total, old_total), batch.n


def _class_runs(n, dim, seed, split=False):
    """check_batch's rows sorted by class, so that every class is one run of
    rows, as in the training data. With split, two rows of classes 1 and 2
    trade places, so that only class 0 is still a run."""
    b = grads.check_batch(n, dim, seed)
    order = np.argsort(b.labels, kind="stable")
    labels = b.labels[order]
    if split:
        one, two = np.flatnonzero(labels == 1)[1], np.flatnonzero(labels == 2)[1]
        labels[[one, two]] = labels[[two, one]]
    return EmbeddingBatch(b.vectors[order], labels)


RUN_BATCHES = [_class_runs(12, 8, 0), _class_runs(240, 8, 1),
               _class_runs(12, 8, 2, split=True), _class_runs(240, 8, 3, split=True)]


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_total_value_matches_oracle_on_classes_that_are_runs(name, kernel):
    # A class that is a run of rows is read through slices; the others, in
    # the split batches, through gathers.
    code, obj = CODE[name], objectives.get(name)
    # Negated distances need a large lam before a log-det block is
    # positive definite.
    lam = 1e4 if kernel == "neg-euclidean" else LAM
    for batch in RUN_BATCHES:
        s, d = both(batch, kernel)
        classes = partition_from_labels(batch.labels)
        runs = [span(a) is not None for a in classes.sets]
        assert all(runs) == (batch.labels[1:] >= batch.labels[:-1]).all()
        old_total, old_per = total_value(code, s, d, classes, lam, EPS)
        new_total, new_per, _ = new_without_warnings(pure.total_value, obj, s, d,
                                                     classes, lam, EPS,
                                                     obj.whole_value(s, lam))
        assert same_bits(new_per, old_per), batch.n
        assert same_bits(new_total, old_total), batch.n


def _index_set(draw, n, size, kind):
    """A (size,) index set into range(n): a run, the run reversed, or any
    distinct rows in any order."""
    if kind == "run":
        lo = draw(st.integers(0, n - size))
        return np.arange(lo, lo + size)
    if kind == "reversed":
        lo = draw(st.integers(0, n - size))
        return np.arange(lo, lo + size)[::-1].copy()
    return np.array(draw(st.permutations(range(n)))[:size], dtype=np.int64)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_block_through_slices_is_the_gathered_block(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(0, 2))
    count = 1 if k == 0 else data.draw(st.integers(1, 3))
    shape = (n, n) if k == 0 else (k, n, n)
    x = Rng(data.draw(st.integers(0, 2 ** 16))).normals(shape)
    stacks = []
    for _ in range(2):
        size = data.draw(st.integers(0, n))
        kind = data.draw(st.sampled_from(["run", "reversed", "any"]))
        stacks.append(np.stack([_index_set(data.draw, n, size, kind)
                                for _ in range(count)]))
    rows, cols = stacks
    got = objectives._block(x, rows, cols)
    want = objectives._gather(x, rows[:, :, None], cols[:, None, :])
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_block_with_only_its_columns_a_run_copies_no_column_strip():
    # A middle class of four 100-row runs: its complement is not a run, and
    # the block reads the class's columns at the complement's rows. Copying
    # the whole n x |A| column strip first would add 320 KB to the block's
    # 240 KB.
    n = 400
    s = Rng(0).normals((n, n))
    a = np.arange(100, 200)
    comp = np.setdiff1d(np.arange(n), a)
    objectives._block(s, comp[None], a[None])
    tracemalloc.start()
    try:
        block = objectives._block(s, comp[None], a[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.nbytes == 8 * 300 * 100
    assert peak < 1.2 * block.nbytes


# Signed zeros, infinities, NaN and values whose sum overflows.
_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308)


@st.composite
def _summed_rows(draw):
    """Rows of 0 to 20 entries on 0 to 3 leading axes, C-contiguous,
    transposed (every axis reversed) or sliced (every other entry of rows
    twice as long), drawn from finite values, from finite values mixed with
    `_EDGES`, or from signed zeros alone."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    shape += (draw(st.integers(0, 20)),)
    finite = st.floats(-1e3, 1e3)
    entries = draw(st.sampled_from([finite, finite | st.sampled_from(_EDGES),
                                    st.sampled_from((0.0, -0.0))]))
    layout = draw(st.sampled_from(["c", "transposed", "sliced"]))
    if layout == "transposed":
        shape = shape[::-1]
    elif layout == "sliced":
        shape = shape[:-1] + (2 * shape[-1],)
    x = draw(hnp.arrays(np.float64, shape, elements=entries, fill=st.nothing()))
    return {"c": x, "transposed": x.T, "sliced": x[..., ::2]}[layout]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_summed_rows())
# Summed from x[..., 0] alone, a row of -0.0 would give -0.0 where np.sum
# gives 0.0.
@example(np.full((2, 3), -0.0))
def test_row_sum_keeps_np_sum_bits(x):
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = objectives._row_sum(x), np.sum(x, axis=-1)
    assert np.shape(got) == want.shape
    assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(1, 21))
def test_row_sum_and_lse_keep_np_sum_bits_on_rows_that_round(k):
    # Normals of scales from 1e-4 to 1e4 round at almost every add, so a sum
    # in another order than numpy's shows in the last bits; most of
    # hypothesis's floats add exactly in any order.
    x = Rng(k).normals((500, k)) * np.exp(3.0 * Rng(k + 100).normals((500, k)))
    for view in (x, np.asfortranarray(x), x[:, ::-1]):
        assert objectives._row_sum(view).tobytes() == np.sum(view, axis=-1).tobytes()
        top = np.max(view, axis=-1)
        lse = top + np.log(np.sum(np.exp(view - top[:, None]), axis=-1))
        assert objectives._lse(view).tobytes() == lse.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_gather_is_the_indexed_block_in_c_order(data):
    # One index takes from the last axis of a vector or a stack of them, two
    # from the last two of a matrix, square or not, or a stack of them, every
    # index shape broadcast as numpy's indexing broadcasts it.
    sides = tuple(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)))
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    x = Rng(data.draw(st.integers(0, 2 ** 16))).normals(lead + sides)
    shapes = data.draw(hnp.mutually_broadcastable_shapes(
        num_shapes=len(sides), min_dims=1, max_dims=3, max_side=4))
    index = tuple(data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, side - 1)))
                  for shape, side in zip(shapes.input_shapes, sides))
    got = objectives._gather(x, *index)
    want = np.ascontiguousarray(x[(Ellipsis,) + index])
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_matrices_of_a_stack_are_c_contiguous(name, kernel):
    # `objectives._gather` flattens a stack's last two axes by reshape,
    # which copies the whole stack unless it is C-contiguous.
    z = submodcheck.draw_stack(Rng(0), 0, 3, 5)
    config = losses.LossConfig(name, kernel=kernel)
    for workspace in (None, kernels.Workspace()):
        built = [m for m in losses.matrices(z, config, workspace) if m is not None]
        assert built and all(m.flags.c_contiguous for m in built)


def test_term_values_rows_match_oracle_terms():
    s, d = instance(2, 7, "cosine")
    rows = np.array([[0, 3, 5], [1, 2, 6], [4, 5, 6], [0, 1, 2]])
    for name in objectives.OBJECTIVES:
        obj = objectives.get(name)
        new = [pure.term_value(obj, s, d, r, LAM, EPS, obj.whole_value(s, LAM))
               for r in rows]
        old = [term_value(CODE[name], s, d, r, LAM, EPS) for r in rows]
        assert same_bits(new, old), name


def test_term_value_of_the_empty_set_is_zero():
    s, d = instance(2, 7, "cosine")
    for name in objectives.OBJECTIVES:
        obj = objectives.get(name)
        assert pure.term_value(obj, s, d, [], LAM, EPS, obj.whole_value(s, LAM)) == 0.0


def test_logdet_rejects_an_indefinite_block():
    s = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    obj = objectives.get("logdet-sf")
    with pytest.raises(NotPositiveDefinite):
        term_value(CODE["logdet-sf"], s, None, [0, 1], 0.0, EPS)
    with pytest.raises(NotPositiveDefinite):
        pure.term_value(obj, s, None, [0, 1], 0.0, EPS, None)
    with pytest.raises(NotPositiveDefinite):
        pure.total_value(obj, s, None, partition_from_labels([1, 1, 0]), 0.0, EPS,
                         None)
    with pytest.raises(NotPositiveDefinite):
        pure.value_table(obj, s, None, 0.0, EPS)


def test_table_guard_above_word_width():
    cached = pure._lattice.cache_info().currsize
    with pytest.raises(ValueError):
        pure.value_table(objectives.get("triplet"), np.eye(25), np.zeros((25, 25)),
                         1.0, 0.2)
    assert pure._lattice.cache_info().currsize == cached


def test_max_stored_caps_the_violation_list():
    obj = objectives.get("supcon")
    # find a violating instance, then cap storage at 2
    for seed in range(50):
        s, d = instance(seed, 6, "cosine")
        table = pure.value_table(obj, s, d, LAM, EPS)
        full = pure.dr_scan(table, 6, 1e-9, False)
        if full[3] > 2:
            capped = pure.dr_scan(table, 6, 1e-9, False, 2)
            assert capped[:4] == full[:4]
            assert len(capped[4]) == 2
            assert capped[4] == full[4][:2]
            assert capped[4] == dr_scan(table, 6, 1e-9, False)[4][:2]
            break
    else:
        pytest.fail("no violating instance found in 50 seeds")


# Entries a table may hold besides its own: off-domain ones, and finite ones
# near the largest float, whose gains and margins overflow or sit at half of
# it.
OFF_DOMAIN = (math.inf, -math.inf, math.nan)
HUGE = (1.7e308, -1.7e308, 8.98846567431158e307, -8.98846567431158e307)


@st.composite
def table_stacks(draw):
    """(n, distinct tables, order): a stack is the distinct tables taken in
    that order, 1 to 250 of them, so each needs the loop oracle only once."""
    n = draw(st.sampled_from((6, 7, 8, 5, 4, 3, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ones = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        form = draw(st.sampled_from(("noise", "ties", "zeros", "modular", "concave")))
        if form == "noise":
            table = rng.normal(size=1 << n)
        elif form == "ties":
            table = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], 1 << n)
        elif form == "zeros":  # every margin a zero of either sign
            table = np.where(rng.random(1 << n) < 0.5, -0.0, 0.0)
        elif form == "modular":  # every margin +0.0
            table = ones @ rng.integers(-2, 3, n).astype(float)
        else:  # submodular, up to rounding
            table = np.sqrt(ones @ rng.uniform(0.0, 2.0, n))
        marks = draw(st.sampled_from(((), OFF_DOMAIN, OFF_DOMAIN + HUGE, HUGE)))
        marked = draw(st.integers(1, 12)) if marks else 0
        table[rng.integers(0, 1 << n, marked)] = rng.choice(marks or [0.0], marked)
        distinct.append(table)
    return n, distinct, rng.integers(0, len(distinct), draw(st.integers(1, 250)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table_stacks(), st.booleans(), st.sampled_from((0.0, 1e-9, 0.5)),
       st.sampled_from((0, 3, 1000)))
def test_a_stack_scan_matches_the_oracle_on_every_table(case, include_empty, tol,
                                                         max_stored):
    # One call judges the whole stack in chunks: whole x rows of many
    # tables, or runs of one row's pairs at n = 8 with many tables.
    n, distinct, order = case
    lone = [dr_scan(t, n, tol, include_empty, max_stored) for t in distinct]
    assert repr(new_without_warnings(pure.dr_scan, distinct[0], n, tol,
                                     include_empty, max_stored)) == repr(lone[0])
    got = new_without_warnings(pure.dr_scan, np.stack(distinct)[order], n, tol,
                               include_empty, max_stored)
    # repr tells -0.0 from 0.0 and shows every float exactly
    assert [[repr(v) for v in tally.tolist()] for tally in got[:4]] == [
        [repr(lone[i][f]) for i in order] for f in range(4)]
    violating = [i for i in order if lone[i][3]]
    assert got[4] == (lone[violating[0]][4] if violating else [])


def _remap(bits, perm):
    """The original bitmask of permuted-point bitmask `bits`."""
    out = 0
    for j, p in enumerate(perm):
        if bits >> j & 1:
            out |= 1 << p
    return out


@st.composite
def permuted_draws(draw):
    n = draw(st.integers(1, 7))
    return (draw(st.integers(0, 2 ** 16)), n,
            np.array(draw(st.permutations(range(n)))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permuted_draws(), st.sampled_from(objectives.OBJECTIVES),
       st.sampled_from(KERNELS))
def test_relabeling_the_ground_set_permutes_the_table(draw, name, kernel):
    seed, n, perm = draw
    obj = objectives.get(name)
    s, d = instance(seed, n, kernel)
    table = pure.value_table(obj, s, d, LAM, EPS)
    # Point j of the permuted ground set is point perm[j] of the original.
    table_p = pure.value_table(obj, s[np.ix_(perm, perm)],
                               d[np.ix_(perm, perm)], LAM, EPS)
    remapped = table[[_remap(bits, perm) for bits in range(1 << n)]]
    np.testing.assert_allclose(table_p, remapped, rtol=1e-12, atol=1e-12)
    scan = pure.dr_scan(table, n, 1e-9, False)
    scan_p = pure.dr_scan(table_p, n, 1e-9, False)
    assert scan_p[1:4] == scan[1:4]
