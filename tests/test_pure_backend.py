"""The numpy backend against its frozen scalar oracle, bit for bit.

Everything between the two "Frozen oracle" markers is the per-subset code
`setloss._backend.pure` ran before its terms, tables and scans were batched,
copied verbatim: one term per call, one table entry per subset, one Python
iteration per diminishing-returns triple. It is the reference the batched
code must reproduce exactly -- values, inf/nan positions, scan tallies,
min_margin and stored violations -- and is not to be edited.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import grads, losses, objectives, submodcheck
from setloss._backend import pure
from setloss.batch import partition_from_labels
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
    return m + math.log(float(np.sum(np.exp(x - m))))


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
    b = submodcheck.draw_batch(Rng(seed), n)
    # "triplet" forces the distance matrix, which other codes simply ignore
    cfg = losses.LossConfig("triplet", kernel=kernel, bandwidth=0.8)
    return losses.matrices(b, cfg)


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
    cfg = losses.LossConfig("triplet", kernel=kernel, bandwidth=0.8)
    # 240 rows gives 80-member classes: blocks past numpy's 8-element
    # unrolled sums and rows past its 128-element pairwise split.
    for batch in (grads.check_batch(12, 8, 0), grads.check_batch(240, 8, 1)):
        s, d = losses.matrices(batch, cfg)
        classes = partition_from_labels(batch.labels)
        old_total, old_per = total_value(code, s, d, classes, LAM, EPS)
        new_total, new_per = new_without_warnings(pure.total_value, obj, s, d,
                                                  classes, LAM, EPS,
                                                  obj.whole_value(s, LAM))
        assert same_bits(new_per, old_per), batch.n
        assert same_bits(new_total, old_total), batch.n


def test_term_values_rows_match_oracle_terms():
    s, d = instance(2, 7, "cosine")
    rows = np.array([[0, 3, 5], [1, 2, 6], [4, 5, 6], [0, 1, 2]])
    for name in objectives.OBJECTIVES:
        obj = objectives.get(name)
        new = [pure.term_value(obj, s, d, r, LAM, EPS, obj.whole_value(s, LAM))
               for r in rows]
        old = [term_value(CODE[name], s, d, r, LAM, EPS) for r in rows]
        assert same_bits(new, old), name


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
            local = pure.local_scan(table, 6, 1e-9)
            assert local[3] > 2
            # A nonempty, B = A plus one point, x outside B
            assert all(a and (b & a) == a and bin(b ^ a).count("1") == 1
                       and not b >> x & 1 for a, b, x, _, _ in local[4])
            capped = pure.local_scan(table, 6, 1e-9, 2)
            assert capped[:4] == local[:4]
            assert capped[4] == local[4][:2]
            break
    else:
        pytest.fail("no violating instance found in 50 seeds")


def _local_triples(n):
    """Brute force: (i, A, A+j) for nonempty A and i != j outside A, taken
    i first, then A ascending, then j ascending."""
    return [(i, a, a | 1 << j)
            for i in range(n)
            for a in range(1, 1 << n) if not a >> i & 1
            for j in range(n) if j != i and not a >> j & 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_local_scan_matches_brute_force_enumeration(n):
    triples = _local_triples(n)
    assert len(triples) == n * (n - 1) * (2 ** (n - 2) - 1)
    sets, a_low, b_low = pure._local_index(n)
    assert [(x, sets[x, a], sets[x, b]) for x in range(n)
            for a, b in zip(a_low.tolist(), b_low.tolist())] == triples

    rng = np.random.default_rng(n)
    table = rng.normal(size=1 << n)
    table[:4] = [0.0, math.inf, table[2], math.nan]  # {0} and {0, 1} off-domain
    t = table.tolist()
    margins, viols = [], []
    for x, a, b in triples:
        ga, gb = t[a | 1 << x] - t[a], t[b | 1 << x] - t[b]
        margins.append(ga - gb)
        if math.isfinite(ga - gb) and ga - gb < 0.0:
            viols.append((a, b, x, ga, gb))
    finite = [m for m in margins if math.isfinite(m)]
    assert 0 < len(finite) < len(margins)
    want = (min(finite), len(finite), len(margins) - len(finite), len(viols), viols)
    assert new_without_warnings(pure.local_scan, table, n, 0.0) == want


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
