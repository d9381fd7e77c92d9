import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import losses, objectives, submodcheck
from setloss._backend import backend
from setloss.batch import EmbeddingBatch
from setloss.errors import GroundSetTooLarge, ValidationError
from setloss.sampling import Rng

RBF = losses.LossConfig(kernel="rbf", bandwidth=1.0)
COSINE = losses.LossConfig(kernel="cosine")
NEG_EUCLIDEAN = losses.LossConfig(kernel="neg-euclidean")


def test_expected_verdict_follows_the_claim():
    want = {"submodular": "submodular-consistent", "not-submodular": "violated",
            "refuted": "violated"}
    for obj in objectives.REGISTRY:
        assert obj.expected_verdict == want[obj.claim], obj.name
    assert objectives.get("submod-snn").expected_verdict == "violated"


def test_full_set_fl_is_zero():
    b = submodcheck.draw_batch(Rng(0), 6)
    f = submodcheck.as_set_function("fl", b, RBF)
    assert f(range(6)) == 0.0
    assert f([]) == 0.0


@pytest.mark.parametrize("members", [[-1], {4, -1}, [4, 4], [5], [1.0],
                                     [0, np.float64(2.0)], "ab", 3, [None]])
def test_a_set_function_refuses_what_is_not_a_set_of_rows(members):
    # A negative member used to wrap around (f({-1}) == f({4})), a repeated
    # one to fail in a reshape and one past n to index out of range.
    b = submodcheck.draw_batch(Rng(0), 5)
    f = submodcheck.as_set_function("gc-cf", b, RBF)
    with pytest.raises(ValidationError, match=r"distinct integers in range\(5\)"):
        f(members)
    assert f((np.int64(4), 1)) == f({1, 4}) == f(range(1, 5, 3))


def test_set_function_agrees_with_total_loss_on_class_partition():
    rng = Rng(4)
    v = rng.normals((6, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = np.array([0, 0, 0, 1, 1, 1])
    b = EmbeddingBatch(v, labels)
    for name in ("fl", "gc-cf", "logdet-cf", "submod-supcon"):
        cfg = losses.LossConfig(name, kernel="rbf", bandwidth=1.0)
        res = losses.total_loss(b, cfg)
        f = submodcheck.as_set_function(name, b, RBF)
        assert f([0, 1, 2]) == pytest.approx(res.per_class[0], rel=1e-12, abs=1e-12)
        assert f([3, 4, 5]) == pytest.approx(res.per_class[1], rel=1e-12, abs=1e-12)


def test_identity_kernel_makes_gc_modular():
    # Orthonormal embeddings: S = I, so gc-sf(A) = -lam |A|, a modular
    # function; gains are constant and the DR scan sits exactly on margin 0.
    b = EmbeddingBatch(np.eye(5), np.zeros(5, dtype=np.int64))
    f = submodcheck.as_set_function("gc-sf", b, COSINE)
    assert f([0]) == pytest.approx(-1.0)
    assert f([0, 2]) == pytest.approx(f([0]) + f([2]))
    assert f([0, 1, 3]) == pytest.approx(f([0, 1]) + f([3]))
    res = submodcheck.exhaustive_dr_check("gc-sf", b, COSINE)
    assert res.violation_count == 0
    assert res.min_margin == 0.0
    cf = submodcheck.exhaustive_dr_check("gc-cf", b, COSINE)
    assert cf.violation_count == 0
    # A zero tolerance is allowed, and judges those exact ties as holding.
    res = submodcheck.exhaustive_dr_check("gc-sf", b, COSINE, 0.0)
    assert (res.violation_count, res.min_margin) == (0, 0.0)


def test_fl_submodular_on_random_kernels():
    res = submodcheck.consistency_scan("fl", n=6, draws=200, seed=0)
    assert res.verdict == "submodular-consistent"
    assert res.trials == 200
    assert res.min_margin >= -submodcheck.DEFAULT_TOLERANCE


def test_gc_cf_submodular_over_thousand_draws():
    res = submodcheck.consistency_scan("gc-cf", n=6, draws=1000, seed=0)
    assert res.verdict == "submodular-consistent"
    assert res.min_margin >= -1e-9


def test_supcon_counterexample_found_and_reproducible():
    res = submodcheck.counterexample_search("supcon")
    assert res.verdict == "violated"
    assert res.trials <= 1000
    assert res.violations
    assert res.min_margin < -submodcheck.DEFAULT_TOLERANCE
    # Recorded gains must reproduce from the set function itself.
    rng = Rng(0)
    batch = submodcheck.draw_batch(rng.derive(res.trials - 1), 6)
    f = submodcheck.as_set_function("supcon", batch, submodcheck.COUNTEREXAMPLE_CONFIG)
    a, bset, x, gain_a, gain_b = res.violations[0]
    assert set(a) <= set(bset)
    assert x not in bset
    assert f(list(a) + [x]) - f(list(a)) == pytest.approx(gain_a, rel=1e-12)
    assert f(list(bset) + [x]) - f(list(bset)) == pytest.approx(gain_b, rel=1e-12)
    assert gain_a - gain_b < -submodcheck.DEFAULT_TOLERANCE


@pytest.mark.parametrize("config", [COSINE, RBF], ids=["cosine", "rbf"])
@pytest.mark.parametrize("n", [12, 13, 16])
def test_submod_snn_orthonormal_counterexample_closed_form(n, config):
    """submod-snn as implemented is not submodular: a closed-form proof.

    The objective is f(A) = sum_{i in A} [ log sum_{j in A\\{i}} e^{D_ij}
    + log sum_{j in V\\A} e^{S_ij} ]. On orthonormal rows every
    off-diagonal distance is D = sqrt(2) and every off-diagonal similarity
    is one constant s (0 under cosine, e^{-1} under RBF with bandwidth 1),
    so for 2 <= m = |A| < n

        f(A) = m (sqrt(2) + s) + m log(m - 1) + m log(n - m).

    The first part is modular and cancels in any diminishing-returns
    margin. The m log(m - 1) part comes from the anchor-indexed positive sum
    sum_{i in A} log sum_{j in A\\{i}} e^{D_ij}: adding a point adds one
    more anchor and also one more summand inside every existing anchor's
    log-sum-exp, and this part is convex in m. With A = {0, 1},
    B = {0, 1, 2} and x = 3 the margin f(x|A) - f(x|B) = 2 f_3 - f_2 - f_4 is

        log(64/81) + 6 log(n - 3) - 2 log(n - 2) - 4 log(n - 4),

    whatever the kernel. The complement term's concave m log(n - m) wins
    up to n = 12; from n = 13 on the anchor sum wins and the margin is
    negative, so f(x|A) < f(x|B) with A a subset of B: diminishing returns
    fails. All sets here have at least two points, so the convention that a
    singleton's empty positive sum counts as 0 plays no part.
    """
    batch = EmbeddingBatch(np.eye(n), np.zeros(n, dtype=np.int64))
    f = submodcheck.as_set_function("submod-snn", batch, config)
    s = 0.0 if config.kernel == "cosine" else math.exp(-1.0)
    for m in (2, 3, 4):
        closed = m * (math.sqrt(2.0) + s + math.log(m - 1) + math.log(n - m))
        assert f(range(m)) == pytest.approx(closed, rel=1e-12, abs=1e-12)
    a, b, x = [0, 1], [0, 1, 2], 3
    margin = (f(a + [x]) - f(a)) - (f(b + [x]) - f(b))
    closed_margin = (math.log(64.0 / 81.0) + 6.0 * math.log(n - 3)
                     - 2.0 * math.log(n - 2) - 4.0 * math.log(n - 4))
    assert abs(margin - closed_margin) <= 1e-12
    if n == 12:
        assert margin > 0.0
    else:
        assert margin < -submodcheck.DEFAULT_TOLERANCE


def _supcon_second_differences(batch, config):
    """S and, for every A and k < l outside it, (k, l, the four values
    f(A + k + l), f(A + k), f(A + l), f(A)) of submod-supcon, all read from
    one value table."""
    obj = objectives.get("submod-supcon")
    s, d = losses.matrices(batch, config)
    f = backend.value_table(obj, s, d, config.lam, config.margin)
    k, l = np.triu_indices(batch.n, 1)
    a, pair = np.nonzero((np.arange(f.size)[:, None] & ((1 << k) | (1 << l))) == 0)
    k, l = k[pair], l[pair]
    kb, lb = 1 << k, 1 << l
    return s, k, l, np.stack([f[a | kb | lb], f[a | kb], f[a | lb], f[a]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(4, 7), st.sampled_from([COSINE, RBF, NEG_EUCLIDEAN]),
       st.integers(0, 2 ** 16))
def test_submod_supcon_second_difference_is_below_minus_twice_s(n, config, seed):
    """submod-supcon is submodular whenever every off-diagonal S >= 0.

    The term is f(A) = -sum_{i,j in A} S_ij + sum_{i in A} L_i(V \\ A), with
    L_i(O) = log sum_{j in O} e^{S_ij}. For k != l outside A and O = V \\ A,

        Delta_kl f(A) = f(A + k + l) - f(A + k) - f(A + l) + f(A)
          = -2 S_kl
            + sum_{i in A} [L_i(O-k-l) - L_i(O-k) - L_i(O-l) + L_i(O)]
            + [L_k(O-k-l) - L_k(O-k)] + [L_l(O-k-l) - L_l(O-l)].

    Each L_i is a concave function of a positive modular function, so it is
    submodular (Bach 2013) and each bracket of the sum is <= 0. The last two
    brackets drop a positive summand inside a log, so each is < 0. Hence
    Delta_kl f(A) < -2 S_kl wherever all four values are finite (A + k + l
    = V leaves an empty complement and f = -inf). With every S_kl >= 0,
    every second difference is negative and f is submodular; RBF
    similarities are always positive. The condition is sufficient, not
    necessary.
    """
    batch = submodcheck.draw_batch(Rng(seed), n)
    s, k, l, values = _supcon_second_differences(batch, config)
    finite = np.all(np.isfinite(values), axis=0)
    assert np.count_nonzero(~finite) == n * (n - 1) // 2
    big, plus_k, plus_l, base = values[:, finite]
    delta = big - plus_k - plus_l + base
    assert np.all(delta + 2.0 * s[k[finite], l[finite]] <= 1e-9)


def test_submod_supcon_cosine_violations_all_meet_a_negative_similarity():
    """Every violation the cosine search finds has some l in B \\ A with
    S_xl < 0, as the bound above requires.

    Adding B \\ A = {l_1, ..., l_m} to A one point at a time gives
    f(x|A) - f(x|B) = -sum_j Delta_{x l_j} f(A_j) > 2 sum_{l in B \\ A} S_xl,
    so with every S_xl >= 0 there the margin is positive and no violation
    can be stored.
    """
    stored = 0
    for seed in range(20):
        res = submodcheck.counterexample_search("submod-supcon", n=6, seed=seed)
        assert res.verdict == "violated"
        batch = submodcheck.draw_batch(Rng(seed).derive(res.trials - 1), 6)
        s, _ = losses.matrices(batch, submodcheck.COUNTEREXAMPLE_CONFIG)
        for a, b, x, _, _ in res.violations:
            rest = sorted(set(b) - set(a))
            assert np.any(s[x, rest] < 0.0), (seed, a, b, x)
        stored += len(res.violations)
    assert stored == 2709


@pytest.mark.parametrize("name", ["triplet", "snn"])
def test_claimed_nonsubmodular_violations_found(name):
    res = submodcheck.counterexample_search(name)
    assert res.verdict == "violated"
    assert res.trials <= 1000


def test_logdet_cf_violations_of_this_draw_all_take_an_empty_a():
    # Every violation of this draw is a DR triple with A = empty, which the
    # default scan leaves out.
    b = submodcheck.draw_batch(Rng(0).derive(4), 4)
    assert submodcheck.exhaustive_dr_check("logdet-cf", b, RBF).violation_count == 0
    assert submodcheck.exhaustive_dr_check(
        "logdet-cf", b, RBF, include_empty=True).violation_count == 28


def test_include_empty_expands_the_scan():
    b = submodcheck.draw_batch(Rng(2), 5)
    without = submodcheck.exhaustive_dr_check("fl", b, RBF)
    with_empty = submodcheck.exhaustive_dr_check("fl", b, RBF, include_empty=True)
    assert with_empty.compared > without.compared
    assert with_empty.violation_count == 0


def test_scan_results_deterministic():
    a = submodcheck.consistency_scan("gc-sf", draws=50, seed=3)
    b = submodcheck.consistency_scan("gc-sf", draws=50, seed=3)
    assert (a.min_margin, a.compared, a.violation_count) == (
        b.min_margin, b.compared, b.violation_count
    )
    x = submodcheck.counterexample_search("supcon", seed=7)
    y = submodcheck.counterexample_search("supcon", seed=7)
    assert x.violations == y.violations
    assert x.trials == y.trials


def test_multi_draw_scan_decodes_only_the_kept_violations(monkeypatch):
    # Every submod-snn draw violates, but only the first one's list is kept.
    calls = []
    decode = submodcheck._bits_to_tuple

    def counting(bits, n):
        calls.append(bits)
        return decode(bits, n)

    monkeypatch.setattr(submodcheck, "_bits_to_tuple", counting)
    res = submodcheck.consistency_scan("submod-snn", n=6, draws=5)
    assert res.violations and isinstance(res.violations[0][0], tuple)
    assert len(calls) <= 2 * len(res.violations)


def test_enumeration_bound_enforced():
    b = submodcheck.draw_batch(Rng(1), submodcheck.ENUMERATION_BOUND + 1)
    with pytest.raises(GroundSetTooLarge):
        submodcheck.exhaustive_dr_check("fl", b, RBF)


def test_verdict_table_and_csv_round_trip():
    results = submodcheck.verdict_table(["fl", "supcon"], draws=20, max_draws=50)
    by_name = {r.objective: r for r in results}
    assert by_name["fl"].verdict == "submodular-consistent"
    assert by_name["fl"].trials == 20
    assert by_name["supcon"].verdict == "violated"
    buf = io.StringIO()
    submodcheck.write_verdict_csv(results, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "objective,n,trials,violations,min_margin,verdict"
    fields = lines[1].split(",")
    assert fields[0] == "fl"
    assert float(fields[4]) == by_name["fl"].min_margin


@pytest.mark.parametrize("kwargs", [
    {"n": 1}, {"n": 2}, {"draws": 0}, {"draws": -3}, {"max_draws": 0},
])
def test_verdict_table_refuses_a_scan_that_compares_nothing(kwargs):
    # Below n = 3 no triple with a nonempty A exists, and zero draws scan
    # nothing; either way a "consistent" verdict would rest on no evidence.
    with pytest.raises(ValidationError):
        submodcheck.verdict_table(["fl", "supcon"], **kwargs)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(tolerance):
    # NaN would pass every margin (margin < -nan is always false) and a
    # negative tolerance would flag exact ties as violations.
    b = submodcheck.draw_batch(Rng(0), 5)
    for scan in (lambda: submodcheck.verdict_table(["supcon"], tolerance=tolerance),
                 lambda: submodcheck.exhaustive_dr_check("fl", b, RBF, tolerance),
                 lambda: submodcheck.consistency_scan("fl", draws=2,
                                                      tolerance=tolerance)):
        with pytest.raises(ValidationError, match="tolerance must be finite"):
            scan()



# Counts that are not integers used to reach numpy's range and shape code and
# raise its TypeError ("'float' object cannot be interpreted as an integer").
NOT_COUNTS = {
    "consistency_scan-draws": lambda: submodcheck.consistency_scan("gc-cf", n=5,
                                                                   draws=2.5),
    "consistency_scan-n": lambda: submodcheck.consistency_scan("gc-cf", n=5.0,
                                                               draws=2),
    "counterexample_search-max_draws": lambda: submodcheck.counterexample_search(
        "supcon", n=5, max_draws=1.5),
    "counterexample_search-bool": lambda: submodcheck.counterexample_search(
        "supcon", n=5, max_draws=True),
    "verdict_table-draws": lambda: submodcheck.verdict_table(["gc-cf"], n=5,
                                                             draws=2.5),
    "verdict_table-max_draws": lambda: submodcheck.verdict_table(["gc-cf"], n=5,
                                                                 max_draws=1.5),
    "verdict_table-n": lambda: submodcheck.verdict_table(["gc-cf"], n=5.5),
}


@pytest.mark.parametrize("entry", sorted(NOT_COUNTS))
def test_a_scan_refuses_counts_that_are_not_integers(entry):
    with pytest.raises(ValidationError, match="must be an integer, got"):
        NOT_COUNTS[entry]()


def test_a_scan_takes_numpy_integer_counts():
    res = submodcheck.consistency_scan("gc-cf", n=np.int64(5), draws=np.int32(2))
    assert res.trials == 2 and res.n == 5


# Each public scan refuses a call that would compare nothing: below n = 3 the
# default scans hold no triple, and zero draws scan no table.
NO_EVIDENCE = {
    "consistency_scan": [lambda: submodcheck.consistency_scan("fl", n=2),
                         lambda: submodcheck.consistency_scan("fl", n=1),
                         lambda: submodcheck.consistency_scan("fl", draws=0)],
    "counterexample_search": [
        lambda: submodcheck.counterexample_search("supcon", n=2),
        lambda: submodcheck.counterexample_search("supcon", max_draws=0)],
    "exhaustive_dr_check": [lambda: submodcheck.exhaustive_dr_check(
        "fl", submodcheck.draw_batch(Rng(0), 2), RBF)],
}


@pytest.mark.parametrize("entry", sorted(NO_EVIDENCE))
def test_a_public_scan_refuses_to_compare_nothing(entry):
    for scan in NO_EVIDENCE[entry]:
        with pytest.raises(ValidationError, match="no triple|at least one draw"):
            scan()


def test_the_empty_set_gives_a_two_point_dr_scan_its_two_triples():
    b = submodcheck.draw_batch(Rng(0), 2)
    res = submodcheck.exhaustive_dr_check("fl", b, RBF, include_empty=True)
    assert res.trials == 1 and res.compared + res.skipped == 2
