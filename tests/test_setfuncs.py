import itertools
import math

import numpy as np
import pytest

import setfuncs
from setloss import grads, kernels, losses, submodcheck
from setloss.batch import EmbeddingBatch, partition_from_labels
from setloss.errors import NotPositiveDefinite, ValidationError
from setloss.sampling import Rng


def _sim(n, seed=0, kind="cosine"):
    rng = Rng(seed)
    v = rng.normals((n, 4))
    b = EmbeddingBatch(v, np.zeros(n, dtype=int))
    return kernels.similarity(b, kind, 1.0)


FOUR_POINT = np.array([
    [1.0, 0.9, 0.2, 0.3],
    [0.9, 1.0, 0.1, 0.4],
    [0.2, 0.1, 1.0, 0.5],
    [0.3, 0.4, 0.5, 1.0],
])


def test_kind_validation():
    with pytest.raises(ValidationError):
        setfuncs.SetFunctionKind("voronoi")
    with pytest.raises(ValidationError):
        setfuncs.SetFunctionKind("graph-cut", lam=0.5)
    with pytest.raises(ValidationError):
        setfuncs.SetFunctionKind("log-det", lam=0.0)


def test_empty_set_is_zero():
    s = _sim(5)
    for kind in setfuncs.SET_FUNCTION_KINDS:
        f = setfuncs.SetFunctionKind(kind)
        assert setfuncs.eval_set_function(f, s, []) == 0.0


def test_logdet_orthonormal_identity():
    f = setfuncs.SetFunctionKind("log-det", lam=1.0)
    val = setfuncs.eval_set_function(f, np.eye(4), [1, 3])
    assert val == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_logdet_rejects_indefinite():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        setfuncs.logdet_psd(m)


def test_fl_full_set_is_n():
    s = _sim(6)
    f = setfuncs.SetFunctionKind("facility-location")
    assert setfuncs.eval_set_function(f, s, range(6)) == pytest.approx(6.0)


def test_gc_cross_term_four_point():
    f = setfuncs.SetFunctionKind("graph-cut", lam=1.0)
    val = setfuncs.eval_set_function(f, FOUR_POINT, [0, 1])
    assert val == pytest.approx(0.2 + 0.1 + 0.3 + 0.4)


def test_total_information_single_class_is_f_of_v():
    s = _sim(5, seed=2)
    part = partition_from_labels(np.zeros(5, dtype=int))
    for kind in setfuncs.SET_FUNCTION_KINDS:
        f = setfuncs.SetFunctionKind(kind)
        assert setfuncs.total_information(f, s, part) == pytest.approx(
            setfuncs.eval_set_function(f, s, range(5))
        )
        assert setfuncs.total_correlation(f, s, part) == pytest.approx(0.0, abs=1e-12)


def test_logdet_two_singletons():
    part = partition_from_labels(np.array([0, 1]))
    f = setfuncs.SetFunctionKind("log-det", lam=1.0)
    val = setfuncs.total_information(f, np.eye(2), part)
    assert val == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_total_information_is_additive():
    s = _sim(8, seed=5)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    part = partition_from_labels(labels)
    for kind in setfuncs.SET_FUNCTION_KINDS:
        f = setfuncs.SetFunctionKind(kind)
        direct = sum(setfuncs.eval_set_function(f, s, a) for a in part.sets)
        assert setfuncs.total_information(f, s, part) == pytest.approx(direct)


def test_modular_kernel_has_zero_correlation():
    diag = np.diag([1.0, 2.0, 0.5, 1.5, 3.0])
    part = partition_from_labels(np.array([0, 1, 0, 1, 0]))
    f = setfuncs.SetFunctionKind("graph-cut", lam=1.0)
    # With no off-diagonal mass the function is modular up to the lam
    # weighting of the diagonal, so correlation cancels exactly.
    val = setfuncs.total_correlation(f, diag, part)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_sf_minus_cf_is_f_of_v():
    s = _sim(7, seed=9)
    part = partition_from_labels(np.array([0, 0, 1, 1, 2, 2, 2]))
    for kind in setfuncs.SET_FUNCTION_KINDS:
        f = setfuncs.SetFunctionKind(kind)
        sf = setfuncs.total_information(f, s, part)
        cf = setfuncs.total_correlation(f, s, part)
        fv = setfuncs.eval_set_function(f, s, range(7))
        assert sf - cf == pytest.approx(fv, abs=1e-10)


def test_duplicated_point_shrinks_logdet():
    f = setfuncs.SetFunctionKind("log-det", lam=1e-6)
    dup = np.ones((2, 2))
    np.fill_diagonal(dup, 1.0)
    dup_val = setfuncs.eval_set_function(f, dup, [0, 1])
    ortho_val = setfuncs.eval_set_function(f, np.eye(2), [0, 1])
    assert dup_val < ortho_val
    # 2x2 closed form with equal unit vectors: det = (1+lam)^2 - 1.
    assert dup_val == pytest.approx(math.log((1 + 1e-6) ** 2 - 1), rel=1e-9)


def _gains_are_diminishing(f, s, n):
    idx = range(n)
    for size in range(n):
        for a in itertools.combinations(idx, size):
            sa = set(a)
            for b_extra in itertools.combinations(set(idx) - sa, 1):
                b = sa | set(b_extra)
                for x in set(idx) - b:
                    ga = (setfuncs.eval_set_function(f, s, sorted(sa | {x}))
                          - setfuncs.eval_set_function(f, s, sorted(sa)))
                    gb = (setfuncs.eval_set_function(f, s, sorted(b | {x}))
                          - setfuncs.eval_set_function(f, s, sorted(b)))
                    if ga < gb - 1e-9:
                        return False
    return True


@pytest.mark.parametrize("kind,lam", [
    ("facility-location", 1.0),
    ("graph-cut", 1.0),
    ("graph-cut", 2.0),
    ("log-det", 1.0),
])
def test_submodularity_small_ground_sets(kind, lam):
    f = setfuncs.SetFunctionKind(kind, lam=lam)
    for seed in range(3):
        rng = Rng(seed)
        v = rng.normals((5, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        sq = np.maximum(2.0 - 2.0 * (v @ v.T), 0.0)
        s = np.exp(-sq / 2.0)
        assert _gains_are_diminishing(f, s, 5), (kind, lam, seed)


def test_monotone_kinds_on_nonnegative_kernels():
    rng = Rng(1)
    v = rng.normals((5, 3))
    sq = kernels.squared_distances(v)
    s = np.exp(-sq / 2.0)
    fl = setfuncs.SetFunctionKind("facility-location")
    ld = setfuncs.SetFunctionKind("log-det", lam=1.0)
    for f in (fl, ld):
        prev = 0.0
        for size in range(1, 6):
            cur = setfuncs.eval_set_function(f, s, range(size))
            assert cur >= prev - 1e-12
            prev = cur


def test_cofactor_oracle_small_sets():
    # Brute-force determinant expansion cross-checks the Cholesky path.
    rng = Rng(3)
    v = rng.normals((4, 4))
    s = np.exp(-kernels.squared_distances(v) / 2.0)
    f = setfuncs.SetFunctionKind("log-det", lam=0.5)
    for size in range(1, 5):
        for a in itertools.combinations(range(4), size):
            block = s[np.ix_(a, a)] + 0.5 * np.eye(size)
            expected = math.log(np.linalg.det(block))
            assert setfuncs.eval_set_function(f, s, a) == pytest.approx(
                expected, rel=1e-9, abs=1e-11
            )


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("kernel", ["cosine", "rbf"])
def test_loss_terms_match_textbook_forms(kernel, lam):
    # The loss forms against the textbook ones on every nonempty subset.
    # Both kernels have unit diagonals, so each member of A is its own
    # nearest element and the fl term misses exactly |A| from textbook FL.
    n = 7
    b = submodcheck.draw_batch(Rng(5), n)
    cfg = losses.LossConfig(kernel=kernel, lam=lam)
    s, _ = losses.matrices(b, cfg)
    fl = submodcheck.as_set_function("fl", b, cfg)
    gc = submodcheck.as_set_function("gc-cf", b, cfg)
    ld = submodcheck.as_set_function("logdet-sf", b, cfg)
    kinds = {kind: setfuncs.SetFunctionKind(kind, lam)
             for kind in setfuncs.SET_FUNCTION_KINDS}
    for size in range(1, n + 1):
        for a in itertools.combinations(range(n), size):
            book = {kind: setfuncs.eval_set_function(f, s, a)
                    for kind, f in kinds.items()}
            assert abs(fl(a) + size - book["facility-location"]) <= 1e-12
            assert abs(gc(a) - lam * book["graph-cut"]) <= 1e-12
            assert abs(ld(a) - book["log-det"]) <= 1e-12


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("kernel", ["cosine", "rbf"])
def test_logdet_cf_is_sf_minus_classes_times_full_logdet(kernel, lam):
    b = grads.check_batch(12, 8, 0)
    sf = losses.total_loss(b, losses.LossConfig("logdet-sf", lam, kernel=kernel))
    cf = losses.total_loss(b, losses.LossConfig("logdet-cf", lam, kernel=kernel))
    s, _ = losses.matrices(b, losses.LossConfig(kernel=kernel))
    full = setfuncs.logdet_psd(s + lam * np.eye(b.n))
    assert abs(cf.total - (sf.total - b.num_classes * full)) <= 1e-12

