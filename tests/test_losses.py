import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setloss import grads, kernels, losses, objectives
from setloss.batch import EmbeddingBatch
from setloss.errors import (DegenerateBatch, LambdaBelowOne, SingleClassBatch,
                            ValidationError)
from setloss.sampling import Rng

# Embeddings whose cosine similarities are exactly the hand-picked matrix
# S_ab=0.9, S_ac=0.2, S_ad=0.3, S_bc=0.1, S_bd=0.4, S_cd=0.5 (Cholesky rows).
FOUR_POINT_S = np.array([
    [1.0, 0.9, 0.2, 0.3],
    [0.9, 1.0, 0.1, 0.4],
    [0.2, 0.1, 1.0, 0.5],
    [0.3, 0.4, 0.5, 1.0],
])


def four_point_batch():
    return EmbeddingBatch(np.linalg.cholesky(FOUR_POINT_S),
                          np.array([0, 0, 1, 1]))


def random_batch(n=10, d=5, seed=0, classes=3):
    rng = Rng(seed)
    v = 1.0 + 0.6 * rng.normals((n, d))
    return EmbeddingBatch(v, np.arange(n, dtype=int) % classes)


def test_config_validation():
    with pytest.raises(ValidationError):
        losses.LossConfig("nonsense")
    with pytest.raises(LambdaBelowOne):
        losses.LossConfig("gc-sf", lam=0.5)
    with pytest.raises(ValidationError):
        losses.LossConfig("logdet-sf", lam=0.0)
    with pytest.raises(ValidationError):
        losses.LossConfig("fl", kernel="unknown")


@pytest.mark.parametrize("name, key, kernel", [
    ("gc-cf", "lam", "cosine"), ("gc-sf", "lam", "cosine"),
    ("logdet-sf", "lam", "cosine"), ("triplet", "margin", "cosine"),
    ("fl", "bandwidth", "rbf"), ("fl", "bandwidth", "cosine"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_hyperparameters(name, key, kernel, value):
    with pytest.raises(ValidationError):
        losses.LossConfig(name, kernel=kernel, **{key: value})


@pytest.mark.parametrize("key, value", [
    ("lam", None), ("lam", "1"), ("lam", [1.0]), ("lam", 1j), ("margin", True),
    ("bandwidth", False), ("margin", np.bool_(True)),
    pytest.param("lam", 10 ** 400, id="lam-int-past-the-largest-float"),
])
def test_config_rejects_hyperparameters_that_are_not_real_numbers(key, value):
    # None and "1" let numpy's TypeError out of np.isfinite, [1.0] was taken
    # as finite, a bool passed as 0 or 1, and 10 ** 400 passed, to raise
    # OverflowError when a term multiplied by it.
    # margin's message names its range too.
    head = f"{key} must be finite" + (" and >= 0" if key == "margin" else "")
    with pytest.raises(ValidationError, match=f"^{head}, got "):
        losses.LossConfig(kernel="rbf", **{key: value})


def test_config_keeps_real_hyperparameters_as_given():
    config = losses.LossConfig("gc-sf", lam=np.float64(1.5), margin=0, bandwidth=np.int64(2),
                               kernel="rbf")
    assert (config.lam, config.margin, config.bandwidth) == (1.5, 0, 2)
    assert type(config.lam) is np.float64 and type(config.margin) is int


def test_positive_rowsum_holds_exactly_for_the_row_sum_records():
    # A derived property, not a field: a record cannot claim the row-sum
    # domain without the row sums as its whole_value, or the reverse.
    assert "positive_rowsum" not in {f.name for f in dataclasses.fields(objectives.Objective)}
    assert [obj.name for obj in objectives.REGISTRY if obj.positive_rowsum] == [
        "n-pairs", "supcon"]
    assert all(obj.positive_rowsum == (obj.whole_value is objectives._rows_less_one)
               for obj in objectives.REGISTRY)


def test_fl_four_point_hand_value():
    res = losses.total_loss(four_point_batch(), losses.LossConfig("fl"))
    assert res.per_class[0] == pytest.approx(0.6, abs=1e-12)
    assert res.per_class[1] == pytest.approx(0.7, abs=1e-12)
    assert res.total == pytest.approx(1.3, abs=1e-12)


def test_gc_four_point_hand_values():
    sf = losses.total_loss(four_point_batch(), losses.LossConfig("gc-sf", lam=1.0))
    assert sf.per_class[0] == pytest.approx(-2.8, abs=1e-12)
    cf = losses.total_loss(four_point_batch(), losses.LossConfig("gc-cf", lam=1.0))
    assert cf.per_class[0] == pytest.approx(1.0, abs=1e-12)
    assert cf.per_class[1] == pytest.approx(1.0, abs=1e-12)


def test_logdet_orthonormal_hand_value():
    b = EmbeddingBatch(np.eye(4), np.array([0, 0, 1, 1]))
    res = losses.total_loss(b, losses.LossConfig("logdet-sf", lam=1.0))
    assert np.allclose(res.per_class, 2.0 * math.log(2.0), atol=1e-12)
    cf = losses.total_loss(b, losses.LossConfig("logdet-cf", lam=1.0))
    # Orthonormal full block: log det(2 I_4) = 4 ln 2, so each class term is
    # 2 ln 2 - 4 ln 2.
    assert np.allclose(cf.per_class, -2.0 * math.log(2.0), atol=1e-12)


def test_opl_constant_similarity_oracle():
    # All within-class entries 1 (duplicated unit vectors), cross entries 0.
    v = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 0, 1, 1]))
    res = losses.total_loss(b, losses.LossConfig("opl"))
    assert res.per_class[0] == pytest.approx(1.0 - 9.0, abs=1e-12)
    assert res.per_class[1] == pytest.approx(1.0 - 4.0, abs=1e-12)


def test_triplet_single_hinge_oracle():
    # Anchors and positives coincide (D_ip = 0); negatives at distance eps.
    eps = 0.2
    v = np.array([[0.0, 0.0], [0.0, 0.0], [eps, 0.0], [eps, 0.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 1, 1]))
    cfg = losses.LossConfig("triplet", margin=eps, kernel="rbf")
    res = losses.total_loss(b, cfg)
    # Each (anchor, positive, negative) triple contributes
    # max(0, 0 - eps^2 + eps) = 0.16; 2 anchors x 1 positive x 2 negatives.
    assert res.per_class[0] == pytest.approx(4 * 0.16, abs=1e-12)
    assert res.per_class[1] == pytest.approx(4 * 0.16, abs=1e-12)


def test_snn_equal_similarity_closed_form():
    # Orthonormal batch: every cross similarity is 0, so each anchor's term is
    # lse over two negatives minus lse over one positive = log 2 - 0.
    b = EmbeddingBatch(np.eye(4), np.array([0, 0, 1, 1]))
    res = losses.total_loss(b, losses.LossConfig("snn"))
    assert np.allclose(res.per_class, 2.0 * math.log(2.0), atol=1e-12)
    assert res.total == pytest.approx(4.0 * math.log(2.0), abs=1e-12)


def test_submod_snn_constant_similarity_closed_form():
    # Equilateral simplex: every pairwise distance and similarity equal.
    v = np.eye(4)
    b = EmbeddingBatch(v, np.array([0, 0, 1, 1]))
    cfg = losses.LossConfig("submod-snn", kernel="cosine")
    s, d = losses.matrices(b, cfg)
    c_sim = s[0, 1]
    c_dist = d[0, 1]
    res = losses.total_loss(b, cfg)
    # Per anchor: log(1 * e^dist) + log(2 * e^sim); 2 anchors per class.
    per_anchor = (c_dist + math.log(1.0)) + (math.log(2.0) + c_sim)
    assert res.per_class[0] == pytest.approx(2 * per_anchor, rel=1e-12)


def test_submod_supcon_hand_value():
    v = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2], [-1.0, 0.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 1]))
    s, _ = losses.matrices(b, losses.LossConfig("submod-supcon"))
    res = losses.total_loss(b, losses.LossConfig("submod-supcon"))
    within = s[:2, :2].sum()
    expected = -within + math.log(math.exp(s[0, 2])) + math.log(math.exp(s[1, 2]))
    assert res.per_class[0] == pytest.approx(expected, rel=1e-12)
    assert within == pytest.approx(3.0)


def test_per_class_sums_to_total():
    b = random_batch(seed=5)
    for name in objectives.OBJECTIVES:
        cfg = losses.LossConfig(name)
        res = losses.total_loss(b, cfg)
        assert res.total == pytest.approx(float(res.per_class.sum()), abs=1e-10)


def test_permutation_invariance():
    b = random_batch(n=9, seed=6)
    perm = Rng(3).permutation(9)
    pb = EmbeddingBatch(b.vectors[perm], b.labels[perm])
    for name in objectives.OBJECTIVES:
        cfg = losses.LossConfig(name)
        assert losses.total_loss(b, cfg).total == pytest.approx(
            losses.total_loss(pb, cfg).total, rel=1e-10, abs=1e-10
        )


def test_opl_equals_gc_sf_plus_one():
    for seed in range(5):
        b = random_batch(seed=seed)
        opl = losses.total_loss(b, losses.LossConfig("opl"))
        gc = losses.total_loss(b, losses.LossConfig("gc-sf", lam=1.0))
        assert np.allclose(opl.per_class, gc.per_class + 1.0, atol=1e-9)


def test_submod_triplet_is_gc_on_squared_similarities():
    for seed in range(5):
        b = random_batch(seed=seed)
        st = losses.total_loss(b, losses.LossConfig("submod-triplet"))
        s, _ = losses.matrices(b, losses.LossConfig("submod-triplet"))
        # gc-sf with lam=1 on S^2 equals cross - within on S^2.
        per = []
        for k in range(b.num_classes):
            a = np.flatnonzero(b.labels == k)
            o = np.flatnonzero(b.labels != k)
            s2 = s * s
            per.append(s2[np.ix_(a, o)].sum() - s2[np.ix_(a, a)].sum())
        assert np.allclose(st.per_class, per, atol=1e-9)


def test_snn_lse_stability_large_scale():
    # Distances in the hundreds: naive exp overflows, the shifted form must not.
    v = 300.0 * np.eye(3)
    b = EmbeddingBatch(v, np.array([0, 0, 1]))
    res = losses.total_loss(b, losses.LossConfig("submod-snn", kernel="cosine"))
    assert math.isfinite(res.total)


_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def _row_blocks(draw):
    """Stacks of rows of 1 to four past the short-row crossover entries, on
    one to three leading axes, drawn from finite values alone or mixed with
    signed zeros, infinities and NaN, or from signed zeros and values below
    them, whose rows mostly have tied zero maxima."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    shape += (draw(st.integers(1, objectives._SHORT_ROW + 4)),)
    finite = st.floats(-4.0, 4.0)
    entries = draw(st.sampled_from([finite, finite | st.sampled_from(_SPECIAL),
                                    st.sampled_from(_SPECIAL),
                                    st.sampled_from((0.0, -0.0, -1.0, -math.inf))]))
    return draw(hnp.arrays(np.float64, shape, elements=entries, fill=st.nothing()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_row_blocks())
# Tied zeros: on an AVX-512 x86 host, np.max's reduce returns 0.0 here and a
# column loop of np.maximum returns -0.0.
@example(np.array([[-1.0, 0.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -math.inf]]))
def test_row_max_and_lse_keep_np_max_bits(x):
    assert objectives._row_max(x).tobytes() == np.max(x, axis=-1).tobytes()
    with np.errstate(invalid="ignore"):
        got = objectives._lse(x)
        top = np.max(x, axis=-1)
        total = np.sum(np.exp(x - top[..., None]), axis=-1)
    # The same log-sum-exp with numpy's maximum, and the log it took before
    # (math.log, element by element): the first with the same bits, the
    # second with -inf and NaN in the same places and within 1e-15 elsewhere
    # (the log of at most 20 is below 3.1, where an ulp is 4.4e-16).
    assert got.tobytes() == (top + np.log(total)).tobytes()
    before = top + np.frompyfunc(math.log, 1, 1)(total).astype(float)
    assert np.array_equal(np.isneginf(got), np.isneginf(before))
    assert np.array_equal(np.isnan(got), np.isnan(before))
    assert np.allclose(got, before, rtol=0.0, atol=1e-15, equal_nan=True)


def test_lse_of_an_empty_row_is_minus_inf():
    assert np.array_equal(objectives._lse(np.zeros((2, 3, 0))), np.full((2, 3), -math.inf))


def test_single_class_warns_for_cf_objectives():
    b = EmbeddingBatch(np.eye(3), np.zeros(3, dtype=int))
    with pytest.warns(SingleClassBatch):
        res = losses.total_loss(b, losses.LossConfig("fl"))
    assert res.total == 0.0


def test_single_class_rejected_for_baselines():
    b = EmbeddingBatch(np.eye(3), np.zeros(3, dtype=int))
    with pytest.raises(DegenerateBatch):
        losses.total_loss(b, losses.LossConfig("triplet"))


def test_triplet_needs_positive_pairs():
    b = EmbeddingBatch(np.eye(3), np.array([0, 0, 1]))
    with pytest.raises(DegenerateBatch, match="positive pair"):
        losses.total_loss(b, losses.LossConfig("triplet"))


def test_npairs_rejects_nonpositive_rowsum():
    v = np.array([[1.0, 0.0], [-1.0, 0.01], [0.0, 1.0], [0.0, -1.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 1, 1]))
    with pytest.raises(DegenerateBatch, match="log argument"):
        losses.total_loss(b, losses.LossConfig("n-pairs"))


@pytest.mark.parametrize("name", ["n-pairs", "supcon"])
def test_a_step_sums_the_rows_once(name, monkeypatch):
    # The domain check, the term values and the weight rule share the one
    # sum_j S_ij - 1 of the evaluation, with the bits of separate sums.
    batch = random_batch(12, 6, 2)
    config = losses.LossConfig(name, kernel="rbf", bandwidth=0.9)
    want_total = losses.total_loss(batch, config).total
    want_grad = grads.loss_gradient(batch, config)
    obj = objectives.get(name)
    calls, seen = [], []

    def counting(s, lam):
        calls.append(1)
        return obj.whole_value(s, lam)

    def weights(*args):
        seen.append(args[-1])
        return obj.weights(*args)

    monkeypatch.setitem(objectives._BY_NAME, name, dataclasses.replace(
        obj, whole_value=counting, weights=weights))
    ev = losses.evaluate(batch, config, kernels.Workspace())
    grad = grads.evaluation_gradient(ev)
    assert len(calls) == 1 and seen[0] is ev.whole
    assert ev.result.total == want_total
    assert grad.tobytes() == want_grad.tobytes()
    # The domain check reads the row sums it is given. It is the record's
    # own: a record whose whole_value is not `_rows_less_one`, as the
    # counting one, has no row-sum domain (`Objective.positive_rowsum`).
    bad = ev.whole.copy()
    bad[3] = 0.0
    monkeypatch.undo()
    with pytest.raises(DegenerateBatch, match="at row 3"):
        losses.check_preconditions(config, ev.batch.classes, bad)


@pytest.mark.parametrize("kernel", ["rbf", "neg-euclidean"])
@pytest.mark.parametrize("name", ["triplet", "submod-snn"])
def test_matrices_build_squared_distances_once(name, kernel, monkeypatch):
    batch = random_batch()
    config = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    want_s = kernels.similarity(batch, kernel, 0.7)
    want_d = kernels.euclidean_distance(batch)
    calls = []
    real = kernels.squared_distances
    monkeypatch.setattr(kernels, "squared_distances",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    s, d = losses.matrices(batch, config)
    assert len(calls) == 1
    if "s" in objectives.get(name).reads:
        assert np.array_equal(s, want_s)
    else:
        assert s is None
    assert np.array_equal(d, want_d)


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_matrices_build_exactly_the_matrices_the_record_reads(name, kernel):
    # None for each matrix the record does not read, and the kernels' own
    # bits for each it does, with and without a workspace.
    batch = random_batch()
    reads = objectives.get(name).reads
    config = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    want_s = kernels.similarity(batch, kernel, 0.7).tobytes()
    want_d = kernels.euclidean_distance(batch).tobytes()
    for work in (None, kernels.Workspace()):
        s, d = losses.matrices(batch, config, work)
        assert (s is None, d is None) == ("s" not in reads, reads == ("s",))
        assert s is None or s.tobytes() == want_s
        assert d is None or d.tobytes() == want_d
    if name == "triplet":
        assert s is None and d is not None


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", ["fl", "submod-snn"])
def test_evaluations_without_a_workspace_share_no_memory(name, kernel):
    config = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    first = losses.evaluate(random_batch(seed=1), config)
    second = losses.evaluate(random_batch(seed=2), config)
    arrays = [m for ev in (first, second) for m in (ev.s, ev.d) if m is not None]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", ["gc-cf", "submod-snn"])
def test_workspace_handed_a_new_n_reallocates(name, kernel):
    config = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    work = kernels.Workspace()
    for n in (10, 14, 6, 14):
        batch = random_batch(n=n, seed=n)
        ev = losses.evaluate(batch, config, work)
        fresh = losses.evaluate(batch, config)
        assert ev.s.shape == (n, n)
        assert np.array_equal(ev.s, fresh.s)
        assert ev.d is None or np.array_equal(ev.d, fresh.d)
        assert ev.result.total == fresh.result.total
