"""The analytic gradient against a frozen copy of the W-then-fold path, bit for bit.

Everything between the two "Frozen oracle" markers is the pullback chain
`setloss.kernels` and `setloss.grads.evaluation_gradient` ran when the
weight rules wrote W and each pullback folded it into W + W.T itself,
copied with the workspace arguments dropped (without one, every buffer was
a fresh array). W comes from the frozen weight oracle of
`test_grad_weights.py`. The block is not to be edited.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import grads, kernels, losses, objectives
from setloss.batch import EmbeddingBatch
from setloss.errors import PreconditionError
from test_grad_weights import _entry_weights as _oracle_weights, doubled_weights
from test_grad_weights import objectives as _oracle_codes

# ---- Frozen oracle -------------------------------------------------------

def _fill_diagonal(m, value):
    i = np.arange(m.shape[-1])
    m[..., i, i] = value


def _gram(z, out):
    return np.matmul(z, np.swapaxes(z, -1, -2), out=out)


def _doubled(weights):
    m = np.empty(weights.shape)
    np.add(weights, weights.T, out=m)
    _fill_diagonal(m, 0.0)
    return m


def _cosine_pullback(z, weights):
    zh = kernels.unit_rows(z)
    s = _gram(zh, np.empty(z.shape[:-1] + z.shape[-2:-1]))
    m = _doubled(weights)
    proj = np.sum(np.multiply(m, s, out=s), axis=1)
    grad = m @ zh - proj[:, None] * zh
    return grad / np.linalg.norm(z, axis=1)[:, None]


def _rbf_pullback(z, weights, s, bandwidth):
    m = _doubled(weights)
    m *= s
    m /= bandwidth * bandwidth
    return m @ z - np.sum(m, axis=1)[:, None] * z


def _sqdist_pullback(z, weights):
    m = _doubled(weights)
    return 2.0 * (np.sum(m, axis=1)[:, None] * z - m @ z)


def _over_distances(z, m, d, apart):
    with np.errstate(divide="ignore", invalid="ignore"):
        m /= d
    np.copyto(m, 0.0, where=np.logical_not(apart, out=apart))
    return np.sum(m, axis=1)[:, None] * z - m @ z


def _distance_pullback(z, weights, d):
    apart = np.empty(d.shape, bool)
    np.greater(d, kernels.NORM_FLOOR, out=apart)
    return _over_distances(z, _doubled(weights), d, apart)


def _similarity_pullback(z, weights, kind, bandwidth, s):
    if kind == "cosine":
        return _cosine_pullback(z, weights)
    if kind == "rbf":
        return _rbf_pullback(z, weights, s, bandwidth)
    apart = np.empty(s.shape, bool)
    np.less(s, -kernels.NORM_FLOOR, out=apart)
    return _over_distances(z, _doubled(weights), s, apart)


def _frozen_gradient(ev):
    config = ev.config
    ws, wd, wd2 = _oracle_weights(_oracle_codes.OBJ_CODE[config.objective],
                                  ev.s, ev.d, list(ev.batch.classes), config.lam,
                                  config.margin)
    z = ev.batch.vectors
    grad = np.zeros_like(z)
    if np.any(ws):
        grad += _similarity_pullback(z, ws, config.kernel, config.bandwidth, ev.s)
    if wd is not None:
        grad += _distance_pullback(z, wd, ev.d)
    if wd2 is not None:
        grad += _sqdist_pullback(z, wd2)
    return grad

# ---- Frozen oracle ends --------------------------------------------------


def _dirty_workspace(n):
    """A workspace whose every n x n buffer holds NaN."""
    work = kernels.Workspace()
    for name in ("s", "d", "cos", "ws"):
        work.buffer(name, (n, n)).fill(np.nan)
    return work


def _judge(batch, cfg):
    """Compare the gradient, with and without a workspace, with the frozen
    path; False if the batch lies outside the objective's domain."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ev = losses.evaluate(batch, cfg)
        except PreconditionError:
            return False
        want = _frozen_gradient(ev).tobytes()
        assert grads.evaluation_gradient(ev).tobytes() == want
        work = _dirty_workspace(batch.n)
        ev = losses.evaluate(batch, cfg, work)
        assert grads.evaluation_gradient(ev, work).tobytes() == want
    return True


@st.composite
def _layouts(draw):
    """Batches with shuffled labels, uneven and singleton classes, one class
    among them, and sometimes two coincident rows (S_ij = -0.0 under
    neg-euclidean)."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    order = draw(st.permutations(range(labels.size)))
    vectors = grads.check_batch(labels.size, 5, draw(st.integers(0, 2 ** 16))).vectors
    if labels.size > 2 and draw(st.booleans()):
        vectors[-1] = vectors[0]
    return EmbeddingBatch(vectors, labels[np.asarray(order)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_layouts(), st.sampled_from(kernels.SIMILARITY_KINDS))
def test_gradient_matches_the_frozen_fold_path(batch, kernel):
    for name in objectives.OBJECTIVES:
        _judge(batch, losses.LossConfig(name, 1.3, kernel=kernel, bandwidth=0.9))


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", ["gc-cf", "fl"])
def test_one_class_batches_have_all_zero_weights_and_gradient(name, kernel):
    # One class: gc-cf and fl weigh only pairs across classes, so W = 0.
    batch = EmbeddingBatch(grads.check_batch(9, 4, 3).vectors, np.zeros(9, int))
    cfg = losses.LossConfig(name, kernel=kernel, bandwidth=0.9)
    assert _judge(batch, cfg)
    with pytest.warns(Warning):
        ev = losses.evaluate(batch, cfg)
    m, _ = doubled_weights(objectives.get(name), ev.s, ev.d, ev.batch.classes,
                           cfg.lam, cfg.margin, ev.whole, ev.picks)
    assert not np.any(m) and not np.any(np.signbit(m))
    g = grads.evaluation_gradient(ev)
    assert not np.any(g) and not np.any(np.signbit(g))


FOLDING = {"triplet", "snn", "submod-snn", "submod-supcon", "logdet-sf",
           "logdet-cf"}


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_only_the_loop_built_and_log_det_rules_fold(name, monkeypatch):
    folds = []
    real = objectives._fold

    def counted(w, out):
        folds.append(1)
        real(w, out)

    monkeypatch.setattr(objectives, "_fold", counted)
    cfg = losses.LossConfig(name, kernel="rbf", bandwidth=0.9)
    ev = losses.evaluate(grads.check_batch(12, 5, 0), cfg, kernels.Workspace())
    grads.evaluation_gradient(ev)
    assert bool(folds) == (name in FOLDING)
    # submod-snn folds its similarity and its distance weights.
    assert len(folds) == (2 if name == "submod-snn" else int(name in FOLDING))


@pytest.mark.parametrize("shuffled", [False, True], ids=["class-runs", "shuffled"])
def test_rbf_gradients_over_several_row_strips_match_the_frozen_path(shuffled):
    # An RBF weight rule writes M o S 64 rows at a time: 150 rows are three
    # strips, with class runs that cross strip edges or, shuffled, every
    # class in every strip.
    labels = np.repeat(np.arange(3), [70, 50, 30])
    if shuffled:
        labels = labels[np.random.default_rng(1).permutation(labels.size)]
    batch = EmbeddingBatch(grads.check_batch(150, 5, 7).vectors, labels)
    judged = [name for name in objectives.OBJECTIVES
              if _judge(batch, losses.LossConfig(name, 1.3, kernel="rbf",
                                                 bandwidth=0.9))]
    assert {"fl", "gc-cf", "supcon", "submod-triplet", "snn"} <= set(judged)
