"""Invariants of totals and gradients on random batches (Hypothesis).

Relabeling the classes only reorders the per-class terms; permuting the rows
of a batch only permutes the rows of its gradient; and the two log-det forms
differ by one log det(S_V + lam I) per class. Batches outside an objective's
domain must be refused the same way before and after the transformation.
A scoring never returns inf or nan: it either refuses the batch or gives a
finite total, finite per-class terms and a finite gradient.

Two symmetries of the kernels hold to a tolerance on any host. RBF and
neg-euclidean read only differences z_i - z_j, so a translation leaves the
loss unchanged and the gradient's rows sum to zero. Cosine reads only each
row's direction, so for an objective that reads no distances a positive
scaling leaves the loss unchanged and each gradient row is orthogonal to
its embedding. Each residual is held to SYMMETRY_TOL, relative to the
largest gradient entry or to max(|L|, 1).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setloss import grads, kernels, losses, objectives
from setloss.batch import EmbeddingBatch
from setloss.errors import PreconditionError, SetLossError
from setloss.sampling import Rng

EXAMPLES = settings(max_examples=15, deadline=None, derandomize=True, database=None)
SYMMETRY_TOL = 1e-12


def _batches(min_n=4, max_n=15):
    """A `check_batch` draw: round-robin labels over 2 (n < 6) or 3 classes."""
    return st.builds(grads.check_batch, st.integers(min_n, max_n),
                     st.integers(2, 6), st.integers(0, 2 ** 16))


def _config(name, kernel):
    return losses.LossConfig(name, kernel=kernel, bandwidth=0.9)


def _same_refusal(fn, *inputs):
    """Each input's result, or None when the first input's batch is refused;
    every input must then be refused with the same error type."""
    try:
        first = fn(inputs[0])
    except PreconditionError as exc:
        for other in inputs[1:]:
            with pytest.raises(type(exc)):
                fn(other)
        return None
    return [first] + [fn(other) for other in inputs[1:]]


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
@EXAMPLES
@given(_batches(), st.sampled_from(kernels.SIMILARITY_KINDS),
       st.randoms(use_true_random=False))
def test_relabeling_classes_permutes_per_class_terms(name, batch, kernel, rnd):
    c = int(batch.labels.max()) + 1
    perm = np.array(rnd.sample(range(c), c))
    relabeled = EmbeddingBatch(batch.vectors, perm[batch.labels])
    cfg = _config(name, kernel)
    results = _same_refusal(lambda b: losses.total_loss(b, cfg), batch, relabeled)
    if results is None:
        return
    old, new = results
    # Class k's members, and so its term, are the new labeling's class perm[k].
    assert np.array_equal(new.per_class[perm], old.per_class, equal_nan=True)
    scale = max(1.0, float(np.sum(np.abs(old.per_class))))
    assert math.isclose(new.total, old.total, rel_tol=0.0, abs_tol=1e-12 * scale)


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
@EXAMPLES
@given(_batches(), st.sampled_from(kernels.SIMILARITY_KINDS),
       st.randoms(use_true_random=False))
def test_permuting_rows_permutes_gradient_rows(name, batch, kernel, rnd):
    perm = np.array(rnd.sample(range(batch.n), batch.n))
    permuted = EmbeddingBatch(batch.vectors[perm], batch.labels[perm])
    cfg = _config(name, kernel)
    results = _same_refusal(lambda b: grads.loss_gradient(b, cfg),
                            batch, permuted)
    if results is None:
        return
    old, new = results
    # Row j of the permuted batch is row perm[j] of the original.
    scale = max(1.0, float(np.max(np.abs(old))))
    np.testing.assert_allclose(new, old[perm], rtol=1e-9, atol=1e-9 * scale)


@settings(EXAMPLES, max_examples=40)
@given(_batches(max_n=20), st.sampled_from(("cosine", "rbf")),
       st.floats(0.05, 4.0))
def test_logdet_cf_total_is_sf_total_minus_c_whole_logdets(batch, kernel, lam):
    sf = losses.total_loss(batch, losses.LossConfig("logdet-sf", lam, kernel=kernel))
    cf = losses.total_loss(batch, losses.LossConfig("logdet-cf", lam, kernel=kernel))
    s, _ = losses.matrices(batch, losses.LossConfig("logdet-sf", lam, kernel=kernel))
    sign, whole = np.linalg.slogdet(s + lam * np.eye(batch.n))
    assert sign > 0
    classes = len(sf.per_class)
    scale = max(1.0, abs(sf.total), classes * abs(whole))
    assert math.isclose(cf.total, sf.total - classes * whole,
                        rel_tol=0.0, abs_tol=1e-10 * scale)


@st.composite
def _spread_batches(draw):
    """Gaussian rows, centered or shifted, tight or wide, over 2 or 3 classes:
    unlike `check_batch`, many of them leave some objective's domain."""
    n, dim = draw(st.integers(4, 14)), draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 16))
    shift = draw(st.sampled_from((0.0, 0.5, 1.0)))
    scale = draw(st.sampled_from((0.1, 0.6, 3.0)))
    vectors = shift + scale * Rng(seed).normals((n, dim))
    return EmbeddingBatch(vectors, np.arange(n) % draw(st.integers(2, 3)))


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
@settings(EXAMPLES, max_examples=30)
@given(_spread_batches(), st.sampled_from(kernels.SIMILARITY_KINDS),
       st.floats(0.2, 3.0), st.floats(1.0, 3.0))
def test_scoring_refuses_or_returns_finite_values(name, batch, kernel,
                                                  bandwidth, lam):
    config = losses.LossConfig(name, lam=lam, kernel=kernel, bandwidth=bandwidth)
    try:
        ev = losses.evaluate(batch, config)
        grad = grads.evaluation_gradient(ev)
    except SetLossError:
        return
    assert math.isfinite(ev.result.total)
    assert np.all(np.isfinite(ev.result.per_class))
    assert np.all(np.isfinite(grad))


def _loss_and_gradient(batch, cfg):
    """(total loss, gradient); a draw outside the domain is rejected."""
    try:
        ev = losses.evaluate(batch, cfg)
        return ev.result.total, grads.evaluation_gradient(ev)
    except SetLossError:
        assume(False)


@st.composite
def _shifted_batches(draw):
    """A `_batches` draw and a shift of its dimension in [-1, 1]^d."""
    batch = draw(_batches())
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=batch.dim,
                          max_size=batch.dim))
    return batch, np.array(shift)


def _same_loss(moved, loss):
    assert abs(moved - loss) <= SYMMETRY_TOL * max(abs(loss), 1.0)


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
@EXAMPLES
@given(_shifted_batches(), st.sampled_from(("rbf", "neg-euclidean")))
def test_translation_keeps_the_loss_and_gradient_rows_sum_to_zero(name, drawn,
                                                                  kernel):
    batch, shift = drawn
    cfg = _config(name, kernel)
    loss, grad = _loss_and_gradient(batch, cfg)
    moved, _ = _loss_and_gradient(
        EmbeddingBatch(batch.vectors + shift, batch.labels), cfg)
    residual = np.max(np.abs(np.sum(grad, axis=0)))
    assert residual <= SYMMETRY_TOL * np.max(np.abs(grad))
    _same_loss(moved, loss)


@pytest.mark.parametrize("name", [obj.name for obj in objectives.REGISTRY
                                  if obj.reads == ("s",)])
@EXAMPLES
@given(_batches(), st.floats(0.5, 2.5))
def test_cosine_scaling_keeps_the_loss_and_gradient_rows_are_orthogonal(
        name, batch, c):
    cfg = _config(name, "cosine")
    loss, grad = _loss_and_gradient(batch, cfg)
    scaled, _ = _loss_and_gradient(EmbeddingBatch(c * batch.vectors, batch.labels),
                                   cfg)
    # Each row's gradient component along its own embedding's direction.
    z = batch.vectors
    along = np.sum(grad * z, axis=1) / np.linalg.norm(z, axis=1)
    assert np.max(np.abs(along)) <= SYMMETRY_TOL * np.max(np.abs(grad))
    _same_loss(scaled, loss)
