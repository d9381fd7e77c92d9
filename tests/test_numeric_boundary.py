"""Every numeric parameter of the public callables refuses what is not a
number with the package's own error.

One property feeds each parameter, in place of a valid value, None, a
numeric string, True, NaN, +inf, -inf and 10**400, and numpy's bool and
float scalars. A real parameter must refuse every one of them with a
`SetLossError`, and so must a size or a count, which is bounded by
`sys.maxsize`. A seed must refuse all but 10**400, which is a valid seed:
given that, the call raises a `SetLossError` or returns. A bare TypeError,
ValueError or OverflowError out of numpy or Python fails. A parameter whose
default is None takes None. A second test feeds each size or count one
below its least value and 10**400, and expects `errors.check_count`'s
message.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import grads, kernels, losses, submodcheck, synthlab, trainer
from setloss.errors import SetLossError
from setloss.sampling import Rng


def refused_count(name: str, least: int, value) -> str:
    """The anchored pattern of `errors.check_count`'s refusal."""
    return "^" + re.escape(
        f"{name} must be an integer in [{least}, {sys.maxsize}], got {value!r}") + "$"


HUGE = 10 ** 400
BAD = (None, "1", True, math.nan, math.inf, -math.inf, HUGE,
       np.bool_(True), np.float64(math.nan))

BATCH = grads.check_batch(4, 2, 0)
DRAW = submodcheck.draw_batch(Rng(0), 3)
Z = np.eye(3)
FL = losses.LossConfig("fl")

# "callable.parameter" -> the call with v in that parameter and small valid
# values in the rest.
REAL = {
    "LossConfig.lam": lambda v: losses.LossConfig("fl", lam=v),
    "LossConfig.margin": lambda v: losses.LossConfig("triplet", margin=v),
    "LossConfig.bandwidth": lambda v: losses.LossConfig("fl", kernel="rbf", bandwidth=v),
    "TrainConfig.lr": lambda v: trainer.TrainConfig(lr=v),
    "TrainConfig.eval_split": lambda v: trainer.TrainConfig(eval_split=v),
    "split_batch.eval_fraction": lambda v: trainer.split_batch(BATCH, v, 0),
    "grad_check.h": lambda v: grads.grad_check(BATCH, FL, h=v),
    "grad_check.tolerance": lambda v: grads.grad_check(BATCH, FL, tolerance=v),
    "finite_difference_gradient.h": lambda v: grads.finite_difference_gradient(BATCH, FL, v),
    "exhaustive_dr_check.tolerance":
        lambda v: submodcheck.exhaustive_dr_check("fl", DRAW, FL, v),
    "consistency_scan.tolerance":
        lambda v: submodcheck.consistency_scan("fl", 3, 1, tolerance=v),
    "counterexample_search.tolerance":
        lambda v: submodcheck.counterexample_search("fl", n=3, max_draws=1, tolerance=v),
    "verdict_table.tolerance": lambda v: submodcheck.verdict_table(["fl"], 3, 1, 1, tolerance=v),
    "sample_clusters.spread": lambda v: synthlab.sample_clusters(np.eye(2), v, (2, 2), 0),
    "make_k_dataset.spread": lambda v: synthlab.make_k_dataset(0, 2, v),
    "make_imbalanced_dataset.decay":
        lambda v: synthlab.make_imbalanced_dataset("longtail", 2, 2, 4, v, 1.0, 0),
    "make_imbalanced_dataset.ratio":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, 2, 4, v, 1.0, 0),
    "make_imbalanced_dataset.spread":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, 2, 4, 1.0, v, 0),
    "make_imbalanced_dataset.separation":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, 2, 4, 1.0, 1.0, 0, v),
    "k_sweep.spread": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [0], 2, spread=v),
    "k_sweep.lam": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [0], 2, lam=v),
    "k_sweep.margin": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [0], 2, margin=v),
    "k_sweep.bandwidth": lambda v: synthlab.k_sweep(["fl"], ["rbf"], [0], 2, bandwidth=v),
    "rbf_similarity.bandwidth": lambda v: kernels.rbf_similarity(Z, v),
    "similarity.bandwidth": lambda v: kernels.similarity(Z, "rbf", v),
}

INTEGER = {
    "TrainConfig.steps": lambda v: trainer.TrainConfig(steps=v),
    "TrainConfig.batch_size": lambda v: trainer.TrainConfig(batch_size=v),
    "TrainConfig.seed": lambda v: trainer.TrainConfig(seed=v),
    "TrainConfig.out_dim": lambda v: trainer.TrainConfig(out_dim=v),
    "split_batch.seed": lambda v: trainer.split_batch(BATCH, 0.25, v),
    "initial_params.in_dim": lambda v: trainer.initial_params(v, 2, 0),
    "initial_params.out_dim": lambda v: trainer.initial_params(3, v, 0),
    "initial_params.seed": lambda v: trainer.initial_params(3, 2, v),
    "check_batch.n": lambda v: grads.check_batch(v, 2, 0),
    "check_batch.dim": lambda v: grads.check_batch(4, v, 0),
    "check_batch.seed": lambda v: grads.check_batch(4, 2, v),
    "consistency_scan.n": lambda v: submodcheck.consistency_scan("fl", v, 1),
    "consistency_scan.draws": lambda v: submodcheck.consistency_scan("fl", 3, v),
    "consistency_scan.seed": lambda v: submodcheck.consistency_scan("fl", 3, 1, v),
    "counterexample_search.n": lambda v: submodcheck.counterexample_search("fl", n=v, max_draws=1),
    "counterexample_search.max_draws":
        lambda v: submodcheck.counterexample_search("fl", n=3, max_draws=v),
    "counterexample_search.seed":
        lambda v: submodcheck.counterexample_search("fl", n=3, max_draws=1, seed=v),
    "verdict_table.n": lambda v: submodcheck.verdict_table(["fl"], v, 1, 1),
    "verdict_table.draws": lambda v: submodcheck.verdict_table(["fl"], 3, v, 1),
    "verdict_table.max_draws": lambda v: submodcheck.verdict_table(["fl"], 3, 1, v),
    "verdict_table.seed": lambda v: submodcheck.verdict_table(["fl"], 3, 1, 1, v),
    "sample_clusters.counts": lambda v: synthlab.sample_clusters(np.eye(2), 1.0, (2, v), 0),
    "sample_clusters.seed": lambda v: synthlab.sample_clusters(np.eye(2), 1.0, (2, 2), v),
    "k_scale.k": synthlab.k_scale,
    "make_k_dataset.k": lambda v: synthlab.make_k_dataset(v, 2),
    "make_k_dataset.points_per_cluster": lambda v: synthlab.make_k_dataset(0, v),
    "make_k_dataset.seed": lambda v: synthlab.make_k_dataset(0, 2, seed=v),
    "make_imbalanced_dataset.c":
        lambda v: synthlab.make_imbalanced_dataset("step", v, 2, 4, 1.0, 1.0, 0),
    "make_imbalanced_dataset.d":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, v, 4, 1.0, 1.0, 0),
    "make_imbalanced_dataset.base_count":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, 2, v, 1.0, 1.0, 0),
    "make_imbalanced_dataset.seed":
        lambda v: synthlab.make_imbalanced_dataset("step", 2, 2, 4, 1.0, 1.0, v),
    "k_sweep.ks": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [v], 2),
    "k_sweep.points_per_cluster": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [0], v),
    "k_sweep.seed": lambda v: synthlab.k_sweep(["fl"], ["cosine"], [0], 2, seed=v),
    "Rng.seed": Rng,
}

# Parameters whose default is None, which they take.
NONE_IS_DEFAULT = {"TrainConfig.batch_size", "TrainConfig.out_dim",
                   "make_imbalanced_dataset.separation"}

# What the property does not feed, each with its reason.
LEFT_OUT = {
    # Parameters that are not numbers.
    "LossConfig.objective, LossConfig.kernel, similarity.kind": "names, checked against the choices",
    "TrainConfig.normalize, exhaustive_dr_check.include_empty, initial_params.normalize":
        "flags",
    "TrainConfig.loss, grad_check.batch, grad_check.config, split_batch.data":
        "objects built and checked on their own",
    "sample_clusters.centroids": "an array, checked as the batch's vectors",
    "verdict_table.names, k_sweep.names, k_sweep.kinds": "lists of names",
    # Callables outside the listed public surface.
    "Rng.derive, uniforms, normals, derived_normals, permutation":
        "draw sizes the package computes; a check would sit in the scans' loops",
}


@pytest.mark.parametrize("name", sorted(REAL) + sorted(INTEGER))
@settings(max_examples=4 * len(BAD), deadline=None, derandomize=True, database=None)
@given(value=st.sampled_from(BAD))
def test_a_numeric_parameter_refuses_what_is_not_a_number(name, value):
    call = REAL.get(name) or INTEGER[name]
    try:
        call(value)
    except SetLossError:
        return
    # A seed of any size or a default may be taken; nothing else may.
    assert ((name.endswith(".seed") and value is HUGE)
            or (name in NONE_IS_DEFAULT and value is None)), f"{name} took {value!r}"


# Each size or count: the name its refusal gives, and its least value.
COUNTS = {
    "TrainConfig.steps": ("steps", 1),
    "TrainConfig.batch_size": ("batch_size", 1),
    "TrainConfig.out_dim": ("out_dim", 2),
    "initial_params.in_dim": ("in_dim", 1),
    "initial_params.out_dim": ("out_dim", 2),
    "check_batch.n": ("n", 2),
    "check_batch.dim": ("dim", 1),
    "consistency_scan.n": ("n", 3),
    "consistency_scan.draws": ("draws", 1),
    "counterexample_search.n": ("n", 3),
    "counterexample_search.max_draws": ("max_draws", 1),
    "verdict_table.n": ("n", 3),
    "verdict_table.draws": ("draws", 1),
    "verdict_table.max_draws": ("max_draws", 1),
    "sample_clusters.counts": ("counts[1]", 0),
    "make_k_dataset.points_per_cluster": ("points_per_cluster", 1),
    "make_imbalanced_dataset.c": ("c", 1),
    "make_imbalanced_dataset.d": ("d", 0),
    "make_imbalanced_dataset.base_count": ("base_count", 2),
    "k_sweep.points_per_cluster": ("points_per_cluster", 1),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_a_size_or_count_refuses_what_lies_outside_its_range(name):
    key, least = COUNTS[name]
    for value in (least - 1, HUGE):
        with pytest.raises(SetLossError, match=refused_count(key, least, value)):
            INTEGER[name](value)


def test_the_parameter_tables_agree():
    assert NONE_IS_DEFAULT <= set(REAL) | set(INTEGER)
    assert not set(REAL) & set(INTEGER)
    # Every integer parameter is a size or count, a seed or a K.
    assert sorted(name for name in set(INTEGER) - set(COUNTS)
                  if not name.endswith(".seed")) == ["k_scale.k", "k_sweep.ks",
                                                     "make_k_dataset.k"]
    assert set(COUNTS) <= set(INTEGER)
