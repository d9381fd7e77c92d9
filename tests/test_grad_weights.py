"""Gradient entry weights against their frozen per-objective oracle, bit for bit.

Everything between the two "Frozen oracle" markers is the `_entry_weights`
rule chain `setloss.grads` ran before each objective's weight rule moved
into its `objectives` record, copied verbatim. It is the reference the
record rules must reproduce exactly -- every weight matrix byte for byte,
signed zeros included, and None where an objective writes no weights of
that kind -- and is not to be edited.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import grads, kernels, losses
from setloss import objectives as registry
from setloss.batch import EmbeddingBatch, partition_from_labels
from setloss.errors import PreconditionError

# The oracle names each objective by its position in the registry, as
# `objectives.OBJ_CODE[name]`; the library itself passes records.
objectives = SimpleNamespace(
    OBJ_CODE={name: i for i, name in enumerate(registry.OBJECTIVES)})

# ---- Frozen oracle -------------------------------------------------------

def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = np.exp(v - np.max(v))
    return shifted / np.sum(shifted)


def _entry_weights(code, s, d, sets, lam, eps):
    """(dL/dS, dL/dD, dL/dD^2) as n x n matrices, or None where unused."""
    n = s.shape[0]
    everything = np.arange(n)
    ws = np.zeros((n, n))
    wd = wd2 = None

    if code == objectives.OBJ_CODE["logdet-cf"]:
        inv_full = np.linalg.inv(s + lam * np.eye(n))

    for members in sets:
        a = np.asarray(members, dtype=np.intp)
        comp = np.setdiff1d(everything, a, assume_unique=True)
        aa = np.ix_(a, a)

        if code == objectives.OBJ_CODE["triplet"]:
            if wd2 is None:
                wd2 = np.zeros((n, n))
            d2 = d * d
            for i in a:
                for p in a:
                    if p == i or comp.size == 0:
                        continue
                    active = d2[i, p] - d2[i, comp] + eps > 0.0
                    wd2[i, p] += float(np.sum(active))
                    wd2[i, comp] -= active.astype(float)

        elif code == objectives.OBJ_CODE["n-pairs"]:
            ws[aa] -= 1.0
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] -= inv_row[:, None]

        elif code == objectives.OBJ_CODE["opl"]:
            ws[aa] -= 1.0
            ws[np.ix_(a, comp)] += 1.0

        elif code == objectives.OBJ_CODE["snn"]:
            for i in a:
                own = a[a != i]
                if own.size:
                    ws[i, own] -= _softmax(s[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["supcon"]:
            ws[aa] -= 1.0 / a.size
            inv_row = 1.0 / (np.sum(s[a], axis=1) - 1.0)
            ws[a] += inv_row[:, None]

        elif code == objectives.OBJ_CODE["submod-triplet"]:
            ws[np.ix_(a, comp)] += 2.0 * s[np.ix_(a, comp)]
            ws[aa] -= 2.0 * s[aa]

        elif code == objectives.OBJ_CODE["submod-snn"]:
            if wd is None:
                wd = np.zeros((n, n))
            for i in a:
                own = a[a != i]
                if own.size:
                    wd[i, own] += _softmax(d[i, own])
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["submod-supcon"]:
            ws[aa] -= 1.0
            for i in a:
                if comp.size:
                    ws[i, comp] += _softmax(s[i, comp])

        elif code == objectives.OBJ_CODE["gc-sf"]:
            ws[np.ix_(a, comp)] += 1.0
            ws[aa] -= lam

        elif code == objectives.OBJ_CODE["gc-cf"]:
            ws[np.ix_(a, comp)] += lam

        elif code == objectives.OBJ_CODE["logdet-sf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))

        elif code == objectives.OBJ_CODE["logdet-cf"]:
            ws[aa] += np.linalg.inv(s[aa] + lam * np.eye(a.size))
            ws -= inv_full

        elif code == objectives.OBJ_CODE["fl"]:
            # Each outside row's weight goes to its first (lowest-index) max.
            ws[comp, a[np.argmax(s[np.ix_(comp, a)], axis=1)]] += 1.0

        else:
            raise ValueError(f"no gradient rule for objective code {code}")

    return ws, wd, wd2

# ---- Frozen oracle ends --------------------------------------------------


def _class_sorted(n, dim, seed):
    """check_batch's rows reordered so each class is one contiguous run, the
    layout of the criterion-5 training data."""
    b = grads.check_batch(n, dim, seed)
    order = np.argsort(b.labels, kind="stable")
    return EmbeddingBatch(b.vectors[order], b.labels[order])


def _with_singleton(n, dim, seed):
    """check_batch with one row moved into a class of its own."""
    b = grads.check_batch(n, dim, seed)
    labels = b.labels.copy()
    labels[n // 2] = labels.max() + 1
    return EmbeddingBatch(b.vectors, labels)


BATCHES = [
    grads.check_batch(12, 8, 0), grads.check_batch(12, 8, 1),
    grads.check_batch(12, 8, 2), grads.check_batch(240, 8, 1),
    _class_sorted(12, 8, 3), _class_sorted(240, 8, 4),
    _with_singleton(12, 8, 5), _with_singleton(60, 8, 6),
]


def _dirty_workspace(n):
    """A workspace whose buffers hold NaN (True for the mask), so a weight
    rule that leaves an entry unwritten shows up."""
    work = kernels.Workspace()
    for name in ("ws", "wdist"):
        work.buffer(name, n).fill(np.nan)
    work.buffer("mask", n, bool).fill(True)
    return work


def _judge(name, cfg, batch):
    """Compare both weight builds with the oracle on one batch; False if the
    batch lies outside the objective's domain."""
    s, d = losses.matrices(batch, cfg)
    try:
        whole = registry.get(name).whole_value(s, cfg.lam)
        losses.check_preconditions(batch, cfg, s, whole)
        old = _entry_weights(objectives.OBJ_CODE[name], s, d,
                             list(partition_from_labels(batch.labels)),
                             cfg.lam, cfg.margin)
    except PreconditionError:
        # Outside the objective's domain (n-pairs and supcon log
        # arguments, log-det blocks under neg-euclidean, triplet singletons).
        return False
    for work in (None, _dirty_workspace(batch.n)):
        new = grads._entry_weights(registry.get(name), s, d,
                                   partition_from_labels(batch.labels),
                                   cfg.lam, cfg.margin, whole, work)
        for got, want in zip(new, old):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    return True


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", registry.OBJECTIVES)
def test_entry_weights_match_frozen_oracle(name, kernel, lam):
    cfg = losses.LossConfig(name, lam, kernel=kernel, bandwidth=0.7)
    judged = sum(_judge(name, cfg, b) for b in BATCHES)
    assert judged or kernel == "neg-euclidean"


@st.composite
def _labelled_batches(draw):
    """Batches with shuffled labels and uneven class sizes, singletons included."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    order = draw(st.permutations(range(labels.size)))
    seed = draw(st.integers(0, 2 ** 16))
    vectors = grads.check_batch(labels.size, 6, seed).vectors
    return EmbeddingBatch(vectors, labels[np.asarray(order)])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_labelled_batches(), st.sampled_from(kernels.SIMILARITY_KINDS))
def test_entry_weights_match_oracle_under_any_label_layout(batch, kernel):
    for name in registry.OBJECTIVES:
        _judge(name, losses.LossConfig(name, 1.3, kernel=kernel, bandwidth=0.9),
               batch)


def test_entry_weights_keep_signed_zeros():
    # Two coincident rows make S_ij = -0.0 under neg-euclidean; 0.0 + 2 S_ij
    # is +0.0 where -(2 S_ij) would be -0.0.
    vectors = grads.check_batch(8, 4, 0).vectors
    vectors[5] = vectors[2]
    batch = EmbeddingBatch(vectors, np.array([0, 1, 0, 1, 0, 1, 1, 0]))
    cfg = losses.LossConfig("submod-triplet", kernel="neg-euclidean")
    s, _ = losses.matrices(batch, cfg)
    assert np.signbit(s[2, 5]) and s[2, 5] == 0.0
    assert _judge("submod-triplet", cfg, batch)
