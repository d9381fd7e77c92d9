"""Gradient entry weights against their frozen per-objective oracle, bit for bit.

Everything between the two "Frozen oracle" markers is the `_entry_weights`
rule chain `setloss.grads` ran before each objective's weight rule moved
into its `objectives` record, copied verbatim. It is the reference the
record rules must reproduce exactly -- every weight matrix byte for byte,
signed zeros included, and None where an objective writes no weights of
that kind -- and is not to be edited. The rules now write the doubled
weights M = W + W.T, so each M, written through a `Scaled` with no form,
is compared with the oracle's W folded the way the kernel pullbacks used
to fold it; `grads._entry_weights`, which writes each M over its kernel
matrix in the form that matrix's pullback reads, is compared with that
form of the same M.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import grads, kernels, losses
from setloss import objectives as registry
from setloss._backend import backend
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


def _mixed_runs(n, dim, seed):
    """_class_sorted with two rows of classes 1 and 2 traded, so class 0 is
    still a run of rows and classes 1 and 2 are not: one matrix holds both
    blocks written in place and blocks written back."""
    b = _class_sorted(n, dim, seed)
    labels = b.labels.copy()
    one, two = np.flatnonzero(labels == 1)[1], np.flatnonzero(labels == 2)[1]
    labels[[one, two]] = labels[[two, one]]
    return EmbeddingBatch(b.vectors, labels)


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
    _mixed_runs(12, 8, 7), _mixed_runs(240, 8, 8),
]


def doubled_weights(obj, s, d, classes, lam, eps, whole, picks=None,
                    work=None):
    """(M, Mdist): the record's doubled weights, written through `Scaled`s
    with no form into NaN-filled arrays, so that an entry the rule leaves
    unwritten shows up; each None where s or d is, for a matrix the record
    does not read. A folding rule builds W in work's "ws", zeroed for it as
    `grads._entry_weights` zeroes it."""
    shape = (s if d is None else d).shape

    def scratch():
        w = kernels.workspace_buffer(work, "ws", shape)
        w.fill(0.0)
        return w
    m, mdist = (None if k is None else np.full(shape, np.nan) for k in (s, d))
    obj.weights(*(None if k is None else registry.Scaled(k) for k in (m, mdist)),
                scratch, s, d, classes, picks, lam, eps, whole)
    return m, mdist


def _in_form(k, m, key):
    """The form `kernels.WEIGHT_FORMS[key]` of M over the kernel matrix K."""
    form = kernels.WEIGHT_FORMS[key]
    if form is None:
        return m
    k = k.copy()
    form(k, m)
    return k


def _old_doubled(weights):
    """The fold the kernel pullbacks applied to W before the weight rules
    wrote it themselves: W + W.T with a zero diagonal."""
    m = weights + weights.T
    np.fill_diagonal(m, 0.0)
    return m


def _judge(name, cfg, batch):
    """Compare both weight builds with the oracle on one batch; False if the
    batch lies outside the objective's domain.

    The rules write the doubled weights M = W + W.T, with a zero diagonal
    (only the folding rules build W), so each M is pinned to the oracle's W
    folded by `_old_doubled`, with and without a workspace, and
    `_entry_weights` to the kernel's form of M.
    """
    obj = registry.get(name)
    # The oracle reads S for every record; the library builds S and D only
    # for a record that reads them, and None for the others.
    every = kernels.similarity(batch, cfg.kernel, cfg.bandwidth)
    s, d = losses.matrices(batch, cfg)
    assert (s is not None, d is not None) == ("s" in obj.reads, obj.reads[-1] != "s")
    if s is not None:
        assert s.tobytes() == every.tobytes()
    classes = partition_from_labels(batch.labels)
    try:
        whole = obj.whole_value(s, cfg.lam)
        losses.check_preconditions(cfg, classes, whole)
        old = _entry_weights(objectives.OBJ_CODE[name], every, d, list(classes),
                             cfg.lam, cfg.margin)
    except PreconditionError:
        # Outside the objective's domain (n-pairs and supcon log
        # arguments, log-det blocks under neg-euclidean, triplet singletons).
        return False
    picks = None
    if obj.picking_term is not None:
        # fl's weight rule reads the argmax its term picked.
        picks = backend.total_value(obj, s, d, classes, cfg.lam, cfg.margin,
                                    whole)[2]
    ws, wd, wd2 = old
    assert (wd is not None, wd2 is not None) == ("d" in obj.reads, "d2" in obj.reads)
    if s is None:
        # A record that reads no S writes no S weight: the oracle's is +0.0.
        assert ws.tobytes() == np.zeros_like(ws).tobytes()
        ws = None
    for work in (None, _dirty_workspace(batch.n)):
        new = doubled_weights(obj, s, d, classes, cfg.lam, cfg.margin, whole,
                              picks, work)
        for got, want in zip(new, (ws, wd if "d" in obj.reads else wd2)):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == _old_doubled(want).tobytes()
    # Each M goes over a copy of its kernel matrix, in that matrix's form,
    # with W built in a "ws" that held NaN.
    formed = [None if k is None else k.copy() for k in (s, d)]
    _dirty_workspace(batch.n)
    grads._entry_weights(obj, cfg.kernel, *formed, classes, cfg.lam, cfg.margin,
                         whole, picks)
    for got, m, k, key in zip(formed, new, (s, d), (cfg.kernel, obj.reads[-1])):
        if m is None:
            assert got is None
        else:
            assert got.tobytes() == _in_form(k, m, key).tobytes()
    return True


def _dirty_workspace(n):
    """A workspace whose every n x n buffer holds NaN, and the calling
    thread's scratch "cos" and "ws" filled with NaN too, so that code that
    reads a buffer before writing it, such as a scratch W left unzeroed,
    shows up."""
    work = kernels.Workspace()
    for name in ("s", "d", "cos", "ws"):
        work.buffer(name, (n, n)).fill(np.nan)
    for name in ("cos", "ws"):
        kernels.thread_workspace().buffer(name, (n, n)).fill(np.nan)
    return work


def test_every_kernel_and_record_distance_has_one_weight_form():
    # A record reads S, one form of D, or S and then one form of D.
    for obj in registry.REGISTRY:
        assert obj.reads in {("s",), ("d",), ("d2",), ("s", "d"), ("s", "d2")}
    distances = {key for obj in registry.REGISTRY for key in obj.reads} - {"s"}
    assert set(kernels.WEIGHT_FORMS) == set(kernels.SIMILARITY_KINDS) | distances


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
