"""The seam to numpy's bundled OpenBLAS: discovery, the direct dsyrk, the
one-thread scope restoring the count, and bits.

The scope tests run twice: on numpy's bundled OpenBLAS, with its count set
to 2 for the test, and on a stand-in `_blas.Library` that keeps the count
in Python and runs dsyrk's product through numpy, so the bookkeeping is
checked on every host. Where numpy has no bundled
OpenBLAS both runs use the stand-in, and the discovery test checks that
numpy's build config does not name one.
"""

import ctypes
import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

from setloss import _blas, grads, kernels, losses, synthlab, trainer
from setloss.batch import EmbeddingBatch
from setloss.errors import DivergedLoss
from test_trainer import _in_threads

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class _StandIn:
    """A thread count behind a get/set pair, as the library keeps one."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


def _numpy_dsyrk(order, uplo, trans, n, d, alpha, z, lda, beta, out, ldc):
    """The row-major alpha z @ z.T + beta out that `_blas.gram` and
    `_blas.subtract_twice_gram` ask cblas_dsyrk for, by numpy; with beta 0,
    out is not read."""
    def view(address, rows, cols):
        pointer = ctypes.cast(address, ctypes.POINTER(ctypes.c_double))
        return np.ctypeslib.as_array(pointer, (rows, cols))

    z = view(z, n, lda)[:, :d]
    c = view(out, n, ldc)[:, :n]
    c[...] = alpha * (z @ z.T) + (beta * c if beta else 0.0)


@pytest.fixture(params=["bundled", "stand-in"])
def count(request, monkeypatch):
    """The get of the library the scopes act on, its count set to 2."""
    lib = _blas.library() if request.param == "bundled" else None
    if lib is None:
        stand_in = _StandIn(2)
        lib = _blas.Library(stand_in.get, stand_in.set, _numpy_dsyrk, "StandIn")
        monkeypatch.setattr(_blas, "_library", lib)
    get, put = lib.get_threads, lib.set_threads
    before = get()
    put(2)
    yield get
    put(before)
    assert _blas._depth == 0


def test_discovery_finds_the_get_set_pair_of_a_scipy_openblas_build():
    # The pinned numpy wheel names scipy-openblas, so there a scope must act
    # on the library rather than pass as a silent no-op.
    lib = _blas._find()
    if not _blas.names_scipy_openblas():
        assert lib is None
        return
    assert lib is not None
    get, put = lib.get_threads, lib.set_threads
    before = get()
    assert before >= 1
    put(1)
    assert get() == 1
    put(before)
    assert get() == before


def test_importing_the_package_does_not_look_up_the_library():
    code = ("import setloss, setloss.trainer, setloss.cli\n"
            "from setloss import _blas\n"
            "assert _blas._library is _blas._UNSEEN\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(_blas.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _one_thread_matmul(z):
    # numpy's own z @ z.T on one thread: threaded, its bits at some shapes
    # (n = 511 or 1067, say) depend on the thread count (see `kernels`).
    return _blas.product(z, z.T)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 64, 65, 129, 257, 800, 1067])
def test_the_direct_dsyrk_writes_numpys_upper_triangle(n):
    # The call numpy's matmul makes for z @ z.T, so the same upper
    # triangle; where numpy takes another path (n = 1 is a dot product,
    # d = 1 an outer product) there is no direct call, and the Gram
    # product is numpy's.
    upper = np.triu(np.ones((n, n), dtype=bool))
    for d in (1, 2, 3, 10, 63, 64, 65, 256):
        z = np.random.default_rng(n * 1000 + d).standard_normal((n, d))
        want = _one_thread_matmul(z)
        out = np.full((n, n), np.nan)
        assert _blas.gram(z, out) is out
        if n > 1 and d > 1 and _blas.library() is not None:
            assert np.isnan(out[~upper]).all()
            assert out[upper].tobytes() == want[upper].tobytes()
        else:
            assert out.tobytes() == want.tobytes()
        got = kernels._symmetric_gram(z, np.empty((n, n)))
        assert got.tobytes() == want.tobytes()


def test_the_direct_dsyrk_leaves_arrays_it_cannot_take_to_numpy(monkeypatch):
    lib = _blas.library()
    calls = []
    if lib is not None:
        monkeypatch.setattr(_blas, "_library", lib._replace(
            dsyrk=lambda *args: (calls.append(args), lib.dsyrk(*args))))
    z = np.random.default_rng(3).standard_normal((40, 6))
    want = _one_thread_matmul(z)
    out = np.empty((40, 40))
    shared = np.empty(40 * 40)                           # z inside out
    shared[:240] = z.ravel()
    for a, b in ((np.asfortranarray(z), out),            # not C-contiguous
                 (z.astype(np.float32), out),            # not float64
                 (z, np.empty((40, 40), np.float32)),
                 (z, np.empty((80, 40))[::2]),           # a strided out
                 (shared[:240].reshape(40, 6), shared.reshape(40, 40))):
        # numpy's product writes both triangles.
        assert np.allclose(_blas.gram(a, b), want, rtol=1e-6, atol=1e-6)
    with pytest.raises(ValueError):
        _blas.gram(z, np.empty((41, 41)))                # the wrong shape
    assert calls == []
    _blas.gram(z, out)
    assert len(calls) == (lib is not None)
    got = kernels._symmetric_gram(np.asfortranarray(z), out)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 129, 800])
def test_the_direct_update_subtracts_twice_numpys_gram_product(n):
    # One dsyrk update with alpha = -2 and beta = 1 rounds each entry once,
    # as subtracting the doubled product does. Past _ONE_PANEL columns, and
    # where there is no direct call, the product is made apart.
    upper = np.triu(np.ones((n, n), dtype=bool))
    for d in (1, 2, 10, 64, _blas._ONE_PANEL, _blas._ONE_PANEL + 1, 256, 400):
        rng = np.random.default_rng(n * 1000 + d)
        z = rng.standard_normal((n, d))
        start = rng.standard_normal((n, n)) + d
        want = start - 2.0 * _one_thread_matmul(z)
        out = start.copy()
        np.copyto(out, np.nan, where=~upper)
        assert _blas.subtract_twice_gram(z, out) is out
        assert out[upper].tobytes() == want[upper].tobytes()


def test_the_direct_update_leaves_arrays_it_cannot_take_to_numpy(monkeypatch):
    lib = _blas.library()
    calls = []
    if lib is not None:
        monkeypatch.setattr(_blas, "_library", lib._replace(
            dsyrk=lambda *args: (calls.append(args), lib.dsyrk(*args))))
    z = np.random.default_rng(4).standard_normal((40, 6))
    start = np.random.default_rng(5).standard_normal((40, 40))
    want = start - 2.0 * _one_thread_matmul(z)
    for a in (np.asfortranarray(z),                      # not C-contiguous
              np.ascontiguousarray(np.tile(z, 30)[:, :_blas._ONE_PANEL + 1]),  # wide
              np.stack([z, z])):                         # a stack
        out = np.broadcast_to(start, a.shape[:-1] + (40,)).copy()
        _blas.subtract_twice_gram(a, out)
        if a.shape[-1] == z.shape[-1]:
            assert out.tobytes() == np.broadcast_to(want, out.shape).tobytes()
    assert calls == []
    out = start.copy()
    _blas.subtract_twice_gram(z, out)
    assert len(calls) == (lib is not None)
    assert np.triu(out).tobytes() == np.triu(want).tobytes()


FUNCTIONS = ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads",
             "scipy_cblas_dsyrk", "scipy_openblas_get_corename")


@pytest.mark.parametrize("missing", (None,) + FUNCTIONS)
def test_the_four_functions_are_found_together_or_not_at_all(monkeypatch,
                                                            missing):
    # A scope acts only on a library whose Gram products `_blas.gram` can
    # also run, and the pinned numpy wheel's library has all four. The
    # stand-in library exports the 32-bit names, without `64_`.
    lib = _bundled_or_absent()
    assert lib is None or all(lib) and isinstance(lib.corename, str)
    fake = types.SimpleNamespace(**{name: (lambda *args: b"Fake")
                                    for name in FUNCTIONS if name != missing})
    monkeypatch.setattr(_blas, "_shared_object", lambda: fake)
    found = _blas._find()
    if missing is not None:
        assert found is None
        return
    assert found == (fake.scipy_openblas_get_num_threads,
                     fake.scipy_openblas_set_num_threads,
                     fake.scipy_cblas_dsyrk, "Fake")
    assert found.dsyrk.argtypes[3] is ctypes.c_int


def test_a_scope_runs_one_thread_and_restores_the_count(count):
    with _blas.one_thread():
        assert count() == 1
        with _blas.one_thread():
            assert count() == 1
        assert count() == 1
    assert count() == 2


def test_a_scope_restores_the_count_when_its_body_raises(count):
    with pytest.raises(RuntimeError):
        with _blas.one_thread():
            assert count() == 1
            raise RuntimeError("inside the scope")
    assert count() == 2
    with pytest.raises(ValueError):
        _blas.product(np.ones((3, 4)), np.ones((3, 4)))
    assert count() == 2


@pytest.mark.parametrize("kind", ["cosine", "rbf", "neg-euclidean"])
def test_gradient_calls_leave_the_count_as_they_found_it(count, kind):
    batch = grads.check_batch(12, 5, seed=4)
    for objective in ("fl", "gc-cf", "triplet"):
        grads.loss_gradient(batch, losses.LossConfig(objective, kernel=kind))
        assert count() == 2


def test_a_diverged_training_run_leaves_the_count_as_it_found_it(count, monkeypatch):
    monkeypatch.setattr(losses.backend, "total_value",
                        lambda *args: (float("nan"), None, None))
    data = synthlab.make_imbalanced_dataset("step", 3, 4, 40, 2.0, 0.3, 0,
                                            separation=3.0)
    with pytest.raises(DivergedLoss):
        trainer.train_stage1(data, trainer.TrainConfig(steps=2))
    assert count() == 2


def test_overlapping_scopes_restore_the_count_after_the_last_leaves(count):
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with _blas.one_thread():
            first_in.set()
            assert second_in.wait(60)
        seen["first left"] = count()
        first_out.set()

    def second():
        assert first_in.wait(60)
        with _blas.one_thread():
            second_in.set()
            assert first_out.wait(60)
            seen["second inside"] = count()
        seen["second left"] = count()

    _in_threads(first, second)
    assert seen == {"first left": 1, "second inside": 1, "second left": 2}
    assert count() == 2


def _criterion_5_rows():
    """The criterion-5 training split: 800 rows in dimension 10."""
    with open(os.path.join(FIXTURES, "imbalance_reference.json")) as fh:
        config = json.load(fh)["config"]
    ds = config["dataset"]
    data = synthlab.make_imbalanced_dataset(
        ds["kind"], ds["classes"], ds["dim"], ds["base_count"], ds["decay"],
        ds["spread"], ds["seed"], ds["separation"])
    return trainer.split_batch(data, config["train"]["eval_split"], ds["seed"])[0]


def _trained(data, objective, kind):
    config = trainer.TrainConfig(
        loss=losses.LossConfig(objective, kernel=kind, bandwidth=0.6),
        lr=0.001, steps=3, seed=2)
    params, curve = trainer.train_stage1(data, config)
    return curve, params.W.tobytes()


def _bundled_or_absent():
    """The bundled library's (get, set), or None where numpy has none."""
    lib = _blas.library()
    assert (lib is not None) == _blas.names_scipy_openblas()
    return lib


def _core():
    """The kernel family the bundled OpenBLAS picked for this CPU at run time."""
    lib = _blas.library()
    return lib.corename if lib else None


@pytest.mark.parametrize("kind", ["rbf", "cosine"])
@pytest.mark.parametrize("objective", ["fl", "gc-cf", "supcon"])
def test_training_at_the_criterion_5_size_keeps_the_threaded_bits(
        monkeypatch, objective, kind):
    # At n = 800 and d = 10 OpenBLAS's products give the same bits on one
    # thread as on two, which is why the criterion-5 fixture and the
    # benchmark reference hold. That is not so at every size: at n = 525
    # or 1000 with d = 10, m @ z on one thread differs from two threads in
    # its last bits (see the next test). OpenBLAS promises neither, so this
    # runs only on the kernel family it was measured with.
    lib = _bundled_or_absent()
    if lib is not None and _core() != "SkylakeX":
        pytest.skip(f"one- and two-thread bits measured on SkylakeX, not {_core()}")
    data = _criterion_5_rows()
    if kind == "cosine":
        # Shifted off the origin, so every cosine row sum is large enough
        # for supcon's log.
        data = EmbeddingBatch(data.vectors + 5.0, data.labels)
    before = lib.get_threads() if lib else None
    if lib:
        lib.set_threads(2)
    entered = []
    real_enter = _blas._enter
    monkeypatch.setattr(_blas, "_enter",
                        lambda lib: (entered.append(1), real_enter(lib)))
    try:
        scoped = _trained(data, objective, kind)
        assert lib is None or (entered and lib.get_threads() == 2)
        monkeypatch.setattr(_blas, "_library", None)
        assert _trained(data, objective, kind) == scoped
    finally:
        if lib:
            lib.set_threads(before)


@pytest.mark.parametrize("objective", ["fl", "gc-cf", "supcon"])
def test_training_does_not_depend_on_the_thread_count_outside_the_scope(
        monkeypatch, objective):
    # 525 rows: here the threaded Gram product's bits depend on the thread
    # count, and the threaded m @ z differs from the one-thread product.
    data = synthlab.make_imbalanced_dataset("step", 3, 10, 300, 2.0, 0.3, 3,
                                            separation=3.0)
    lib = _bundled_or_absent()
    if lib is None:
        return
    get, put = lib.get_threads, lib.set_threads
    before = get()
    try:
        runs = []
        for outside in (2, 3):
            put(outside)
            runs.append(_trained(data, objective, "rbf"))
            assert get() == outside
        put(1)
        monkeypatch.setattr(_blas, "_library", None)
        runs.append(_trained(data, objective, "rbf"))
    finally:
        put(before)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("kind", ["rbf", "cosine", "neg-euclidean"])
def test_gradients_do_not_depend_on_the_thread_count_outside_the_scope(
        monkeypatch, kind):
    # A gradient call outside training: only the kernels' own scopes apply.
    data = synthlab.make_imbalanced_dataset("step", 3, 10, 300, 2.0, 0.3, 3,
                                            separation=3.0)
    batch = EmbeddingBatch(data.vectors + 1.0, data.labels)
    config = losses.LossConfig("gc-cf", kernel=kind)
    lib = _bundled_or_absent()
    if lib is None:
        return
    get, put = lib.get_threads, lib.set_threads
    before = get()
    try:
        runs = []
        for outside in (2, 3):
            put(outside)
            runs.append(grads.loss_gradient(batch, config).tobytes())
            assert get() == outside
        put(1)
        monkeypatch.setattr(_blas, "_library", None)
        runs.append(grads.loss_gradient(batch, config).tobytes())
    finally:
        put(before)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("shape", [(1, 191, 12), (2, 250, 12), (3, 525, 10),
                                   (2, 800, 10)])
def test_stacked_kernels_match_each_batch_alone(shape):
    # A threaded product of a stack split these stacks' rows across threads
    # other than a batch's own one-thread product, and their last bits
    # differed. Every product now runs on one thread.
    stack = np.random.default_rng(sum(shape)).normal(size=shape) + 0.5
    squared = kernels.squared_distances(stack)
    cosine = kernels.cosine_similarity(stack)
    for b in range(shape[0]):
        assert squared[b].tobytes() == kernels.squared_distances(stack[b]).tobytes()
        assert cosine[b].tobytes() == kernels.cosine_similarity(stack[b]).tobytes()
