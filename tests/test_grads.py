import math
import sys
import tracemalloc

import numpy as np
import pytest

from setloss import batch as batch_module
from setloss import grads, kernels, losses, objectives
from setloss._backend import backend
from setloss.batch import ClassPartition, EmbeddingBatch, partition_from_labels
from setloss.errors import PreconditionError, ValidationError
from setloss.sampling import Rng
from test_grad_weights import doubled_weights
from test_numeric_boundary import refused_count
from test_trainer import _in_threads


@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_analytic_matches_fd_every_objective(name):
    b = grads.check_batch(12, 8, 0)
    rep = grads.grad_check(b, losses.LossConfig(name))
    assert rep.passed, (
        f"{name}: max_rel={rep.max_rel_error:.3e} at {rep.worst_coordinate}"
    )
    assert rep.max_rel_error <= 1e-4


@pytest.mark.parametrize("kernel,bw", [("cosine", 1.0), ("rbf", 0.7)])
def test_analytic_matches_fd_across_kernels(kernel, bw):
    b = grads.check_batch(10, 6, 4)
    for name in ("fl", "gc-cf", "logdet-sf", "supcon"):
        rep = grads.grad_check(b, losses.LossConfig(name, kernel=kernel, bandwidth=bw))
        assert rep.passed, f"{name}/{kernel}: {rep.max_rel_error:.3e}"


def test_check_batch_stays_in_log_domain():
    # Row sums minus one must stay positive or n-pairs and supcon cannot run.
    for seed in range(10):
        b = grads.check_batch(12, 8, seed)
        s, _ = losses.matrices(b, losses.LossConfig("supcon"))
        assert np.all(np.sum(s, axis=1) - 1.0 > 0.5)


def test_fault_injection_is_caught(monkeypatch):
    b = grads.check_batch(8, 5, 1)
    real = grads.evaluation_gradient

    def biased(ev):
        g = real(ev)
        g[0, 0] += 0.1
        return g

    monkeypatch.setattr(grads, "evaluation_gradient", biased)
    rep = grads.grad_check(b, losses.LossConfig("gc-cf"))
    assert not rep.passed
    assert rep.worst_coordinate == (0, 0)
    assert rep.max_abs_error == pytest.approx(0.1, rel=1e-2)


def test_fd_error_shrinks_quadratically():
    b = grads.check_batch(10, 6, 0)
    cfg = losses.LossConfig("gc-cf", kernel="rbf", bandwidth=1.0)
    a = grads.loss_gradient(b, cfg)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        fd = grads.finite_difference_gradient(b, cfg, h)
        errs.append(np.max(np.abs(fd - a)))
    # Central differences: halving h cuts the truncation error by about 4.
    assert 3.8 < errs[0] / errs[1] < 4.2
    assert 3.8 < errs[1] / errs[2] < 4.2


def test_triplet_inactive_hinges_give_zero_gradient():
    # Clusters tight and far apart, every hinge slack: flat region.
    base = np.zeros((6, 3))
    base[:3] += 0.01 * np.arange(3)[:, None]
    base[3:] += 10.0
    base[3:] += 0.01 * np.arange(3)[:, None]
    b = EmbeddingBatch(base + 1.0, np.array([0, 0, 0, 1, 1, 1]))
    cfg = losses.LossConfig("triplet", margin=0.2, kernel="rbf")
    assert losses.total_loss(b, cfg).total == 0.0
    g = grads.loss_gradient(b, cfg)
    assert np.all(g == 0.0)
    rep = grads.grad_check(b, cfg)
    assert rep.passed
    assert rep.excluded == 0


def test_fl_tie_rows_are_excluded():
    # The outside point is equally similar to both class members, so the
    # max inside the facility-location term sits on a nondifferentiable tie.
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 1]))
    rep = grads.grad_check(b, losses.LossConfig("fl"))
    assert rep.excluded == 3 * b.dim
    assert rep.passed


def test_gradient_is_rotation_equivariant():
    b = grads.check_batch(9, 6, 7)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)))
    if np.linalg.det(q) > 0:
        q[:, 0] = -q[:, 0]  # force a reflection as well
    rb = EmbeddingBatch(b.vectors @ q, b.labels)
    for name, kern in (("fl", "cosine"), ("gc-cf", "rbf"), ("logdet-cf", "cosine")):
        cfg = losses.LossConfig(name, kernel=kern)
        assert losses.total_loss(rb, cfg).total == pytest.approx(
            losses.total_loss(b, cfg).total, rel=1e-12
        )
        g = grads.loss_gradient(b, cfg)
        gr = grads.loss_gradient(rb, cfg)
        assert np.allclose(gr, g @ q, atol=1e-10)


def _rbf_entry_gradient(z, i, j, bandwidth):
    """(dS_ij/dz_i, dS_ij/dz_j) for the RBF entry
    S_ij = exp(-|z_i - z_j|^2 / (2 bw^2)), i != j."""
    diff = z[i] - z[j]
    s = math.exp(-float(diff @ diff) / (2.0 * bandwidth * bandwidth))
    g = -s / (bandwidth * bandwidth) * diff
    return g, -g


def test_gc_cf_gradient_from_kernel_gradients():
    # Independent assembly: every cross pair (i, j) carries weight 2 lam,
    # once from i's class term and once from j's.
    b = grads.check_batch(7, 4, 2)
    lam = 1.5
    cfg = losses.LossConfig("gc-cf", lam=lam, kernel="rbf", bandwidth=0.9)
    expected = np.zeros_like(b.vectors)
    for i in range(b.n):
        for j in range(b.n):
            if b.labels[i] == b.labels[j] or j <= i:
                continue
            gi, gj = _rbf_entry_gradient(b.vectors, i, j, cfg.bandwidth)
            expected[i] += 2.0 * lam * gi
            expected[j] += 2.0 * lam * gj
    got = grads.loss_gradient(b, cfg)
    assert np.allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("n, dim, name, least, bad", [
    (6.0, 3, "n", 2, 6.0), (6, 2.0, "dim", 1, 2.0), (True, 3, "n", 2, True),
    (6, True, "dim", 1, True), ("6", 3, "n", 2, "6"), (1, 3, "n", 2, 1),
    (6, 0, "dim", 1, 0),
])
def test_check_batch_refuses_a_size_that_is_not_one(n, dim, name, least, bad):
    # Floats let numpy's TypeError out, True was a bare TypeError, and n = 1
    # gave a one-class batch.
    with pytest.raises(ValidationError, match=refused_count(name, least, bad)):
        grads.check_batch(n, dim, 0)


def test_check_batch_refuses_a_draw_of_more_than_sys_maxsize_entries():
    # n * dim wrapped under np.prod, and numpy's reshape refused the draw.
    name = f"the entry count of a draw of shape {(sys.maxsize, 2)}"
    with pytest.raises(ValidationError, match=refused_count(name, 0, 2 * sys.maxsize)):
        grads.check_batch(sys.maxsize, 2, 0)


def test_check_batch_takes_numpy_integers_with_the_same_bits():
    want = grads.check_batch(12, 8, 3)
    got = grads.check_batch(np.int64(12), np.int32(8), 3)
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_fd_rejects_nonpositive_step():
    b = grads.check_batch(6, 3, 0)
    with pytest.raises(ValidationError):
        grads.finite_difference_gradient(b, losses.LossConfig("fl"), h=0.0)


@pytest.mark.parametrize("h", [-1e-5, math.inf, math.nan])
def test_grad_check_refuses_a_step_outside_zero_to_inf(h):
    b = grads.check_batch(6, 3, 0)
    with pytest.raises(ValidationError, match="step h must be finite and > 0"):
        grads.grad_check(b, losses.LossConfig("fl"), h=h)


@pytest.mark.parametrize("h", [True, "1e-5", None, -1e-5, math.inf])
def test_grad_check_refuses_a_bad_step_before_it_evaluates(h, monkeypatch):
    # True ran with h = 1; a string or None raised a bare TypeError, and
    # every bad step was refused only after the loss had been evaluated.
    b = grads.check_batch(6, 3, 0)

    def unreached(*args):
        raise AssertionError("a bad step reached the loss")

    monkeypatch.setattr(losses, "evaluate", unreached)
    monkeypatch.setattr(losses, "total_loss", unreached)
    with pytest.raises(ValidationError,
                       match=f"^finite-difference step h must be finite and > 0, got {h!r}$"):
        grads.grad_check(b, losses.LossConfig("fl"), h=h)
    with pytest.raises(ValidationError, match="step h must be finite and > 0"):
        grads.finite_difference_gradient(b, losses.LossConfig("fl"), h=h)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_grad_check_refuses_a_tolerance_outside_zero_to_inf(tolerance):
    b = grads.check_batch(6, 3, 0)
    with pytest.raises(ValidationError, match="tolerance must be finite and >= 0"):
        grads.grad_check(b, losses.LossConfig("fl"), tolerance=tolerance)


def test_grad_check_partitions_its_labels_once(monkeypatch):
    # 12 x 8 coordinates give 192 finite-difference losses and one
    # evaluation. The check batch builds the one partition: every shifted
    # batch and the kink rule read it. Each shifted batch used to build its
    # own, 2 x 12 x 8 + 1 in all.
    built = []
    real_init = ClassPartition.__post_init__

    def counted_init(self):
        built.append(self)
        real_init(self)

    monkeypatch.setattr(ClassPartition, "__post_init__", counted_init)
    report = grads.grad_check(grads.check_batch(12, 8, 0), losses.LossConfig("fl"))
    assert report.passed
    assert len(built) == 1


def test_a_finite_difference_gradient_checks_and_counts_no_labels(monkeypatch):
    # The batch checked and counted its labels when it was built; the 192
    # shifted batches of a 12 x 8 gradient reuse its partition.
    b = grads.check_batch(12, 8, 0)
    checks, counts = [], []
    real_labels, real_bincount = batch_module._labels, np.bincount

    def labels(*args):
        checks.append(1)
        return real_labels(*args)

    def bincount(*args, **kwargs):
        counts.append(1)
        return real_bincount(*args, **kwargs)

    monkeypatch.setattr(batch_module, "_labels", labels)
    monkeypatch.setattr(np, "bincount", bincount)
    fd = grads.finite_difference_gradient(b, losses.LossConfig("supcon", kernel="rbf"))
    assert fd.shape == (12, 8) and np.all(np.isfinite(fd))
    assert checks == counts == []


# The value and gradient as computed before a training step shared one
# evaluation: fresh matrices for every pullback and a per-row argmax for fl.
# The pullbacks take the doubled weights m = W + W.T with a zero diagonal.

def _doubled(weights):
    m = weights + weights.T
    np.fill_diagonal(m, 0.0)
    return m


def _fresh_rbf_pullback(z, m, bandwidth):
    s = np.exp(-kernels.squared_distances(z) / (2.0 * bandwidth * bandwidth))
    m = m * s / (bandwidth * bandwidth)
    return m @ z - np.sum(m, axis=1)[:, None] * z


def _fresh_distance_pullback(z, m):
    d = np.sqrt(kernels.squared_distances(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(d > kernels.NORM_FLOOR, m / d, 0.0)
    return np.sum(m, axis=1)[:, None] * z - m @ z


def _unshared_value_and_gradient(batch, cfg):
    s, d = losses.matrices(batch, cfg)
    obj = objectives.get(cfg.objective)
    whole = obj.whole_value(s, cfg.lam)
    sets = partition_from_labels(batch.labels)
    losses.check_preconditions(cfg, sets, whole)
    total, per, _ = backend.total_value(obj, s, d, sets, cfg.lam, cfg.margin, whole)
    if cfg.objective == "fl":
        ws, wd, wd2 = np.zeros((batch.n, batch.n)), None, None
        for a in sets:
            for i in np.setdiff1d(np.arange(batch.n), a):
                ws[i, a[np.argmax(s[i, a])]] += 1.0
        ws = _doubled(ws)
    else:
        ws, wdist = doubled_weights(obj, s, d, sets, cfg.lam, cfg.margin, whole)
        wd, wd2 = (wdist, None) if "d" in obj.reads else (None, wdist)
    z = batch.vectors
    g = np.zeros_like(z)
    if ws is not None and np.any(ws):
        if cfg.kernel == "cosine":
            g += kernels.cosine_pullback(z, ws)
        elif cfg.kernel == "rbf":
            g += _fresh_rbf_pullback(z, ws, cfg.bandwidth)
        else:
            g += _fresh_distance_pullback(z, -ws)
    if wd is not None:
        g += _fresh_distance_pullback(z, wd)
    if wd2 is not None:
        g += 2.0 * kernels.distance_pullback(z, wd2)
    return total, per, g


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_shared_evaluation_is_bit_identical_to_fresh_matrices(name, kernel):
    cfg = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    for seed in range(3):
        b = grads.check_batch(12, 8, seed)
        try:
            total, per, g = _unshared_value_and_gradient(b, cfg)
        except PreconditionError as exc:
            # Outside the objective's domain (n-pairs and supcon log
            # arguments, log-det blocks under neg-euclidean): the shared
            # path must refuse it the same way.
            with pytest.raises(type(exc)):
                losses.evaluate(b, cfg)
            continue
        ev = losses.evaluate(b, cfg)
        assert ev.result.total == total
        assert np.array_equal(ev.result.per_class, per)
        assert np.array_equal(grads.evaluation_gradient(ev), g)
        assert np.array_equal(grads.loss_gradient(b, cfg), g)
        assert losses.total_loss(b, cfg).total == total


def test_fl_tie_goes_to_lowest_index_member():
    # Row 1 (class 1) is equally similar to members 2 and 3 of class 0, and
    # member 0 sits between them in the label order.
    v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    b = EmbeddingBatch(v, np.array([0, 1, 0, 0]))
    cfg = losses.LossConfig("fl")
    ev = losses.evaluate(b, cfg)
    assert ev.s[1, 2] == ev.s[1, 3] > ev.s[1, 0]
    assert ev.batch.classes.sets[0][ev.picks[0]].tolist() == [2]
    m, _ = doubled_weights(objectives.get("fl"), ev.s, ev.d, ev.batch.classes,
                           cfg.lam, cfg.margin, ev.whole, ev.picks)
    # W[1] is [0, 0, 1, 0], and column 1 of W holds the picks of rows 0, 2
    # and 3 in class 1, which has only row 1.
    assert np.array_equal(m[1], [1.0, 0.0, 2.0, 1.0])
    expected = kernels.cosine_pullback(b.vectors, m)
    assert np.array_equal(grads.loss_gradient(b, cfg), expected)


def test_triplet_kink_rule_marks_the_rows_of_a_hinge_at_zero():
    # Anchor 0, positive 1 and negative 2 sit on the hinge:
    # D^2_01 - D^2_02 + eps = 1 - 1.2 + 0.2 = 0. Row 3 is far from any.
    v = np.array([[0.0, 1.0], [1.0, 1.0], [np.sqrt(1.2), 1.0], [10.0, 1.0]])
    b = EmbeddingBatch(v, np.array([0, 0, 1, 1]))
    cfg = losses.LossConfig("triplet", margin=0.2)
    rows = grads._excluded_rows(losses.evaluate(b, cfg))
    assert rows.tolist() == [True, True, True, False]


def _per_pair_triplet_kinks(d, labels, eps):
    """The kink rule's loop over (anchor, positive) pairs, the reference
    `objectives._triplet_kinks` must match."""
    rows = np.zeros(labels.size, dtype=bool)
    d2 = d * d
    for k in range(labels.max() + 1):
        a, comp = np.flatnonzero(labels == k), np.flatnonzero(labels != k)
        for i in a:
            for p in a:
                if p == i:
                    continue
                near = np.abs(d2[i, p] - d2[i, comp] + eps) < objectives.TIE_GAP
                if np.any(near):
                    rows[i] = rows[p] = True
                    rows[comp[near]] = True
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_triplet_kink_rule_matches_the_per_pair_loop(seed):
    b = grads.check_batch(60, 3, seed)
    cfg = losses.LossConfig("triplet", margin=0.3)
    ev = losses.evaluate(b, cfg)
    rows = grads._excluded_rows(ev)
    assert 0 < np.sum(rows) < b.n
    assert rows.tolist() == _per_pair_triplet_kinks(ev.d, b.labels, 0.3).tolist()


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_a_gradient_writes_over_the_matrices_it_is_handed(name, kernel):
    # The gradient writes its weights over the evaluation's S and D
    # wherever they were built, here in fresh arrays, and leaves there what
    # a training step leaves in its workspace, with the same gradient bits.
    cfg = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    for seed in range(3):
        batch = grads.check_batch(12, 8, seed)
        try:
            step = losses.evaluate(batch, cfg, kernels.Workspace())
        except PreconditionError:
            continue
        want = grads.evaluation_gradient(step)
        ev = losses.evaluate(batch, cfg)
        scored = [_bits(ev.s), _bits(ev.d)]
        got = grads.evaluation_gradient(ev)
        assert [_bits(ev.s), _bits(ev.d)] == [_bits(step.s), _bits(step.d)]
        assert [_bits(ev.s), _bits(ev.d)] != scored
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
def test_threads_taking_gradients_at_once_each_get_their_serial_bits(kernel):
    # Every objective, two batch sizes, so that the threads' "ws" and "cos"
    # scratch would collide if they shared one workspace; three threads,
    # more than the cores of a 2-core host, each in its own order.
    jobs = [(grads.check_batch(n, 6, seed), losses.LossConfig(name, kernel=kernel,
                                                              bandwidth=0.7))
            for n, seed in ((40, 1), (24, 2)) for name in objectives.OBJECTIVES]

    def gradients(order):
        out = {}
        for k in order:
            batch, cfg = jobs[k]
            try:
                out[k] = grads.loss_gradient(batch, cfg).tobytes()
            except PreconditionError as exc:
                out[k] = type(exc)
        return out

    forward = range(len(jobs))
    serial = gradients(forward)
    orders = (forward, forward[::-1], [*forward[1::2], *forward[::2]])
    assert _in_threads(*(lambda order=order: gradients(order) for order in orders)) \
        == [serial] * 3


def _bits(m):
    """m's bytes, or None for a matrix the record does not read."""
    return None if m is None else m.tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_grad_check_excludes_the_kink_rows_of_the_scored_matrices_under_rbf(name, seed):
    # The kink rules must read the S the loss was scored on, not the M o S
    # the RBF weight rule writes.
    batch = grads.check_batch(12, 8, seed)
    cfg = losses.LossConfig(name, kernel="rbf", bandwidth=0.7)
    rows = grads._excluded_rows(losses.evaluate(batch, cfg))
    assert grads.grad_check(batch, cfg).excluded == rows.sum() * batch.dim


@pytest.mark.parametrize("kernel", ["cosine", "neg-euclidean"])
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_grad_check_excludes_the_kink_rows_of_the_scored_matrices(name, kernel):
    # The gradient writes its weights over S and D under every kernel, so
    # grad_check must take the kink rows before it takes the gradient.
    cfg = losses.LossConfig(name, kernel=kernel, bandwidth=0.7)
    for seed in range(6):
        batch = grads.check_batch(12, 8, seed)
        try:
            rows = grads._excluded_rows(losses.evaluate(batch, cfg))
        except PreconditionError:
            with pytest.raises(PreconditionError):
                grads.grad_check(batch, cfg)
            continue
        assert grads.grad_check(batch, cfg).excluded == rows.sum() * batch.dim


def _traced_step(batch, cfg):
    """(gradient, peak traced bytes, evaluation, workspace, the thread's
    workspace) of one step that builds its kernel in a new workspace. Run
    in a new thread, so that the gradient's scratch, in the thread's
    workspace, is new and traced too."""
    work = kernels.Workspace()
    tracemalloc.start()
    try:
        ev = losses.evaluate(batch, cfg, work)
        got = grads.evaluation_gradient(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak, ev, work, kernels.thread_workspace()


# Peak traced bytes of one step with new workspaces, in units of 8 n^2.
# The weights go over the kernel in place, and the pullback reads them
# there: under rbf and neg-euclidean the one n x n array a step allocates
# is its kernel, and under cosine the pullback adds its unclipped Gram.
# Writing M to an array of its own, the cosine steps peaked at 3.1 and the
# neg-euclidean ones at 2.2.
STEP_PEAKS = {"rbf": 1.5, "neg-euclidean": 1.5, "cosine": 2.5}


@pytest.mark.parametrize("layout", ["runs", "round-robin"])
@pytest.mark.parametrize("name, kernel", [
    (name, kernel) for name in ("fl", "gc-cf", "supcon")
    for kernel in kernels.SIMILARITY_KINDS
    # supcon's log arguments are negative under neg-euclidean
    if (name, kernel) != ("supcon", "neg-euclidean")])
def test_a_step_holds_its_kernel_and_no_weight_array(name, kernel, layout):
    n = 400
    labels = np.arange(n, dtype=np.int64) % 4
    if layout == "runs":
        labels = np.sort(labels)
    batch = EmbeddingBatch(2.0 + Rng(9).normals((n, 6)), labels)
    cfg = losses.LossConfig(name, kernel=kernel, bandwidth=1.5)
    want = grads.loss_gradient(batch, cfg)
    ((got, peak, *_),) = _in_threads(lambda: _traced_step(batch, cfg))
    assert got.tobytes() == want.tobytes()
    assert peak < STEP_PEAKS[kernel] * 8 * n * n


@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
def test_a_triplet_step_builds_and_pulls_back_no_similarity(kernel, monkeypatch):
    # triplet reads only D^2: its step builds D in the caller's "d" and W
    # in the thread's "ws", and no S, so no "s", no "cos" Gram and no exp
    # pass. It used to build S, write an all-zero weight over it and pull
    # that back, and peaked at 4.1 x 8 n^2 under cosine and 3.8 under rbf
    # and neg-euclidean; it now peaks at 2.8 under each (2-core x86 VM).
    n = 400
    batch = EmbeddingBatch(2.0 + Rng(9).normals((n, 6)), np.arange(n) % 4)
    cfg = losses.LossConfig("triplet", kernel=kernel, bandwidth=1.5)
    want = grads.loss_gradient(batch, cfg)
    for name in ("similarity", "similarity_and_distance", "similarity_pullback",
                 "_rbf_entries", "unit_rows"):
        monkeypatch.setattr(kernels, name, None)
    ((got, peak, ev, work, scratch),) = _in_threads(lambda: _traced_step(batch, cfg))
    assert got.tobytes() == want.tobytes()
    assert ev.s is None and sorted(work._buffers) == ["d"]
    assert sorted(scratch._buffers) == ["ws"]
    assert peak < 3 * 8 * n * n
