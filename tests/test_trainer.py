import io
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from setloss import (batch, grads, kernels, losses, objectives, submodcheck, synthlab,
                     trainer)
from setloss.batch import EmbeddingBatch
from setloss.errors import (DegenerateBatch, DivergedLoss, MissingClass, SetLossError,
                            ValidationError)
from setloss.sampling import Rng
from test_numeric_boundary import refused_count


def small_data(seed=0, spread=0.3):
    return synthlab.make_imbalanced_dataset("step", 3, 4, 40, 2.0, spread, seed,
                                            separation=3.0)


def quick_config(name="gc-cf", lr=0.01, steps=20, seed=0, bw=1.0):
    return trainer.TrainConfig(
        loss=losses.LossConfig(name, kernel="rbf", bandwidth=bw),
        lr=lr, steps=steps, seed=seed,
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        trainer.TrainConfig(lr=-0.1)
    with pytest.raises(ValidationError):
        trainer.TrainConfig(steps=0)
    with pytest.raises(ValidationError):
        trainer.TrainConfig(eval_split=1.0)


@pytest.mark.parametrize("setting", [
    {"batch_size": 0}, {"batch_size": -5}, {"out_dim": 0}, {"out_dim": 1},
    {"out_dim": -3},
])
def test_config_rejects_degenerate_sizes(setting):
    with pytest.raises(ValidationError):
        trainer.TrainConfig(**setting)


@pytest.mark.parametrize("setting", [
    {"steps": 2.5}, {"steps": 2.0}, {"steps": True}, {"steps": None},
    {"batch_size": 20.5}, {"batch_size": True}, {"out_dim": 2.5},
    {"out_dim": np.float64(3.0)}, {"out_dim": False}, {"seed": 1.5},
    {"seed": True}, {"seed": np.float64(1.0)},
])
def test_config_refuses_counts_that_are_not_integers(setting):
    # steps=2.5 or out_dim=2.5 used to pass here and raise numpy's TypeError
    # in training, aborting a whole comparison; batch_size=20.5 trained on a
    # rounded size and steps=True trained one step. seed=1.5, True and 1.0
    # trained on seed 1's split and initial W.
    (key, value), = setting.items()
    least = {"steps": 1, "batch_size": 1, "out_dim": 2}.get(key)
    pattern = (f"^seed must be an integer, got {re.escape(repr(value))}$" if least is None
               else refused_count(key, least, value))
    with pytest.raises(ValidationError, match=pattern):
        trainer.TrainConfig(**setting)


def test_config_takes_numpy_integer_counts():
    config = trainer.TrainConfig(steps=np.int64(2), batch_size=np.int32(30),
                                 out_dim=np.uint8(3))
    params, curve = trainer.train_stage1(small_data(), config)
    assert len(curve) == 3 and params.W.shape == (3, 4)


def test_stage2_refuses_an_eval_class_the_train_split_lacks():
    data = small_data()
    train = trainer._rows(data, np.flatnonzero(data.labels < 2))
    params = trainer.initial_params(data.dim, 2, seed=0)
    with pytest.raises(MissingClass, match="^class 2 has no samples in stage-2 train split$"):
        trainer.evaluate_stage2(params, train, data)


def test_out_dim_is_used_as_given():
    # None means the data dimension; any other value is taken as is.
    data = small_data()
    for out_dim, rows in ((None, data.dim), (2, 2), (7, 7)):
        config = trainer.TrainConfig(steps=1, out_dim=out_dim, batch_size=1)
        params, _ = trainer.train_stage1(data, config)
        assert params.W.shape == (rows, data.dim)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_config_rejects_non_finite_learning_rate(lr):
    with pytest.raises(ValidationError):
        trainer.TrainConfig(lr=lr)


def test_orthogonal_init_is_an_isometry():
    p = trainer.initial_params(8, 5, seed=3)
    assert np.allclose(p.W @ p.W.T, np.eye(5), atol=1e-12)
    wide = trainer.initial_params(4, 6, seed=3)
    assert wide.W.shape == (6, 4)


@pytest.mark.parametrize("in_dim, out_dim, refused", [
    (0, 2, ("in_dim", 1, 0)), (3, 1, ("out_dim", 2, 1)), (-1, 2, ("in_dim", 1, -1)),
])
def test_init_refuses_dims_out_of_range(in_dim, out_dim, refused):
    with pytest.raises(ValidationError, match=refused_count(*refused)):
        trainer.initial_params(in_dim, out_dim, seed=0)


def test_init_refuses_a_draw_of_more_than_sys_maxsize_entries():
    # out_dim * in_dim wrapped under np.prod, and numpy's reshape refused
    # the draw.
    name = f"the entry count of a draw of shape {(2, sys.maxsize)}"
    with pytest.raises(ValidationError, match=refused_count(name, 0, 2 * sys.maxsize)):
        trainer.initial_params(sys.maxsize, 2, seed=0)


def test_zero_learning_rate_freezes_the_loss():
    data = small_data()
    report = trainer.run_objective(data, quick_config(lr=0.0, steps=10))
    curve = report.loss_curve
    assert len(curve) == 11
    assert all(v == curve[0] for v in curve)


def test_training_descends_on_separated_clusters():
    data = small_data(spread=0.2)
    report = trainer.run_objective(data, quick_config(lr=0.005, steps=60))
    assert report.loss_curve[-1] < report.loss_curve[0]


def test_training_is_deterministic():
    data = small_data()
    a = trainer.run_objective(data, quick_config(steps=15))
    b = trainer.run_objective(data, quick_config(steps=15))
    assert a.loss_curve == b.loss_curve
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_identity_extractor_separable_data_high_accuracy():
    # Separation 10x spread: nearest centroid should be nearly perfect even
    # with the untrained (orthogonal, norm-preserving) extractor.
    data = synthlab.make_imbalanced_dataset("step", 3, 6, 60, 1.0, 0.3, 2,
                                            separation=3.0)
    tr, ev = trainer.split_batch(data, 0.25, seed=2)
    params = trainer.initial_params(6, 6, seed=2, normalize=False)
    report = trainer.evaluate_stage2(params, tr, ev, "untrained")
    assert report.accuracy >= 0.99


def test_confusion_rows_match_eval_counts():
    data = small_data(seed=4)
    report = trainer.run_objective(data, quick_config(steps=10))
    tr, ev = trainer.split_batch(data, 0.25, seed=0)
    assert report.confusion.sum() == ev.n
    assert np.array_equal(report.confusion.sum(axis=1), np.bincount(ev.labels))
    # off-diagonal mass is exactly the error rate
    off = report.confusion.sum() - np.trace(report.confusion)
    assert off / ev.n == pytest.approx(1.0 - report.accuracy, abs=1e-12)
    assert report.per_class_recall.shape == (3,)
    for k in range(3):
        row = report.confusion[k]
        assert report.per_class_recall[k] == pytest.approx(row[k] / row.sum())


def test_split_is_stratified_and_disjoint():
    data = small_data(seed=7)
    tr, ev = trainer.split_batch(data, 0.25, seed=7)
    assert tr.n + ev.n == data.n
    assert set(np.unique(tr.labels)) == set(np.unique(ev.labels)) == {0, 1, 2}
    counts = np.bincount(data.labels)
    ev_counts = np.bincount(ev.labels)
    for k in range(3):
        assert ev_counts[k] == min(counts[k] - 1, max(1, round(counts[k] * 0.25)))


def test_split_rejects_singleton_class():
    v = np.vstack([np.eye(3), [[0.5, 0.5, 0.0]]])
    data = EmbeddingBatch(v, np.array([0, 0, 1, 2]))
    with pytest.raises(ValidationError):
        trainer.split_batch(data, 0.25, seed=0)


@pytest.mark.parametrize("fraction", [0, 1, 1.5, -0.25])
def test_split_refuses_a_fraction_outside_the_unit_interval(fraction):
    with pytest.raises(ValidationError,
                       match=r"^eval_fraction must be finite and in \(0, 1\), got "):
        trainer.split_batch(small_data(), fraction, seed=0)


def test_a_one_sample_class_is_refused_before_training(monkeypatch):
    # Classes 1 and 2 have one sample each; the first is named.
    data = EmbeddingBatch(np.vstack([np.eye(3), [[0.5, 0.5, 0.0]]]),
                          np.array([0, 0, 1, 2]))
    monkeypatch.setattr(trainer, "train_stage1",
                        lambda *args: pytest.fail("training started"))
    with pytest.raises(ValidationError,
                       match="^class 1 has 1 sample; a stratified split needs >= 2$"):
        trainer.run_objective(data, quick_config())


def test_stage1_rejects_a_one_class_batch():
    data = EmbeddingBatch(np.eye(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(DegenerateBatch,
                       match="^gc-cf: stage-1 training needs >= 2 classes, got 1$"):
        trainer.train_stage1(data, quick_config())


def test_centroid_assignment_is_nearest():
    # Hand-placed eval points: each sits strictly closest to its own centroid.
    tr = EmbeddingBatch(
        np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.2, 5.0]]),
        np.array([0, 0, 1, 1]),
    )
    ev = EmbeddingBatch(np.array([[0.1, 0.1], [5.1, 4.9]]), np.array([0, 1]))
    params = trainer.ExtractorParams(np.eye(2), normalize=False)
    report = trainer.evaluate_stage2(params, tr, ev, "hand")
    assert report.accuracy == 1.0
    assert np.array_equal(report.confusion, np.eye(2, dtype=np.int64))
    assert report.inter_class_separation == pytest.approx(
        math.hypot(5.0, 5.0), abs=1e-12
    )


def test_compare_objectives_shares_split_and_reports_rare_recall():
    data = synthlab.make_imbalanced_dataset("longtail", 3, 5, 60, 0.1, 0.4, 1,
                                            separation=2.0)
    cfg = quick_config(steps=10, lr=0.005)
    reports = trainer.compare_objectives(["fl", "supcon"], data, cfg)
    assert [r.objective for r in reports] == ["fl", "supcon"]
    rare = int(np.argmin(np.bincount(data.labels)))
    for r in reports:
        assert r.per_class_recall.shape == (3,)
        assert 0.0 <= r.per_class_recall[rare] <= 1.0
        assert math.isfinite(r.accuracy)
    # identical split and seed: confusion tables account for the same points
    assert reports[0].confusion.sum() == reports[1].confusion.sum()


def test_compare_objectives_records_failures_and_continues():
    data = small_data()
    cfg = quick_config(steps=5)
    # lam 0.5 is invalid for gc objectives but fine for fl
    cfg.loss = losses.LossConfig("fl", lam=0.5, kernel="rbf")
    reports = trainer.compare_objectives(["gc-cf", "fl"], data, cfg)
    failed, ok = reports
    assert failed.objective == "gc-cf"
    assert math.isnan(failed.accuracy)
    assert failed.note.startswith("failed:")
    assert ok.objective == "fl"
    assert math.isfinite(ok.accuracy)


def test_comparison_csv_header_and_rows():
    data = small_data(seed=3)
    reports = trainer.compare_objectives(["fl"], data, quick_config(steps=5))
    buf = io.StringIO()
    trainer.write_comparison_csv(reports, rare_label=2, fh=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ("objective,accuracy,rare_class_recall,"
                        "intra_var,inter_sep,final_loss")
    fields = lines[1].split(",")
    assert fields[0] == "fl"
    assert float(fields[1]) == reports[0].accuracy
    assert float(fields[2]) == reports[0].per_class_recall[2]
    assert float(fields[5]) == reports[0].loss_curve[-1]


def test_report_json_round_trip():
    data = small_data(seed=6)
    report = trainer.run_objective(data, quick_config(steps=5))
    payload = json.loads(report.to_json())
    assert payload["objective"] == "gc-cf"
    assert payload["accuracy"] == report.accuracy
    assert len(payload["loss_curve"]) == 6
    assert payload["confusion"] == report.confusion.tolist()


def test_minibatch_covers_every_class():
    data = synthlab.make_imbalanced_dataset("longtail", 4, 6, 40, 0.1, 0.4, 0,
                                            separation=2.0)
    cfg = quick_config(steps=8, lr=0.005)
    cfg.batch_size = 16
    report = trainer.run_objective(data, cfg)
    assert len(report.loss_curve) == 9
    assert math.isfinite(report.accuracy)


def test_split_and_minibatch_keep_the_picked_rows_ids():
    # Column 0 holds each row's number, so every part names its rows.
    data = small_data()
    vectors = np.column_stack([np.arange(data.n), data.vectors])
    data = EmbeddingBatch(vectors, data.labels)
    parts = trainer.split_batch(data, 0.25, seed=0)
    parts += (trainer._minibatch(data, 12, Rng(5)),)
    for part in parts:
        rows = part.vectors[:, 0].astype(int)
        assert part.vectors.tobytes() == data.vectors[rows].tobytes()
        assert np.array_equal(part.labels, data.labels[rows])
    split = np.concatenate([parts[0].vectors[:, 0], parts[1].vectors[:, 0]])
    assert np.array_equal(np.sort(split), np.arange(data.n))


def test_each_step_builds_the_kernel_once(monkeypatch):
    # One loss evaluation per curve entry, and the gradient reuses it.
    calls = []
    real = kernels.squared_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "squared_distances", counted)
    tr, _ = trainer.split_batch(small_data(), 0.25, seed=0)
    steps = 4
    _, curve = trainer.train_stage1(tr, quick_config(steps=steps))
    assert len(curve) == steps + 1
    assert len(calls) == steps + 1


def _partitions_built(monkeypatch):
    """The list every ClassPartition built from now on is appended to."""
    built = []
    real_init = batch.ClassPartition.__post_init__

    def counted_init(self):
        built.append(self)
        real_init(self)

    monkeypatch.setattr(batch.ClassPartition, "__post_init__", counted_init)
    return built


def test_each_step_reads_the_runs_partition(monkeypatch):
    # A full-batch run's steps build no ClassPartition: each step's embedded
    # batch takes the data's own, and losses.evaluate and the gradient read
    # it and build none. Each step's batch used to build one.
    data = small_data()
    built = _partitions_built(monkeypatch)
    per_call = {"evaluate": [], "gradient": []}
    read = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if key == "evaluate":
                read.append(args[0].classes)
            before = len(built)
            out = fn(*args, **kwargs)
            per_call[key].append(len(built) - before)
            return out
        return wrapper

    monkeypatch.setattr(losses, "evaluate", counting("evaluate", losses.evaluate))
    monkeypatch.setattr(grads, "evaluation_gradient",
                        counting("gradient", grads.evaluation_gradient))
    config = trainer.TrainConfig(
        loss=losses.LossConfig("supcon", kernel="rbf"), lr=0.01, steps=4,
        batch_size=None, seed=0)
    trainer.train_stage1(data, config)
    assert per_call["evaluate"] == [0] * (config.steps + 1)
    assert per_call["gradient"] == [0] * config.steps
    assert built == []
    assert len(read) == config.steps + 1
    assert all(part is data.classes for part in read)


def test_a_minibatch_step_partitions_its_draw_once(monkeypatch):
    # Each minibatch draw builds its partition, and the step's embedded
    # batch reads that one.
    data = small_data()
    built = _partitions_built(monkeypatch)
    read = []
    real_evaluate = losses.evaluate

    def evaluate(embedded, *args, **kwargs):
        read.append(embedded.classes)
        return real_evaluate(embedded, *args, **kwargs)

    monkeypatch.setattr(losses, "evaluate", evaluate)
    config = trainer.TrainConfig(
        loss=losses.LossConfig("supcon", kernel="rbf"), lr=0.01, steps=4,
        batch_size=30, seed=0)
    trainer.train_stage1(data, config)
    assert len(built) == config.steps + 1
    assert all(part is own for part, own in zip(built, read, strict=True))


def test_a_full_batch_run_checks_and_counts_its_labels_once(monkeypatch):
    # The steps run no label check and no bincount: the data checked and
    # counted its labels when it was built. Each step's embedded batch used
    # to check them again and count them once, and before the batch held
    # its partition, evaluate checked them a second time and a step counted
    # them three times.
    data = small_data()
    checks, counts = [], []
    real_labels, real_bincount = batch._labels, np.bincount

    def labels(*args):
        checks.append(1)
        return real_labels(*args)

    def bincount(*args, **kwargs):
        counts.append(1)
        return real_bincount(*args, **kwargs)

    monkeypatch.setattr(batch, "_labels", labels)
    monkeypatch.setattr(np, "bincount", bincount)
    steps = 3
    _, curve = trainer.train_stage1(data, quick_config(steps=steps))
    assert len(curve) == steps + 1
    assert checks == counts == []


def test_non_finite_loss_stops_before_any_gradient(monkeypatch):
    bad_step = 3
    evaluations = []
    real_total = losses.backend.total_value

    def total_value(*args):
        total, per, picks = real_total(*args)
        evaluations.append(1)
        return ((float("nan") if len(evaluations) == bad_step + 1 else total),
                per, picks)

    gradients = []
    real_gradient = grads.evaluation_gradient

    def gradient(*args, **kwargs):
        gradients.append(1)
        return real_gradient(*args, **kwargs)

    monkeypatch.setattr(losses.backend, "total_value", total_value)
    monkeypatch.setattr(grads, "evaluation_gradient", gradient)
    tr, _ = trainer.split_batch(small_data(), 0.25, seed=0)
    with pytest.raises(DivergedLoss) as info:
        trainer.train_stage1(tr, quick_config(steps=10))
    assert info.value.step == bad_step
    assert math.isnan(info.value.value)
    assert len(evaluations) == bad_step + 1
    assert len(gradients) == bad_step


def _train_or_refusal(data, config):
    try:
        return trainer.train_stage1(data, config)
    except SetLossError as exc:
        return type(exc)


@pytest.mark.parametrize("batch_size", [None, 24])
@pytest.mark.parametrize("kernel", kernels.SIMILARITY_KINDS)
@pytest.mark.parametrize("name", objectives.OBJECTIVES)
def test_workspace_training_matches_a_fresh_step_loop(name, kernel, batch_size,
                                                      monkeypatch):
    # The fresh run takes every buffer, kernel and scratch alike, as a new
    # array filled with NaN, so that a read before a write shows up too.
    tr, _ = trainer.split_batch(small_data(), 0.25, seed=0)
    config = trainer.TrainConfig(
        loss=losses.LossConfig(name, kernel=kernel, bandwidth=0.8),
        lr=0.005, steps=4, batch_size=batch_size, seed=1)
    reused = _train_or_refusal(tr, config)
    monkeypatch.setattr(kernels.Workspace, "buffer",
                        lambda self, name, shape: np.full(shape, np.nan))
    fresh = _train_or_refusal(tr, config)
    if isinstance(fresh, type):
        assert reused is fresh
        return
    (params, curve), (want_params, want_curve) = reused, fresh
    assert curve == want_curve
    assert params.W.tobytes() == want_params.W.tobytes()


@pytest.mark.parametrize("name, kernel", [
    (name, kernel) for name in ("fl", "gc-cf", "supcon")
    for kernel in kernels.SIMILARITY_KINDS
    # supcon's log arguments are negative under neg-euclidean
    if (name, kernel) != ("supcon", "neg-euclidean")])
def test_training_steps_allocate_no_kernel_sized_array(name, kernel, monkeypatch):
    # A balanced batch of 200 rows. After the first step, the thread's
    # workspace holds every n x n array, so no later step's traced peak
    # rises by one of them: not in the first run, and not at any step of a
    # second run with the same n, step 0 included.
    n = 200
    data = EmbeddingBatch(2.0 + Rng(9).normals((n, 6)),
                          np.arange(n, dtype=np.int64) % 4)
    marks = []
    real = losses.evaluate

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    monkeypatch.setattr(losses, "evaluate", marked)
    config = trainer.TrainConfig(
        loss=losses.LossConfig(name, kernel=kernel, bandwidth=1.5),
        lr=0.001, steps=4, seed=0)
    rises = []
    tracemalloc.start()
    try:
        for _ in range(2):
            marks.clear()
            trainer.train_stage1(data, config)
            marks.append(tracemalloc.get_traced_memory())
            # Step k runs from evaluation k to evaluation k + 1, and the
            # last evaluation to the end of the run.
            rises.append([marks[k + 1][1] - marks[k][0]
                          for k in range(len(marks) - 1)])
    finally:
        tracemalloc.stop()
    first, second = rises
    assert len(first) == len(second) == config.steps + 1
    assert max(first[1:]) < n * n * 8
    assert max(second) < n * n * 8


def _in_threads(*runs):
    """Run each callable in its own new thread, all started together and
    switching often; return their results in order, or raise the first
    error."""
    start = threading.Barrier(len(runs), timeout=60)
    out = [None] * len(runs)

    def run(i):
        start.wait()
        try:
            out[i] = runs[i]()
        except Exception as exc:  # re-raised in the calling thread
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _trained(data, config):
    params, curve = trainer.train_stage1(data, config)
    return curve, params.W.tobytes()


def test_threads_training_at_once_each_get_their_serial_result():
    # Three objectives, two of them on the same rows, so one workspace
    # shared between threads would hand two runs the same buffers.
    data = small_data(seed=1)
    jobs = [(data, quick_config("fl", steps=6, lr=0.005)),
            (trainer.split_batch(small_data(seed=2), 0.25, seed=0)[0],
             quick_config("supcon", steps=6, lr=0.005, seed=3, bw=1.5)),
            (data, quick_config("submod-snn", steps=6, lr=0.005, seed=4))]
    assert jobs[0][0].n != jobs[1][0].n
    serial = [_trained(*job) for job in jobs]
    # Each thread trains three times over, so their steps interleave.
    both = _in_threads(*(lambda job=job: [_trained(*job) for _ in range(3)]
                         for job in jobs))
    assert both == [[want] * 3 for want in serial]


def test_a_diverged_run_leaves_the_next_run_unchanged(monkeypatch):
    data = small_data(seed=4)
    config = quick_config("snn", steps=5)
    # The reference trains in a new thread, on a workspace of its own.
    (want,) = _in_threads(lambda: _trained(data, config))
    # A run of another objective on the same rows stops at its third
    # evaluation, with its kernel, weight and pullback buffers written.
    evaluations = []
    real_total = losses.backend.total_value

    def total_value(*args):
        total, per, picks = real_total(*args)
        evaluations.append(1)
        return (float("nan") if len(evaluations) == 3 else total), per, picks

    monkeypatch.setattr(losses.backend, "total_value", total_value)
    with pytest.raises(DivergedLoss):
        trainer.train_stage1(data, quick_config("submod-snn", steps=5))
    monkeypatch.undo()
    assert _trained(data, config) == want


def test_a_scan_and_a_training_run_share_one_thread_workspace(monkeypatch):
    # One new thread scans, then, under each kernel, trains at 200 rows and
    # then at 150: every buffer comes from its one workspace, and each
    # smaller run, step 0 included, allocates no kernel-sized array.
    asked = []
    real = kernels.Workspace.buffer

    def recorded(self, name, shape):
        asked.append((self, name))
        return real(self, name, shape)

    monkeypatch.setattr(kernels.Workspace, "buffer", recorded)

    def job():
        submodcheck.consistency_scan("gc-cf", n=6, draws=60)
        peaks = []
        for kernel in kernels.SIMILARITY_KINDS:
            config = trainer.TrainConfig(
                loss=losses.LossConfig("gc-cf", kernel=kernel, bandwidth=1.5),
                lr=0.001, steps=3, seed=0)
            for n in (200, 150):
                data = EmbeddingBatch(2.0 + Rng(9).normals((n, 6)),
                                      np.arange(n, dtype=np.int64) % 4)
                tracemalloc.start()
                try:
                    trainer.train_stage1(data, config)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
        return kernels.thread_workspace(), peaks

    ((work, peaks),) = _in_threads(job)
    assert {id(w) for w, _ in asked} == {id(work)}
    names = {name for _, name in asked}
    # The scan lays its gains out in "gain" and takes their submask minima
    # in "low" and "near"; none of its tables has a margin to pair-scan. A
    # gc-cf step writes its weights over its kernel: in "d" under rbf and
    # neg-euclidean, in "s" under cosine, whose pullback adds "cos".
    assert {"gain", "low", "near", "d", "s", "cos"} <= names
    assert not {"gram", "wdist", "mask", "ws", "finite", "margin", "other", "bad"} & names
    assert max(peaks) < 150 * 150 * 8
