import math
import re

import numpy as np
import pytest

from setloss import grads, losses, synthlab
from setloss.errors import BadK, EmptyClass, ValidationError
from setloss.sampling import Rng
from test_numeric_boundary import refused_count


def test_longtail_counts_worked_example():
    b = synthlab.make_imbalanced_dataset("longtail", 4, 10, 600, 0.1, 1.0, 0)
    assert tuple(np.bincount(b.labels)) == (600, 278, 129, 60)
    assert b.n == 1067


def test_step_counts_worked_example():
    b = synthlab.make_imbalanced_dataset("step", 4, 10, 500, 10.0, 1.0, 0)
    assert tuple(np.bincount(b.labels)) == (500, 500, 50, 50)


def test_decay_one_is_balanced():
    b = synthlab.make_imbalanced_dataset("longtail", 5, 8, 40, 1.0, 1.0, 0)
    assert tuple(np.bincount(b.labels)) == (40,) * 5


def test_k_scale_schedule():
    assert synthlab.k_scale(0) == 1.0
    assert synthlab.k_scale(4) == pytest.approx(0.2)
    assert synthlab.k_scale(5) == pytest.approx(-1.0 / 3.0)
    assert synthlab.k_scale(7) == pytest.approx(-1.0)
    gaps = [abs(synthlab.k_scale(k)) for k in range(8)]
    # Centroid separation shrinks strictly to the K=4 pinch, then regrows.
    assert all(gaps[k] > gaps[k + 1] for k in range(4))
    assert all(gaps[k] < gaps[k + 1] for k in range(4, 7))


@pytest.mark.parametrize("bad", [-1, 8, 3.5, "2", True, False])
def test_bad_k_rejected(bad):
    with pytest.raises(BadK):
        synthlab.k_scale(bad)


def test_k_dataset_structure_and_determinism():
    a = synthlab.make_k_dataset(2, points_per_cluster=30, seed=5)
    assert a.n == 120
    assert a.dim == 2
    assert tuple(np.bincount(a.labels)) == (30,) * 4
    b = synthlab.make_k_dataset(2, points_per_cluster=30, seed=5)
    assert np.array_equal(a.vectors, b.vectors)
    c = synthlab.make_k_dataset(2, points_per_cluster=30, seed=6)
    assert not np.array_equal(a.vectors, c.vectors)


def test_noise_is_shared_across_k():
    # Sweeping K moves centroids only; the noise draw is pinned to the seed.
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    reps = np.repeat(np.arange(4), 25)
    a = synthlab.make_k_dataset(0, points_per_cluster=25, seed=3)
    b = synthlab.make_k_dataset(6, points_per_cluster=25, seed=3)
    noise_a = a.vectors - corners[reps] * synthlab.k_scale(0)
    noise_b = b.vectors - corners[reps] * synthlab.k_scale(6)
    assert np.allclose(noise_a, noise_b, atol=1e-12)


def test_imbalanced_centroids_are_equidistant():
    b = synthlab.make_imbalanced_dataset("longtail", 4, 6, 50, 0.5, 1e-6, 1,
                                         separation=3.0)
    means = np.stack([b.vectors[b.labels == k].mean(axis=0) for k in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(3.0, abs=1e-4)


def test_imbalanced_validation():
    with pytest.raises(ValidationError,
                       match="^axis-aligned centroids need C <= d, got C=5, d=4$"):
        synthlab.make_imbalanced_dataset("longtail", 5, 4, 50, 0.5, 1.0, 0)
    with pytest.raises(ValidationError, match=refused_count("base_count", 4, 2)):
        synthlab.make_imbalanced_dataset("longtail", 4, 10, 2, 0.5, 1.0, 0)
    with pytest.raises(ValidationError):
        synthlab.make_imbalanced_dataset("pareto", 4, 10, 50, 0.5, 1.0, 0)
    with pytest.raises(ValidationError):
        synthlab.make_imbalanced_dataset("longtail", 4, 10, 50, 0.0, 1.0, 0)
    with pytest.raises(ValidationError):
        synthlab.make_imbalanced_dataset("step", 4, 10, 50, 0.5, 1.0, 0)
    with pytest.raises(EmptyClass):
        synthlab.make_imbalanced_dataset("longtail", 4, 10, 4, 0.01, 1.0, 0)
    # c = 0 was a numpy broadcast error and c = -1 "negative dimensions".
    for c in (0, -1):
        for kind, decay_or_ratio in (("longtail", 0.5), ("step", 2.0)):
            with pytest.raises(ValidationError, match=refused_count("c", 1, c)):
                synthlab.make_imbalanced_dataset(kind, c, 10, 50, decay_or_ratio,
                                                 1.0, 0)


def test_sweep_grid_order_and_csv_round_trip(tmp_path):
    res = synthlab.k_sweep(["gc-cf", "fl"], ["cosine"], [2, 0, 1],
                           points_per_cluster=20)
    assert [row[:3] for row in res.rows] == [
        (0, "gc-cf", "cosine"), (0, "fl", "cosine"),
        (1, "gc-cf", "cosine"), (1, "fl", "cosine"),
        (2, "gc-cf", "cosine"), (2, "fl", "cosine"),
    ]
    path = tmp_path / "sweep.csv"
    with open(path, "w") as fh:
        res.write_csv(fh)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "k,objective,kernel,loss" and lines[-1] == ""
    assert lines[1:-1] == [f"{k},{name},{kind},{value!r}"
                           for k, name, kind, value in res.rows]
    # repr gives each loss back bit for bit.
    assert [float(line.split(",")[3]) for line in lines[1:-1]] == [
        row[3] for row in res.rows]
    assert res.value(1, "fl", "cosine") == res.rows[3][3]
    with pytest.raises(KeyError):
        res.value(5, "fl", "cosine")


@pytest.mark.parametrize("names, kinds, config", [
    (["fl", "bogus"], ["cosine"], {"objective": "bogus"}),
    (["fl"], ["rbf", "bogus"], {"kernel": "bogus"}),
])
def test_sweep_rejects_unknown_names_as_loss_config_does(names, kinds, config):
    with pytest.raises(ValidationError) as want:
        losses.LossConfig(**config)
    with pytest.raises(ValidationError) as got:
        synthlab.k_sweep(names, kinds, [0], points_per_cluster=5)
    assert str(got.value) == str(want.value)


def test_single_cell_sweep_has_one_row():
    res = synthlab.k_sweep(["fl"], ["cosine"], [3], points_per_cluster=10)
    assert len(res.rows) == 1
    assert res.rows[0][:3] == (3, "fl", "cosine")


def test_loss_peaks_at_maximum_overlap():
    res = synthlab.k_sweep(["fl"], ["cosine"], range(8), points_per_cluster=50)
    vals = [res.value(k, "fl", "cosine") for k in range(8)]
    assert all(vals[k] < vals[k + 1] for k in range(4))
    assert all(vals[k] > vals[k + 1] for k in range(4, 7))


def test_k_sweep_rejects_a_non_integer_k():
    with pytest.raises(BadK):
        synthlab.make_k_dataset(2.5)
    with pytest.raises(BadK):
        synthlab.k_sweep(["fl"], ["cosine"], [2.5], points_per_cluster=5)


def test_k_sweep_checks_every_k_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(synthlab, "make_k_dataset", lambda *a, **kw: built.append(a))
    with pytest.raises(BadK):
        synthlab.k_sweep(["fl"], ["cosine"], [0, 9])
    assert built == []


@pytest.mark.parametrize("spread", [0.0, float("nan")])
def test_k_dataset_rejects_a_non_positive_spread(spread):
    with pytest.raises(ValidationError, match="spread must be finite and > 0, got"):
        synthlab.make_k_dataset(2, points_per_cluster=5, spread=spread)


@pytest.mark.parametrize("spread", [True, "0.3", None, math.inf, -0.3])
def test_sample_clusters_refuses_a_spread_that_is_not_a_finite_positive_number(spread):
    # True was taken as 1, "0.3" raised a bare TypeError, and inf passed
    # and was blamed on the vectors.
    with pytest.raises(ValidationError, match=re.escape(
            f"spread must be finite and > 0, got {spread!r}")):
        synthlab.sample_clusters(np.zeros((2, 2)), spread, (2, 3), 0)


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_k_dataset_refuses_a_count_that_is_not_an_integer(count):
    # 2.5 reached np.repeat and raised its TypeError; True was taken as 1.
    with pytest.raises(ValidationError, match=refused_count("points_per_cluster", 1, count)):
        synthlab.make_k_dataset(1, points_per_cluster=count)


@pytest.mark.parametrize("name,least,bad,args", [
    ("c", 1, 2.0, ("longtail", 2.0, 10, 600, 0.1, 1.0, 0)),
    ("d", 0, 10.0, ("longtail", 2, 10.0, 600, 0.1, 1.0, 0)),
    ("base_count", 4, 600.5, ("longtail", 4, 10, 600.5, 0.1, 1.0, 0)),
    ("base_count", 4, True, ("step", 4, 10, True, 1.0, 1.0, 0)),
])
def test_imbalanced_dataset_refuses_counts_that_are_not_integers(name, least, bad, args):
    # c = 2.0 and d = 10.0 raised numpy's TypeError; base_count = 600.5 was
    # taken, with class sizes (600, 279, 129, 60) against 600's (600, 278,
    # 129, 60).
    with pytest.raises(ValidationError, match=refused_count(name, least, bad)):
        synthlab.make_imbalanced_dataset(*args)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0), "1", None])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # 1.5, True and 1.0 were truncated to seed 1: make_k_dataset returned
    # seed 1's vectors, bit for bit.
    message = f"^{re.escape(f'seed must be an integer, got {seed!r}')}$"
    for draw in (lambda: Rng(seed), lambda: grads.check_batch(6, 2, seed),
                 lambda: synthlab.make_k_dataset(1, points_per_cluster=3, seed=seed),
                 lambda: synthlab.make_imbalanced_dataset("step", 2, 2, 4, 1.0, 0.3, seed)):
        with pytest.raises(ValidationError, match=message):
            draw()


def test_a_numpy_integer_seed_draws_the_int_seeds_stream():
    for seed in (np.int64(7), np.uint64(7), np.int8(7)):
        assert np.array_equal(Rng(seed).normals(5), Rng(7).normals(5))


@pytest.mark.parametrize("counts, message", [
    ((2.5, 3), refused_count("counts[0]", 0, 2.5)),
    ((2, np.float64(3.0)), refused_count("counts[1]", 0, np.float64(3.0))),
    ((True, 3), refused_count("counts[0]", 0, True)),
    ((-1, 3), refused_count("counts[0]", 0, -1)),
    ((2,), "^need one count per centroid \\(2\\), got \\(2,\\)$"),
    ((2, 3, 4), "^need one count per centroid \\(2\\), got \\(2, 3, 4\\)$"),
], ids=["float", "numpy-float", "bool", "negative", "too-few", "too-many"])
def test_sample_clusters_refuses_bad_counts(counts, message):
    # 2.5 raised numpy's TypeError, -1 and (2,) numpy's ValueError, and True
    # was taken as a count of 1.
    with pytest.raises(ValidationError, match=message):
        synthlab.sample_clusters(np.zeros((2, 2)), 0.3, counts, 0)


def test_sample_clusters_takes_numpy_integer_counts():
    got = synthlab.sample_clusters(np.eye(2), 0.3, np.array([2, 3]), 0)
    want = synthlab.sample_clusters(np.eye(2), 0.3, (2, 3), 0)
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.labels.tolist() == [0, 0, 1, 1, 1]


def test_k_dataset_rejects_empty_clusters():
    with pytest.raises(ValidationError, match=refused_count("points_per_cluster", 1, 0)):
        synthlab.make_k_dataset(2, points_per_cluster=0)
