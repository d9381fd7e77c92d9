import numpy as np
import pytest

from setloss import kernels
from setloss.batch import EmbeddingBatch
from setloss.errors import NonPositiveBandwidth, ValidationError, ZeroVector
from setloss.sampling import Rng


def _batch(vectors):
    v = np.asarray(vectors, dtype=float)
    labels = np.zeros(len(v), dtype=int)
    return EmbeddingBatch(v, labels)


def _random_batch(n, d, seed=0):
    return EmbeddingBatch(Rng(seed).normals((n, d)) + 0.5,
                          np.arange(n, dtype=int) % 2)


def test_cosine_pinned_values():
    b = _batch([[1, 0], [1, 0], [0, 1], [1, 1]])
    s = kernels.cosine_similarity(b)
    assert s[0, 1] == pytest.approx(1.0)
    assert s[0, 2] == pytest.approx(0.0)
    assert s[0, 3] == pytest.approx(1.0 / np.sqrt(2.0))


def test_cosine_diagonal_and_symmetry():
    s = kernels.cosine_similarity(_random_batch(7, 3))
    assert np.allclose(np.diag(s), 1.0)
    assert np.array_equal(s, s.T)
    assert np.max(np.abs(s)) <= 1.0 + 1e-12


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        kernels.cosine_similarity(_batch([[1, 0], [0, 0]]))


def test_rbf_pinned_values():
    bw = 0.7
    # ||z_i - z_j||^2 = 2 bw^2 lands exactly on exp(-1).
    z = np.array([[0.0, 0.0], [bw * np.sqrt(2.0), 0.0]])
    s = kernels.rbf_similarity(_batch(z), bw)
    assert s[0, 0] == pytest.approx(1.0)
    assert s[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_rbf_bandwidth_limit_is_monotone():
    b = _random_batch(5, 3)
    prev = kernels.rbf_similarity(b, 1.0)
    for bw in (2.0, 4.0, 8.0):
        cur = kernels.rbf_similarity(b, bw)
        off = ~np.eye(5, dtype=bool)
        assert np.all(cur[off] >= prev[off])
        prev = cur
    assert np.allclose(kernels.rbf_similarity(b, 1e6), 1.0)


def test_rbf_rejects_bad_bandwidth():
    with pytest.raises(NonPositiveBandwidth):
        kernels.rbf_similarity(_random_batch(3, 2), 0.0)


def test_distance_pinned():
    d = kernels.euclidean_distance(_batch([[0, 0], [3, 4], [3, 4]]))
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 2] == pytest.approx(0.0)
    assert np.array_equal(d, d.T)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        kernels.similarity(_random_batch(3, 2), "laplacian")


def test_kernel_gradient_diagonal_is_zero():
    b = _random_batch(4, 3)
    for kind in ("cosine", "rbf", "neg-euclidean"):
        gi, gj = kernels.kernel_gradient(b, kind, 2, 2)
        assert not np.any(gi) and not np.any(gj)


def test_kernel_gradient_orthogonal_cosine_closed_form():
    b = _batch([[1, 0], [0, 1]])
    gi, gj = kernels.kernel_gradient(b, "cosine", 0, 1)
    assert np.allclose(gi, [0.0, 1.0])
    assert np.allclose(gj, [1.0, 0.0])


@pytest.mark.parametrize("kind", ["cosine", "rbf", "neg-euclidean"])
def test_kernel_gradient_matches_fd(kind):
    b = _random_batch(5, 4, seed=3)
    h = 1e-6
    for i, j in [(0, 1), (2, 4), (3, 0)]:
        gi, gj = kernels.kernel_gradient(b, kind, i, j, bandwidth=0.9)
        for row, grad in ((i, gi), (j, gj)):
            for c in range(b.dim):
                z = b.vectors.copy()
                z[row, c] += h
                up = kernels.similarity(EmbeddingBatch(z, b.labels), kind, 0.9)
                z[row, c] -= 2 * h
                dn = kernels.similarity(EmbeddingBatch(z, b.labels), kind, 0.9)
                fd = (up[i, j] - dn[i, j]) / (2 * h)
                assert grad[c] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("kind", ["cosine", "rbf", "neg-euclidean"])
def test_similarity_pullback_matches_fd(kind):
    rng = Rng(11)
    z = rng.normals((6, 3)) + 0.4
    w = rng.normals((6, 6))
    bw = 0.8

    def value(zz):
        b = EmbeddingBatch(zz, np.zeros(6, dtype=int))
        return float(np.sum(w * kernels.similarity(b, kind, bw)))

    s = kernels.similarity(EmbeddingBatch(z, np.zeros(6, dtype=int)), kind, bw)
    g = kernels.similarity_pullback(z, w, kind, bw, s=s)
    h = 1e-6
    for i in range(6):
        for c in range(3):
            zp = z.copy(); zp[i, c] += h
            zm = z.copy(); zm[i, c] -= h
            fd = (value(zp) - value(zm)) / (2 * h)
            assert g[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sqdist_pullback_matches_fd():
    rng = Rng(4)
    z = rng.normals((5, 3))
    w = rng.normals((5, 5))

    def value(zz):
        return float(np.sum(w * kernels.squared_distances(zz)))

    g = kernels.sqdist_pullback(z, w)
    h = 1e-6
    for i in range(5):
        for c in range(3):
            zp = z.copy(); zp[i, c] += h
            zm = z.copy(); zm[i, c] -= h
            fd = (value(zp) - value(zm)) / (2 * h)
            assert g[i, c] == pytest.approx(fd, rel=1e-6, abs=1e-8)
