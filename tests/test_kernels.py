from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss import _blas, kernels
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
    # The same message as LossConfig's, which lists the kinds.
    with pytest.raises(ValidationError, match="^unknown kernel 'laplacian'; choose from "):
        kernels.similarity(_random_batch(3, 2), "laplacian")
    with pytest.raises(ValidationError, match="^unknown kernel 'laplacian'; choose from "):
        kernels.similarity_pullback(np.eye(3), np.zeros((3, 3)), "laplacian")


KERNEL_CALLS = {
    "squared_distances": kernels.squared_distances,
    "cosine_similarity": kernels.cosine_similarity,
    "rbf_similarity": kernels.rbf_similarity,
    "euclidean_distance": kernels.euclidean_distance,
    **{f"similarity-{kind}": lambda z, kind=kind: kernels.similarity(z, kind)
       for kind in kernels.SIMILARITY_KINDS},
    **{f"similarity_and_distance-{kind}":
       lambda z, kind=kind: kernels.similarity_and_distance(z, kind)
       for kind in kernels.SIMILARITY_KINDS},
}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_kernels_refuse_raw_vectors_that_are_not_finite(name, bad):
    # A raw array with an inf used to give a NaN matrix and a RuntimeWarning;
    # it now gets the error a batch of the same vectors gets.
    z = np.array([[1.0, bad], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="^vectors contain non-finite values$"):
        KERNEL_CALLS[name](z)
    with pytest.raises(ValidationError, match="^vectors contain non-finite values$"):
        EmbeddingBatch(z, [0, 1, 0])
    stack = Rng(1).normals((3, 4, 2))
    stack[2, 1, 0] = bad
    with pytest.raises(ValidationError, match="^vectors contain non-finite values$"):
        KERNEL_CALLS[name](stack)
    stack[2, 1, 0] = 0.5
    KERNEL_CALLS[name](stack)


PULLBACKS = {
    **{f"similarity_pullback-{kind}":
       lambda z, m, kind=kind: kernels.similarity_pullback(z, m, kind)
       for kind in kernels.SIMILARITY_KINDS},
    "cosine_pullback": kernels.cosine_pullback,
    "rbf_pullback": lambda z, m: kernels.rbf_pullback(z, m, 1.0),
    "distance_pullback": kernels.distance_pullback,
}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", sorted(PULLBACKS))
def test_pullbacks_refuse_raw_vectors_that_are_not_finite(name, bad):
    # The cosine pullback of such rows raised numpy's RuntimeWarning, and
    # squared distances of them held NaN. Only z is checked: the weights
    # are left as they were given.
    z = np.array([[1.0, bad], [1.0, 0.0], [0.0, 1.0]])
    m = 1.0 - np.eye(3)
    with pytest.raises(ValidationError, match="^vectors contain non-finite values$"):
        PULLBACKS[name](z, m)
    assert np.array_equal(m, 1.0 - np.eye(3))
    z[0, 1] = 0.5
    assert np.all(np.isfinite(PULLBACKS[name](z, m.copy())))


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
    g = kernels.similarity_pullback(z, _pulled_weights(w, kind, s), kind, bw)
    h = 1e-6
    for i in range(6):
        for c in range(3):
            zp = z.copy(); zp[i, c] += h
            zm = z.copy(); zm[i, c] -= h
            fd = (value(zp) - value(zm)) / (2 * h)
            assert g[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_twice_the_distance_pullback_matches_fd_of_squared_distances():
    rng = Rng(4)
    z = rng.normals((5, 3))
    w = rng.normals((5, 5))

    def value(zz):
        return float(np.sum(w * kernels.squared_distances(zz)))

    # A D^2 weight M pulls back as twice the distance pullback of M itself.
    g = 2.0 * kernels.distance_pullback(z, _old_doubled(w))
    h = 1e-6
    for i in range(5):
        for c in range(3):
            zp = z.copy(); zp[i, c] += h
            zm = z.copy(); zm[i, c] -= h
            fd = (value(zp) - value(zm)) / (2 * h)
            assert g[i, c] == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---- The allocating formulas the in-place kernels replaced ---------------
# Each builds fresh arrays in the original operation order; the library's
# kernels and pullbacks must reproduce them bit for bit, with or without a
# workspace. Their Gram products run on one thread, as the kernels' products
# for a single batch do: from about n = 210 a threaded z @ z.T has other last
# bits.

def _old_symmetrized(m):
    return (m + m.T) / 2.0


def _old_squared_distances(z, gram=None):
    if gram is None:
        with _blas.one_thread():
            gram = z @ z.T
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    d2 = _old_symmetrized(d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _old_cosine(z, gram=None):
    zh = kernels.unit_rows(z)
    if gram is None:
        with _blas.one_thread():
            gram = zh @ zh.T
    s = _old_symmetrized(gram)
    np.clip(s, -1.0, 1.0, out=s)
    np.fill_diagonal(s, 1.0)
    return s


def _old_rbf(z, bandwidth):
    s = np.exp(-_old_squared_distances(z) / (2.0 * bandwidth * bandwidth))
    np.fill_diagonal(s, 1.0)
    return s


def _old_similarity(z, kind, bandwidth):
    if kind == "cosine":
        return _old_cosine(z)
    if kind == "rbf":
        return _old_rbf(z, bandwidth)
    return -np.sqrt(_old_squared_distances(z))


def _old_doubled(weights):
    m = weights + weights.T
    np.fill_diagonal(m, 0.0)
    return m


def _over(m, k):
    """M / K where |K_ij| > NORM_FLOOR and 0 elsewhere: the form in which
    the distance and neg-euclidean pullbacks take M."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(k) > kernels.NORM_FLOOR, m / k, 0.0)


def _pulled_weights(weights, kind, s):
    """What `similarity_pullback` takes: the doubled weights M, under rbf
    M o S and under neg-euclidean M / S."""
    m = _old_doubled(weights)
    if kind == "rbf":
        m *= s
    elif kind == "neg-euclidean":
        m = _over(m, s)
    return m


def _old_distance_pullback(z, weights, d):
    m = _old_doubled(weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(d > kernels.NORM_FLOOR, m / d, 0.0)
    return np.sum(m, axis=1)[:, None] * z - m @ z


def _old_similarity_pullback(z, weights, kind, bandwidth, s):
    if kind == "cosine":
        zh = kernels.unit_rows(z)
        gram = zh @ zh.T
        m = _old_doubled(weights)
        proj = np.sum(m * gram, axis=1)
        grad = m @ zh - proj[:, None] * zh
        return grad / np.linalg.norm(z, axis=1)[:, None]
    if kind == "rbf":
        m = _old_doubled(weights) * s / (bandwidth * bandwidth)
        return m @ z - np.sum(m, axis=1)[:, None] * z
    return _old_distance_pullback(z, -weights, -s)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SHAPES = [(2, 1), (7, 3), (40, 10), (129, 4), (7, 5)]


@pytest.mark.parametrize("kind", kernels.SIMILARITY_KINDS)
def test_kernels_match_the_allocating_formulas_bit_for_bit(kind):
    # One workspace across every shape: a larger n grows its buffers, a
    # smaller one reuses part of them.
    work = kernels.Workspace()
    for n, dim in SHAPES:
        z = Rng(n * dim).normals((n, dim)) + 0.3
        b = EmbeddingBatch(z, np.zeros(n, dtype=int))
        want_s = _old_similarity(z, kind, 0.7)
        want_d = np.sqrt(_old_squared_distances(z))
        for workspace in (None, work):
            assert _same_bits(kernels.similarity(b, kind, 0.7, workspace), want_s)
            s, d = kernels.similarity_and_distance(b, kind, 0.7, workspace)
            assert _same_bits(s, want_s) and _same_bits(d, want_d)
            assert _same_bits(kernels.euclidean_distance(b, workspace), want_d)
            assert _same_bits(kernels.squared_distances(z, workspace),
                              _old_squared_distances(z))


@pytest.mark.parametrize("kind", kernels.SIMILARITY_KINDS)
def test_pullbacks_match_the_allocating_formulas_bit_for_bit(kind):
    # The cosine pullback's Gram reuses the thread's "cos" across every
    # shape, grown by a larger n and partly reused by a smaller one.
    for n, dim in SHAPES:
        rng = Rng(n + dim)
        z = rng.normals((n, dim)) + 0.3
        w = rng.normals((n, n))
        w[0, -1] = 0.0  # a zero weight, and a coincident pair below
        z[-1] = z[0]
        s = _old_similarity(z, kind, 0.7)
        d = np.sqrt(_old_squared_distances(z))
        # The pullbacks take the doubled weights in their kernel's form,
        # and may overwrite them.
        got = kernels.similarity_pullback(z, _pulled_weights(w, kind, s), kind, 0.7)
        assert _same_bits(got, _old_similarity_pullback(z, w, kind, 0.7, s))
        assert _same_bits(kernels.distance_pullback(z, _over(_old_doubled(w), d)),
                          _old_distance_pullback(z, w, d))
        m = _old_doubled(w)
        want = 2.0 * (np.sum(m, axis=1)[:, None] * z - m @ z)
        assert _same_bits(2.0 * kernels.distance_pullback(z, _old_doubled(w)), want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200), st.integers(1, 12), st.sampled_from(["C", "F"]),
       st.integers(0, 3), st.integers(0, 2 ** 16))
def test_squared_distances_match_the_allocating_formula_over_shapes(
        n, dim, order, k, seed):
    # The one dsyrk update for C-ordered single batches with n and d above
    # 1; numpy's product, scaled and added, for Fortran-ordered z, d = 1,
    # n = 1 and stacks of k batches. The allocating formula takes its
    # product on one thread, as the kernels do.
    shape = (n, dim) if k == 0 else (k, n, dim)
    z = np.asarray(Rng(seed).normals(shape) + 0.3, order=order)
    with _blas.one_thread():
        want = [_old_squared_distances(one) for one in z.reshape(-1, n, dim)]
    want = np.reshape(want, z.shape[:-1] + (n,))
    assert _same_bits(kernels.squared_distances(z), want)
    if k == 0:
        assert _same_bits(kernels.squared_distances(z, kernels.Workspace()), want)


def test_workspace_reuses_a_buffer_until_n_changes():
    # Grow-only: a larger request makes a new array, a smaller or
    # differently shaped one is a view of the largest.
    work = kernels.Workspace()
    first = work.buffer("s", (5, 5))
    assert np.shares_memory(work.buffer("s", (5, 5)), first)
    grown = work.buffer("s", (6, 6))
    assert grown.shape == (6, 6) and grown.dtype == np.float64
    assert not np.shares_memory(grown, first)
    for shape in ((5, 5), (2, 3, 6), (36,)):
        view = work.buffer("s", shape)
        assert view.shape == shape and view.flags.c_contiguous
        assert np.shares_memory(view, grown)
    assert not np.shares_memory(work.buffer("d", (6, 6)), grown)


def _mirrored(m):
    """m's upper triangle copied onto its lower one, in fresh memory."""
    return np.where(np.tri(m.shape[-1], k=-1, dtype=bool),
                    np.swapaxes(m, -1, -2), m)


# Sizes on both sides of the mirror's column blocks.
EDGES = st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(EDGES, st.integers(1, 300)), st.integers(0, 3),
       st.integers(0, 2 ** 16))
def test_the_mirror_copies_the_upper_triangle_onto_the_lower(n, stack, seed):
    # Any matrix, or a stack of k of them, with a lower triangle that
    # disagrees with the upper one everywhere.
    shape = (n, n) if stack == 0 else (stack, n, n)
    m = Rng(seed).normals(shape)
    want = _mirrored(m)
    got = kernels._mirror_upper(m)
    assert got is m
    assert _same_bits(m, want)
    assert _same_bits(m, np.swapaxes(m, -1, -2).copy())


def _lopsided(monkeypatch, i, j):
    """Patch both Gram seams, the product for cosine and the update for
    squared distances, so that each leaves entry (i, j), above the
    diagonal, one ulp above what it wrote there, and NaN at every entry
    below the diagonal. Returns the patched product."""
    def lopsided(out):
        out[..., i, j] = np.nextafter(out[..., i, j], np.inf)
        np.copyto(out, np.nan, where=np.tri(out.shape[-1], k=-1, dtype=bool))
        return out

    real_gram, real_update = _blas.gram, _blas.subtract_twice_gram
    monkeypatch.setattr(_blas, "gram", lambda z, out: lopsided(real_gram(z, out)))
    monkeypatch.setattr(_blas, "subtract_twice_gram",
                        lambda z, out: lopsided(real_update(z, out)))
    return _blas.gram


def _check_the_mirror_under_a_lopsided_product(monkeypatch, z, workspace):
    n, dim = z.shape
    # Rows 0 and n - 1 lie close together, so their d^2 is small, positive
    # and keeps the one-ulp change to its entry.
    z[n - 1] = z[0] + 1e-3 * (np.arange(dim) + 1.0)
    want = kernels.squared_distances(z)
    want[0, n - 1] = want[n - 1, 0] = np.nextafter(want[0, n - 1], np.inf)
    gram = _lopsided(monkeypatch, 0, n - 1)

    # The nudged entry above the diagonal shows on both sides of it, and
    # the NaN below it shows nowhere.
    d2 = kernels.squared_distances(z, workspace)
    assert _same_bits(d2, want)

    zh = kernels.unit_rows(z)
    s = kernels.cosine_similarity(EmbeddingBatch(z, np.zeros(n, dtype=int)), workspace)
    assert _same_bits(s, s.T)
    assert _same_bits(s, _old_cosine(z, _mirrored(gram(zh, np.empty((n, n))))))

    stack = np.stack([z, z[::-1]])
    for k in (kernels.squared_distances(stack), kernels.similarity(stack)):
        assert not np.isnan(k).any()
        assert _same_bits(k, np.swapaxes(k, -1, -2).copy())


@pytest.mark.parametrize("use_workspace", [False, True])
def test_a_lopsided_gram_product_is_read_from_its_upper_triangle(monkeypatch,
                                                                  use_workspace):
    z = Rng(5).normals((9, 4)) + 0.3
    _check_the_mirror_under_a_lopsided_product(
        monkeypatch, z, kernels.Workspace() if use_workspace else None)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 2 ** 16))
def test_a_lopsided_gram_product_is_read_from_its_upper_triangle_over_shapes(
        n, dim, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        z = Rng(seed).normals((n, dim)) + 0.3
        _check_the_mirror_under_a_lopsided_product(monkeypatch, z,
                                                   kernels.Workspace())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.one_of(EDGES, st.integers(1, 200)), st.integers(1, 12),
       st.integers(1, 3), st.integers(0, 2 ** 16))
def test_every_kernel_is_exactly_symmetric(n, dim, k, seed):
    # Single batches through the direct dsyrk and the mirror's strips; a
    # stack of k batches through matmul and the masked copy, each matrix
    # the same bits as its batch's own.
    z = Rng(seed).normals((k, n, dim)) + 0.3
    work = kernels.Workspace()
    for kind in kernels.SIMILARITY_KINDS:
        stack = kernels.similarity(z, kind, 0.7)
        assert _same_bits(stack, np.swapaxes(stack, -1, -2).copy())
        for b in range(k):
            one = kernels.similarity(z[b], kind, 0.7, work)
            assert _same_bits(one, one.T.copy())
            assert _same_bits(one, stack[b])


def test_a_dirty_workspace_below_the_diagonal_is_overwritten():
    # dsyrk writes only the upper triangle; at n = 800 after n = 1000 the
    # grow-only buffers hold the larger product's entries, here NaN, below
    # the diagonal, and the mirror must replace them.
    work = kernels.Workspace()
    rng = Rng(8)
    z = rng.normals((1000, 10)) + 0.3
    kernels.similarity(z, "cosine", workspace=work)
    kernels.similarity(z, "rbf", workspace=work)
    w = rng.normals((800, 800))
    # The reference pullback runs in a new thread, on a "cos" of its own.
    with ThreadPoolExecutor(1) as pool:
        want_pullback = pool.submit(kernels.cosine_pullback, z[:800],
                                    _old_doubled(w)).result()
    for name in ("s", "d"):
        work.buffer(name, (1000, 1000))[...] = np.nan
    kernels.thread_workspace().buffer("cos", (1000, 1000))[...] = np.nan
    z = z[:800].copy()
    for kind in kernels.SIMILARITY_KINDS:
        want = kernels.similarity(z, kind, 0.7)
        assert _same_bits(kernels.similarity(z, kind, 0.7, work), want)
        assert _same_bits(want, want.T.copy())
    assert _same_bits(kernels.squared_distances(z, work),
                      kernels.squared_distances(z))
    assert _same_bits(kernels.cosine_pullback(z, _old_doubled(w)), want_pullback)
