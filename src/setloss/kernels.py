"""Pairwise similarity and distance kernels and their analytic pullbacks.

All kernels map a batch of n embeddings (an EmbeddingBatch or an n x d
array) to a symmetric n x n numpy array, and a (..., n, d) stack of batches
to the (..., n, n) stack of their matrices, each the same bits as its
batch's own:

    cosine         S_ij = <z_i, z_j> / (|z_i| |z_j|)        entries in [-1, 1]
    rbf            S_ij = exp(-|z_i - z_j|^2 / (2 bw^2))    entries in (0, 1]
    euclidean      D_ij = |z_i - z_j|                       entries >= 0
    neg-euclidean  S_ij = -D_ij                             similarity flavor of D

Properties enforced here rather than assumed downstream:
  * exact symmetry by construction: only the upper triangle of a Gram
    product is read. Cosine's `_symmetric_gram` copies it onto the lower one
    before any elementwise pass; squared distances are updated on the upper
    triangle, floored and then copied down. Every later pass treats (i, j)
    and (j, i) alike, so the results are symmetric bit for bit,
  * exact unit diagonal for cosine/rbf and zero diagonal for distances,
  * cosine entries clipped to [-1, 1] against roundoff,
  * cosine refuses embeddings with norm below 1e-12 (ZeroVector).

The *_pullback helpers implement the chain rule from per-entry loss weights
W back to embeddings and are the only gradient route the loss module uses.
They take the doubled weights M = W + W.T with a zero diagonal, which the
objectives' weight rules write directly (see `grads`), rather than folding
W themselves; the diagonal is zero because every kernel's diagonal is
constant in the embeddings. Each takes M in the one form its chain rule
reads, `WEIGHT_FORMS`: M under cosine and for D^2, M o S under rbf, and
M / K, zero where |K_ij| <= NORM_FLOOR, for K = S under neg-euclidean and
K = D for D. The weight rules write that form over the kernel matrix K
itself, the evaluation's own. The neg-euclidean and distance pullbacks
are then one Laplacian, sum_j P_ij (z_i - z_j), and a D^2 weight pulls
back as twice it (`grads.evaluation_gradient`).

Every n x n array is built in place, under one rule. An array that a
call returns lives where its caller says: a kernel function given a
`Workspace` builds it in that workspace's buffer, and given none in a
fresh array, so the two give the same bits from the same code. An array
that a call fills and drops belongs to the calling thread: it is a buffer
of `thread_workspace()`, as the cosine pullback's Gram, the weight rules'
W and the lattice scans' gains are. The trainer's steps build their
kernels in `thread_workspace()` too. An array built on a workspace is
valid until that workspace's next use for the same kind of array: kernel
matrices until its next kernel build. An S or D, wherever it lives, is
also spent when a gradient is taken from it (`grads.evaluation_gradient`),
which writes the weights over it, and the RBF pullback divides those by
bw^2 in place. Kernel functions given no workspace return arrays that
share no memory with any later call.

The products go through `_blas`, whose docstring says how they run and
what that does to their last bits: `squared_distances` fills "d" with
|z_i|^2 + |z_j|^2 and subtracts 2 z @ z.T from its upper triangle in one
`_blas.subtract_twice_gram` update, with the bits of the separate steps;
`cosine_similarity` takes its Gram product from `_blas.gram`, which writes
only the upper triangle that `_symmetric_gram` then mirrors; and the m @ z
of every pullback runs through `_blas.product`. All of them run on one
thread, stacks of batches included, so each matrix of a stack has the bits
its batch has alone.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import _blas
from .batch import EmbeddingBatch
from .errors import NonPositiveBandwidth, ValidationError, ZeroVector, check_real

NORM_FLOOR = 1e-12

SIMILARITY_KINDS = ("cosine", "rbf", "neg-euclidean")


def check_kind(kind: str) -> str:
    """`kind` if it names a kernel; else ValidationError listing the choices."""
    if kind not in SIMILARITY_KINDS:
        raise ValidationError(
            f"unknown kernel {kind!r}; choose from {', '.join(SIMILARITY_KINDS)}")
    return kind


def check_bandwidth(bandwidth) -> None:
    """NonPositiveBandwidth unless bandwidth is a finite real > 0, as an RBF
    kernel needs (`errors.check_real`)."""
    try:
        check_real("bandwidth", bandwidth, above=0)
    except ValidationError:
        raise NonPositiveBandwidth(bandwidth) from None


def _vectors(batch) -> np.ndarray:
    """The embeddings of a batch, or of a raw (..., n, d) array, which must
    be finite; a batch checked its own when it was built. Every kernel and
    pullback reads its embeddings through this check, and none checks the
    n x n weights it is given."""
    if isinstance(batch, EmbeddingBatch):
        return batch.vectors
    z = np.asarray(batch, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValidationError("vectors contain non-finite values")
    return z


class Workspace:
    """Scratch arrays by name; `thread_workspace()` is each thread's one.

    `buffer(name, shape)` is a C-contiguous float64 view of the first
    prod(shape) elements of the name's flat array. The array grows to fit
    and is never shrunk, so a smaller request after a larger one (n = 800
    after 1000) allocates nothing. Two names never share memory.

    n x n names: "s" and "d" hold kernel results (a similarity built from
    squared distances without a kept D lives in "d"; the squared distances
    themselves are built in "d" by one Gram update), and a gradient taken
    from them writes each entry weight over the kernel matrix it pulls
    back through, in that matrix's `WEIGHT_FORMS` form. "ws" and "cos" are
    scratch, and only a thread's own workspace holds them: "ws" the W that
    a loop-built or log-det weight rule builds and adds to its transpose,
    "cos" the cosine pullback's unclipped Gram. A thread keeps them after
    any gradient it takes, `grads.loss_gradient` included, as it keeps the
    scans' buffers: reused by its next call, never handed out. A Gram product
    or update leaves below its diagonal whatever an earlier, larger one
    wrote there, and the mirror overwrites it. A step builds only the
    matrices its record reads (`objectives.Objective.reads`). An fl, gc-cf
    or supcon step writes "d" only under rbf and neg-euclidean, 8 n^2 bytes
    (5.1 MB at n = 800), and "s" and "cos" under cosine; a triplet step
    writes only "d" and "ws" under every kernel; all four n x n names take
    32 n^2. The lattice scans add "gain", every gain of a scan's stack of
    tables, and "low" and "near", its submask minima; the pair scan of the
    tables that can violate reuses all three for their gains and margin
    chunks. They take 0.92 MB for a 200-table scan at n = 6, and at most
    1.6 MB for a full stack of `tables_per_scan` tables at any n. Stacks of
    kernel matrices are not built in a workspace.
    """

    def __init__(self):
        self._buffers = {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


_per_thread = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's workspace, made on its first use and kept."""
    work = getattr(_per_thread, "workspace", None)
    if work is None:
        work = _per_thread.workspace = Workspace()
    return work


def workspace_buffer(workspace: Workspace | None, name: str, shape: tuple) -> np.ndarray:
    """The workspace's buffer `name` of `shape`, or a fresh array without one."""
    if workspace is None:
        return np.empty(shape)
    return workspace.buffer(name, shape)


def _square(z: np.ndarray) -> tuple:
    """The (..., n, n) shape of a (..., n, d) stack's matrices."""
    return z.shape[:-1] + z.shape[-2:-1]


def _fill_diagonal(m: np.ndarray, value: float) -> None:
    """Write `value` on the diagonal of every matrix of a (..., n, n) stack."""
    i = np.arange(m.shape[-1])
    m[..., i, i] = value


# The mirror copies the upper triangle down this many columns at a time,
# so that every read of a transpose stays this wide.
_BLOCK = 64
_BELOW = np.tri(_BLOCK, k=-1, dtype=bool)
_BELOW.flags.writeable = False


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """m with each matrix's strictly lower triangle overwritten, in place, by
    the transpose of its upper one, so that m equals its transpose exactly.

    One _BLOCK-column strip at a time: the diagonal block copies its own
    transpose through the strictly-lower mask, and the strip below it is
    the transpose of the rows beside it. A stack of matrices up to _BLOCK
    wide, such as the verdict table's, takes one masked copy.
    """
    n = m.shape[-1]
    for c0 in range(0, n, _BLOCK):
        c1 = min(c0 + _BLOCK, n)
        block = m[..., c0:c1, c0:c1]
        np.copyto(block, np.swapaxes(block, -1, -2),
                  where=_BELOW[:c1 - c0, :c1 - c0])
        m[..., c1:, c0:c1] = np.swapaxes(m[..., c0:c1, c1:], -1, -2)
    return m


def _symmetric_gram(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z @ z.T in out, each matrix equal to its transpose bit for bit."""
    return _mirror_upper(_blas.gram(z, out))


def unit_rows(z: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; raises ZeroVector below the norm floor,
    naming the row's index within its batch."""
    norms = np.linalg.norm(z, axis=-1)
    bad = np.flatnonzero(norms < NORM_FLOOR)
    if bad.size:
        raise ZeroVector(int(bad[0] % norms.shape[-1]))
    return z / norms[..., None]


def cosine_similarity(batch, workspace: Workspace | None = None) -> np.ndarray:
    z = _vectors(batch)
    zh = unit_rows(z)
    s = _symmetric_gram(zh, workspace_buffer(workspace, "s", _square(z)))
    np.clip(s, -1.0, 1.0, out=s)
    _fill_diagonal(s, 1.0)
    return s


def squared_distances(batch, workspace: Workspace | None = None) -> np.ndarray:
    """|z_i - z_j|^2 as |z_i|^2 + |z_j|^2 - 2 <z_i, z_j>, floored at zero."""
    z = _vectors(batch)
    sq = np.sum(z * z, axis=-1)
    # A row-broadcast copy and a contiguous add, with the operands of one
    # broadcast outer add in its order, take 0.6-0.7 ms at n = 800 where
    # the broadcast add takes 0.9-1.1 ms (2-core x86 VM).
    d2 = workspace_buffer(workspace, "d", _square(z))
    d2[...] = sq[..., :, None]
    d2 += sq[..., None, :]
    _blas.subtract_twice_gram(z, d2)
    np.maximum(d2, 0.0, out=d2)
    _mirror_upper(d2)
    _fill_diagonal(d2, 0.0)
    return d2


def euclidean_distance(batch, workspace: Workspace | None = None) -> np.ndarray:
    d2 = squared_distances(batch, workspace)
    return np.sqrt(d2, out=d2)


def _rbf_entries(d2: np.ndarray, bandwidth: float, out: np.ndarray) -> np.ndarray:
    # Division is sign-symmetric, so this is -(d2) / (2 bw^2) in one pass.
    s = np.divide(d2, -(2.0 * bandwidth * bandwidth), out=out)
    np.exp(s, out=s)
    _fill_diagonal(s, 1.0)
    return s


def rbf_similarity(batch, bandwidth: float = 1.0,
                   workspace: Workspace | None = None) -> np.ndarray:
    check_bandwidth(bandwidth)
    d2 = squared_distances(batch, workspace)
    return _rbf_entries(d2, bandwidth, out=d2)


def similarity(batch, kind: str = "cosine", bandwidth: float = 1.0,
               workspace: Workspace | None = None) -> np.ndarray:
    if check_kind(kind) == "cosine":
        return cosine_similarity(batch, workspace)
    if kind == "rbf":
        return rbf_similarity(batch, bandwidth, workspace)
    d = euclidean_distance(batch, workspace)
    return np.negative(d, out=d)


def similarity_and_distance(batch, kind: str = "cosine", bandwidth: float = 1.0,
                            workspace: Workspace | None = None):
    """(S, D), equal to `similarity` and `euclidean_distance` but with one
    squared-distance pass under rbf and neg-euclidean."""
    if kind == "rbf" and bandwidth > 0:
        d2 = squared_distances(batch, workspace)
        s = workspace_buffer(workspace, "s", d2.shape)
        return _rbf_entries(d2, bandwidth, out=s), np.sqrt(d2, out=d2)
    if kind == "neg-euclidean":
        d = euclidean_distance(batch, workspace)
        return np.negative(d, out=workspace_buffer(workspace, "s", d.shape)), d
    return (similarity(batch, kind, bandwidth, workspace),
            euclidean_distance(batch, workspace))


def cosine_pullback(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij S_ij under the cosine kernel, given the
    doubled weights m = W + W.T with a zero diagonal. The unclipped Gram
    is built in the calling thread's "cos" buffer."""
    z = _vectors(z)
    zh = unit_rows(z)
    s = _symmetric_gram(zh, thread_workspace().buffer("cos", _square(z)))
    proj = np.sum(np.multiply(m, s, out=s), axis=1)
    grad = _blas.product(m, zh) - proj[:, None] * zh
    return grad / np.linalg.norm(z, axis=1)[:, None]


def rbf_pullback(z: np.ndarray, ms: np.ndarray, bandwidth: float) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij S_ij, given ms = M o S, the doubled
    weights M = W + W.T with a zero diagonal times the forward RBF matrix S
    entry by entry, which is overwritten."""
    z = _vectors(z)
    ms /= bandwidth * bandwidth
    # row i: sum_j ms_ij (z_j - z_i)
    return _blas.product(ms, z) - np.sum(ms, axis=1)[:, None] * z


def distance_pullback(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij D_ij, given p, the doubled weights
    M = W + W.T with a zero diagonal in the distance form: M_ij / D_ij
    where |D_ij| > NORM_FLOOR and 0 elsewhere (`WEIGHT_FORMS["d"]`).

    d(D_ij)/dz_i is (z_i - z_j) / D_ij, with the zero subgradient at
    coincident points, so this is the Laplacian sum_j p_ij (z_i - z_j).
    """
    z = _vectors(z)
    return np.sum(p, axis=1)[:, None] * z - _blas.product(p, z)


def similarity_pullback(z: np.ndarray, m: np.ndarray, kind: str,
                        bandwidth: float = 1.0) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij S_ij under `kind`, given the doubled
    weights M = W + W.T with a zero diagonal in the kind's form
    (`WEIGHT_FORMS`): M under cosine, M o S under rbf and M / S, zero where
    |S_ij| <= NORM_FLOOR, under neg-euclidean.

    m is overwritten under rbf. Cosine works from the raw Gram matrix of
    unit rows: the forward S is clipped to [-1, 1], and the chain rule
    needs the unclipped entries. Under neg-euclidean S = -D, so M / S is
    the distance form of -M and pulls back as `distance_pullback`.
    """
    if check_kind(kind) == "cosine":
        return cosine_pullback(z, m)
    if kind == "rbf":
        return rbf_pullback(z, m, bandwidth)
    return distance_pullback(z, m)


def _times(k: np.ndarray, m: np.ndarray) -> None:
    """M o K into k: each entry one rounding of K_ij x M_ij."""
    k *= m


def _over(k: np.ndarray, m: np.ndarray) -> None:
    """M / K into k where |K_ij| > NORM_FLOOR, and 0 elsewhere."""
    apart = (k > NORM_FLOOR) | (k < -NORM_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(m, k, out=k)
    np.copyto(k, 0.0, where=~apart)


# The form of the doubled weights M that each pullback reads, keyed by
# kernel kind and by the distance an objective record `reads`. form(k, m)
# turns rows of a kernel matrix K, in k, into the form of the same rows of
# M, in m, entry by entry, so it may go a strip of rows at a time; None is
# M itself.
WEIGHT_FORMS = {"cosine": None, "rbf": _times, "neg-euclidean": _over,
                "d": _over, "d2": None}
