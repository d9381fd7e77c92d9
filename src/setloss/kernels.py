"""Pairwise similarity and distance kernels with analytic entry gradients.

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
itself: the evaluation's own given a workspace, a copy given none. The
neg-euclidean and distance pullbacks are then one Laplacian,
sum_j P_ij (z_i - z_j), and the squared-distance pullback twice it. The
single-entry kernel_gradient form exists for spot checks against finite
differences.

Every n x n array is built in place, in a buffer that a `Workspace` holds
when the call is given one and in a fresh array when it is not, so the two
give the same bits from the same code. The trainer's steps and the lattice
scans take theirs from `thread_workspace()`. An array built on a workspace
is valid until that workspace's next use for the same kind of array:
kernel matrices until its next kernel build. An S or D, wherever it
lives, is also spent when a gradient is taken from it with a workspace
(`grads.evaluation_gradient`), which writes the weights over it, and the
RBF pullback divides those by bw^2 in place. Calls given no workspace
return arrays that share no memory with any later call.

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
from .errors import NonPositiveBandwidth, ValidationError, ZeroVector

NORM_FLOOR = 1e-12

SIMILARITY_KINDS = ("cosine", "rbf", "neg-euclidean")


def check_kind(kind: str) -> str:
    """`kind` if it names a kernel; else ValidationError listing the choices."""
    if kind not in SIMILARITY_KINDS:
        raise ValidationError(
            f"unknown kernel {kind!r}; choose from {', '.join(SIMILARITY_KINDS)}")
    return kind


def _vectors(batch) -> np.ndarray:
    """The embeddings of a batch, or of a raw (..., n, d) array, which must
    be finite; a batch checked its own when it was built."""
    if isinstance(batch, EmbeddingBatch):
        return batch.vectors
    z = np.asarray(batch, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValidationError("vectors contain non-finite values")
    return z


class Workspace:
    """Scratch arrays by name; `thread_workspace()` is each thread's one.

    `buffer(name, shape, dtype)` is a C-contiguous view of the first
    prod(shape) elements of the name's flat array. The array grows to fit
    and is never shrunk, and is made again only for another dtype, so a
    smaller request after a larger one (n = 800 after 1000) allocates
    nothing. Two names never share memory.

    n x n names: "s" and "d" hold kernel results (a similarity built from
    squared distances without a kept D lives in "d"; the squared distances
    themselves are built in "d" by one Gram update), and a gradient taken
    with the workspace writes each entry weight over the kernel matrix it
    pulls back through, in that matrix's `WEIGHT_FORMS` form; "ws" holds
    the W that a loop-built or log-det weight rule builds and adds to its
    transpose; "cos" the cosine pullback's unclipped Gram. A Gram product
    or update leaves below its diagonal whatever an earlier, larger one
    wrote there, and the mirror overwrites it. An fl, gc-cf or supcon step
    writes "d" only under rbf and neg-euclidean, 8 n^2 bytes (5.1 MB at
    n = 800), and "s" and "cos" under cosine; all four n x n names take
    32 n^2. The lattice scans add the float gain blocks "margin" and
    "other" and their bool masks "finite" and "bad", about 1.2 MB at n = 6
    and 3.1 MB at n = 12. Stacks of kernel matrices are not built in a
    workspace.
    """

    def __init__(self):
        self._buffers = {}

    def buffer(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_per_thread = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's workspace, made on its first use and kept."""
    work = getattr(_per_thread, "workspace", None)
    if work is None:
        work = _per_thread.workspace = Workspace()
    return work


def workspace_buffer(workspace: Workspace | None, name: str, shape: tuple,
                     dtype=np.float64) -> np.ndarray:
    """The workspace's buffer `name` of `shape`, or a fresh array without one."""
    if workspace is None:
        return np.empty(shape, dtype)
    return workspace.buffer(name, shape, dtype)


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


def squared_distances(z: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """|z_i - z_j|^2 as |z_i|^2 + |z_j|^2 - 2 <z_i, z_j>, floored at zero."""
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
    d2 = squared_distances(_vectors(batch), workspace)
    return np.sqrt(d2, out=d2)


def _rbf_entries(d2: np.ndarray, bandwidth: float, out: np.ndarray) -> np.ndarray:
    # Division is sign-symmetric, so this is -(d2) / (2 bw^2) in one pass.
    s = np.divide(d2, -(2.0 * bandwidth * bandwidth), out=out)
    np.exp(s, out=s)
    _fill_diagonal(s, 1.0)
    return s


def rbf_similarity(batch, bandwidth: float = 1.0,
                   workspace: Workspace | None = None) -> np.ndarray:
    if not (bandwidth > 0):
        raise NonPositiveBandwidth(bandwidth)
    d2 = squared_distances(_vectors(batch), workspace)
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
        d2 = squared_distances(_vectors(batch), workspace)
        s = workspace_buffer(workspace, "s", d2.shape)
        return _rbf_entries(d2, bandwidth, out=s), np.sqrt(d2, out=d2)
    if kind == "neg-euclidean":
        d = euclidean_distance(batch, workspace)
        return np.negative(d, out=workspace_buffer(workspace, "s", d.shape)), d
    return (similarity(batch, kind, bandwidth, workspace),
            euclidean_distance(batch, workspace))


def kernel_gradient(batch, kind: str, i: int, j: int, bandwidth: float = 1.0):
    """(dK_ij/dz_i, dK_ij/dz_j) for one matrix entry.

    Diagonal entries are constants for every kind, so i == j returns zeros.
    For "euclidean" at coincident points the derivative does not exist; the
    zero subgradient is returned.
    """
    z = _vectors(batch)
    d = z.shape[1]
    if i == j:
        return np.zeros(d), np.zeros(d)
    if kind == "cosine":
        ni = np.linalg.norm(z[i])
        nj = np.linalg.norm(z[j])
        if ni < NORM_FLOOR:
            raise ZeroVector(i)
        if nj < NORM_FLOOR:
            raise ZeroVector(j)
        zi, zj = z[i] / ni, z[j] / nj
        s = float(zi @ zj)
        return (zj - s * zi) / ni, (zi - s * zj) / nj
    if kind == "rbf":
        if not (bandwidth > 0):
            raise NonPositiveBandwidth(bandwidth)
        diff = z[i] - z[j]
        s = np.exp(-float(diff @ diff) / (2.0 * bandwidth * bandwidth))
        g = -s / (bandwidth * bandwidth) * diff
        return g, -g
    if kind in ("euclidean", "neg-euclidean"):
        diff = z[i] - z[j]
        dist = np.linalg.norm(diff)
        if dist < NORM_FLOOR:
            return np.zeros(d), np.zeros(d)
        g = diff / dist
        if kind == "neg-euclidean":
            g = -g
        return g, -g
    raise ValidationError(f"unknown kernel kind {kind!r}")


def cosine_pullback(z: np.ndarray, m: np.ndarray,
                    workspace: Workspace | None = None) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij S_ij under the cosine kernel, given the
    doubled weights m = W + W.T with a zero diagonal."""
    zh = unit_rows(z)
    s = _symmetric_gram(zh, workspace_buffer(workspace, "cos", _square(z)))
    proj = np.sum(np.multiply(m, s, out=s), axis=1)
    grad = _blas.product(m, zh) - proj[:, None] * zh
    return grad / np.linalg.norm(z, axis=1)[:, None]


def rbf_pullback(z: np.ndarray, ms: np.ndarray, bandwidth: float) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij S_ij, given ms = M o S, the doubled
    weights M = W + W.T with a zero diagonal times the forward RBF matrix S
    entry by entry, which is overwritten."""
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
    return np.sum(p, axis=1)[:, None] * z - _blas.product(p, z)


def sqdist_pullback(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """dL/dZ for L = sum_ij W_ij D^2_ij, given the doubled weights
    m = W + W.T with a zero diagonal."""
    # d(D^2_ij)/dz_i = 2 (z_i - z_j)
    return 2.0 * distance_pullback(z, m)


def similarity_pullback(z: np.ndarray, m: np.ndarray, kind: str,
                        bandwidth: float = 1.0, *,
                        workspace: Workspace | None = None) -> np.ndarray:
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
        return cosine_pullback(z, m, workspace)
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
# kernel kind and by an objective record's `distance`. form(k, m) turns rows
# of a kernel matrix K, in k, into the form of the same rows of M, in m,
# entry by entry, so it may go a strip of rows at a time; None is M itself.
WEIGHT_FORMS = {"cosine": None, "rbf": _times, "neg-euclidean": _over,
                "d": _over, "d2": None}
