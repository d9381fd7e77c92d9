"""The one seam to numpy's bundled OpenBLAS: one-thread products and a
direct dsyrk for Gram products.

numpy's wheels link a private copy of OpenBLAS (scipy-openblas) that
splits a large product across a pool of worker threads. Once a product
is done, its workers spin for a while before they sleep, so a loop of
n x n products every few milliseconds keeps a second core busy doing
nothing: a `train-imbalance` op cost twice its wall time in CPU.
`product(a, b)` therefore runs every product inside `one_thread()`, with
the pool set to one thread, stacks of matrices included: threaded, the
products of stacks of 191 or 250 rows by 12 columns per batch gave other
last bits than each batch's own one-thread product. The scope costs about
3 us per stacked product (a (60, 6, 4) Gram product took 14.9 us where it
took 12.3 unscoped, 2-core x86 VM).
Products outside this module, such as the trainer's embedding and update,
keep the caller's thread count. At a wide embedding (out_dim 256 on 1067
rows) the second thread did useful work, and a one-thread step is slower
(README, Backend).

A one-thread product is the same call, but it need not have a threaded
one's last bits. At n = 800 and d = 10, the criterion-5 size that the
fixtures pin, they agree on the kernel they were measured with (SkylakeX,
which OpenBLAS picks for the CPU at run time: `library().corename`). At
n = 525 or 1000 they differ, and a threaded Gram product's bits there also
depend on the thread count. A one-thread product's depend on neither.

The thread count is process-global. The first scope to enter, in any
thread, saves the count and sets it to 1; the last one to leave restores
the saved count, so overlapping scopes in several threads never restore
it early. The lock is held only around that bookkeeping and the library
calls, never across a body. Products that other threads run meanwhile,
outside any scope, also run on one thread, so a scope is kept to one
product. A count that other code sets while a scope is open is
overwritten by the restore when the last scope leaves.

`gram(z, out)` writes the upper triangle of z @ z.T, diagonal included,
through the library's `cblas_dsyrk`, on one thread. It is the call numpy's
matmul makes for z @ z.T, so the triangle has numpy's bits; numpy then
copies it onto the lower triangle with a scalar loop, which `kernels` does
once itself. Where numpy would not take that path, or the arrays are not
ones the call can read and write in place, `product` runs it. Either way
only the upper triangle is to be read. At n = 800, d = 10 the direct call
takes about 0.4 ms against 1.3 ms through numpy (2-core x86 VM).

`subtract_twice_gram(z, out)` subtracts 2 z @ z.T from out's upper
triangle in one cblas_dsyrk update, with alpha = -2 and beta = 1, so that
`kernels` builds squared distances as sq_i + sq_j - 2 G_ij in one pass
over out instead of a Gram product and two more passes. The update keeps
the bits of the separate steps. OpenBLAS accumulates each entry's dot
product G_ij exactly as it does for alpha = 1 and beta = 0, skips the beta
scaling when beta is 1, and then adds alpha G_ij to out_ij with one
rounding. Doubling is exact (short of overflow, where both give inf), so
each entry is round(out_ij - 2 G_ij), which is what subtracting the
doubled product gives. That holds while the whole depth d is one panel of
the kernel: past it (257 columns on the Haswell kernel, 385 on SkylakeX)
the kernel adds each panel's partial sum to out in turn, and the bits
differ. So one call takes at most _ONE_PANEL = 128 columns, half the
shallower of those panels, for kernels not measured; wider batches, and
arrays `gram` would not take, get the Gram product apart, doubled and
subtracted, which is the same arithmetic.

The library is looked up on first use, never at import, so importing the
package leaves the thread count alone. It is found only when numpy's
build config names scipy-openblas: the shared object lives in the
wheel's `numpy.libs/` (`numpy/.dylibs/` on macOS) and exports
`scipy_openblas_{get,set}_num_threads64_`, `scipy_cblas_dsyrk64_` and
`scipy_openblas_get_corename64_`, without the `64_` in a build with 32-bit
BLAS integers. With any other BLAS, or not all four found, a scope does
nothing and every product goes through numpy.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import namedtuple

import numpy as np

_lock = threading.Lock()
_depth = 0
_saved = 0
# The Library once looked up, None when there is none; _UNSEEN until first use.
_UNSEEN = object()
_library = _UNSEEN
# CblasRowMajor, CblasUpper and CblasNoTrans.
_ROW_MAJOR, _UPPER, _NO_TRANS = 101, 121, 111
# The most columns that subtract_twice_gram hands to one dsyrk update (see
# module).
_ONE_PANEL = 128


# The bundled OpenBLAS's thread-count pair and cblas_dsyrk, typed, and the
# name of the kernel it picked for the CPU at run time.
Library = namedtuple("Library", "get_threads set_threads dsyrk corename")


def names_scipy_openblas() -> bool:
    """Whether numpy's build config names its BLAS scipy-openblas."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return False
    return blas.get("name") == "scipy-openblas"


def _shared_object():
    """numpy's bundled OpenBLAS, loaded, or None."""
    if not names_scipy_openblas():
        return None
    root = os.path.dirname(os.path.abspath(np.__file__))
    for where in (os.path.join(os.path.dirname(root), "numpy.libs"),
                  os.path.join(root, ".dylibs")):
        names = os.listdir(where) if os.path.isdir(where) else ()
        for name in sorted(name for name in names if "scipy_openblas" in name):
            try:
                return ctypes.CDLL(os.path.join(where, name))
            except OSError:
                continue
    return None


def _find() -> Library | None:
    """The bundled library's four functions, all of one integer width, or None."""
    # Without a shared object, every name is missing.
    lib = _shared_object()
    for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
        get, put, syrk, core = (getattr(lib, f"{name}{suffix}", None) for name in (
            "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads",
            "scipy_cblas_dsyrk", "scipy_openblas_get_corename"))
        if None in (get, put, syrk, core):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        syrk.restype = None
        syrk.argtypes = ([ctypes.c_int] * 3 + [integer] * 2
                         + [ctypes.c_double, ctypes.c_void_p, integer,
                            ctypes.c_double, ctypes.c_void_p, integer])
        core.restype, core.argtypes = ctypes.c_char_p, []
        return Library(get, put, syrk, core().decode())
    return None


def library() -> Library | None:
    """The Library that scopes and Gram products act through, or None; found
    on first call."""
    global _library
    if _library is _UNSEEN:
        with _lock:
            if _library is _UNSEEN:
                _library = _find()
    return _library


def product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, or a stack of them, on one thread."""
    with one_thread():
        return np.matmul(a, b, out=out)


def _direct(z: np.ndarray, out: np.ndarray) -> Library | None:
    """The Library whose cblas_dsyrk takes z's Gram product into out in
    place, or None.

    That is where numpy's matmul would call it: a single n x d batch with n
    and d both above 1 (at n = 1 it takes a dot product, at d = 1 an outer
    product), both arrays aligned, C-contiguous float64, and out writeable
    and apart from z.
    """
    n, d = z.shape[-2:]
    if (z.ndim == 2 and n > 1 and d > 1 and out.shape == (n, n)
            and z.dtype == out.dtype == np.float64 and out.flags.carray
            and z.flags.c_contiguous and z.flags.aligned
            and not np.may_share_memory(z, out)):
        return library()
    return None


def _dsyrk(lib: Library, z: np.ndarray, alpha: float, beta: float,
           out: np.ndarray) -> np.ndarray:
    """out = alpha z @ z.T + beta out on out's upper triangle, on one thread."""
    n, d = z.shape
    with one_thread():
        lib.dsyrk(_ROW_MAJOR, _UPPER, _NO_TRANS, n, d, alpha, z.ctypes.data,
                  d, beta, out.ctypes.data, n)
    return out


def gram(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z @ z.T in out, of which only the upper triangle is to be read.

    Through cblas_dsyrk where `_direct` finds it; anything else, a stack of
    batches included, goes through `product`.
    """
    if (lib := _direct(z, out)) is not None:
        return _dsyrk(lib, z, 1.0, 0.0, out)
    return product(z, np.swapaxes(z, -1, -2), out)


def subtract_twice_gram(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out - 2 z @ z.T in out, of which only the upper triangle is to be
    read.

    Through one cblas_dsyrk update where `_direct` finds it and z has at
    most _ONE_PANEL columns; otherwise the Gram product is made apart,
    doubled and subtracted, with the same bits (see module).
    """
    if z.shape[-1] <= _ONE_PANEL and (lib := _direct(z, out)) is not None:
        return _dsyrk(lib, z, -2.0, 1.0, out)
    g = product(z, np.swapaxes(z, -1, -2))
    g *= 2.0
    out -= g
    return out


def _enter(lib: Library) -> None:
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = lib.get_threads()
            lib.set_threads(1)
        _depth += 1


def _leave(lib: Library) -> None:
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            lib.set_threads(_saved)


class one_thread:
    """Run the body with the bundled OpenBLAS on one thread (see module)."""

    __slots__ = ("_lib",)

    def __enter__(self):
        self._lib = library()
        if self._lib is not None:
            _enter(self._lib)
        return self

    def __exit__(self, *exc):
        if self._lib is not None:
            _leave(self._lib)
