"""One BLAS thread for a scope, and a direct dsyrk, on numpy's bundled OpenBLAS.

numpy's wheels link a private copy of OpenBLAS (scipy-openblas) that
splits a large product across a pool of worker threads. Once a product
is done, its workers spin for a while before they sleep, so a loop of
n x n products every few milliseconds keeps a second core busy doing
nothing: a `train-imbalance` op cost twice its wall time in CPU.
`one_thread()` runs its body with the pool set to one thread. The calls
stay the same; whether their bits match a threaded run's depends on the
shapes (see `kernels`).

The thread count is process-global. The first scope to enter, in any
thread, saves the count and sets it to 1; the last one to leave restores
the saved count, so overlapping scopes in several threads never restore
it early. The lock is held only around that bookkeeping and the library
calls, never across a body. Products that other threads run meanwhile,
outside any scope, also run on one thread, so a scope is kept to one
product (see `kernels._product`). A count that other code sets while a
scope is open is overwritten by the restore when the last scope leaves.

`upper_gram(z, out)` writes the upper triangle of z @ z.T, diagonal
included, through the library's `cblas_dsyrk`, on one thread. It is the
call numpy's matmul makes for z @ z.T, so the triangle has numpy's bits;
numpy then copies it onto the lower triangle with a scalar loop, which
`kernels` does once itself. Where numpy would not take that path, or the
arrays are not ones the call can read and write in place, it writes
nothing and returns False, and the caller runs the product through numpy.

The library is looked up on first use, never at import, so importing the
package leaves the thread count alone. It is found only when numpy's
build config names scipy-openblas: the shared object lives in the
wheel's `numpy.libs/` (`numpy/.dylibs/` on macOS) and exports
`scipy_openblas_{get,set}_num_threads64_` and `scipy_cblas_dsyrk64_`,
without the `64_` in a build with 32-bit BLAS integers. With any other
BLAS, or none found, a scope does nothing and `upper_gram` returns False.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

_lock = threading.Lock()
_depth = 0
_saved = 0
# The (get, set) pair once looked up, None when there is none; _UNSEEN
# until the first scope.
_UNSEEN = object()
_library = _UNSEEN
# The library's cblas_dsyrk once looked up, None when there is none;
# _UNSEEN until the first Gram product.
_dsyrk = _UNSEEN
# CblasRowMajor, CblasUpper and CblasNoTrans.
_ROW_MAJOR, _UPPER, _NO_TRANS = 101, 121, 111


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
        if not os.path.isdir(where):
            continue
        for name in sorted(os.listdir(where)):
            if "scipy_openblas" not in name:
                continue
            try:
                return ctypes.CDLL(os.path.join(where, name))
            except OSError:
                continue
    return None


def _find():
    """The bundled library's (get, set) thread-count functions, or None."""
    lib = _shared_object()
    if lib is None:
        return None
    for suffix in ("64_", ""):
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def library():
    """The (get, set) pair a scope acts through, or None; found on first call."""
    global _library
    if _library is _UNSEEN:
        with _lock:
            if _library is _UNSEEN:
                _library = _find()
    return _library


def _find_dsyrk():
    """The bundled library's cblas_dsyrk, typed for its integer width, or None."""
    lib = _shared_object()
    if lib is None:
        return None
    for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
        syrk = getattr(lib, f"scipy_cblas_dsyrk{suffix}", None)
        if syrk is not None:
            syrk.restype = None
            syrk.argtypes = ([ctypes.c_int] * 3 + [integer] * 2
                             + [ctypes.c_double, ctypes.c_void_p, integer,
                                ctypes.c_double, ctypes.c_void_p, integer])
            return syrk
    return None


def dsyrk():
    """The cblas_dsyrk that `upper_gram` calls, or None; found on first call."""
    global _dsyrk
    if _dsyrk is _UNSEEN:
        with _lock:
            if _dsyrk is _UNSEEN:
                _dsyrk = _find_dsyrk()
    return _dsyrk


def _in_place(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned


def upper_gram(z: np.ndarray, out: np.ndarray) -> bool:
    """Write the upper triangle of z @ z.T into out through cblas_dsyrk, on
    one thread, and return True; or write nothing and return False.

    z is an n x d array. numpy's matmul takes its syrk path only when n and
    d both exceed 1: at n = 1 it takes a dot product, at d = 1 an outer
    product. out's lower triangle is left as it was.
    """
    n, d = z.shape
    if (n < 2 or d < 2 or out.shape != (n, n) or not _in_place(z)
            or not _in_place(out) or not out.flags.writeable
            or np.may_share_memory(z, out)):
        return False
    syrk = dsyrk()
    if syrk is None:
        return False
    with one_thread():
        syrk(_ROW_MAJOR, _UPPER, _NO_TRANS, n, d, 1.0, z.ctypes.data, d,
             0.0, out.ctypes.data, n)
    return True


def _enter(lib) -> None:
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = lib[0]()
            lib[1](1)
        _depth += 1


def _leave(lib) -> None:
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            lib[1](_saved)


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
