"""What a result ran on: backend, thread settings, BLAS build, host and source."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

THREAD_VARS = ("SCORE_KIT_BACKEND", "SCORE_KIT_THREADS", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest(src_dir: str) -> str:
    """sha256 over the package's source and extension files, in path order."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if not fname.endswith((".py", ".pyx", ".so")):
                continue
            path = os.path.join(base, fname)
            h.update(os.path.relpath(path, src_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_build() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def collect(root: str, src_dir: str) -> dict:
    import numpy as np

    from setloss._backend import backend_name

    return {
        "backend": backend_name(),
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": git_commit(root),
        "src_sha256": source_digest(src_dir),
        "argv": sys.argv[1:],
    }
