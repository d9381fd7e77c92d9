"""The committed timing script still runs against the current core.

Nothing else imports `benchmarks/backend_bench.py`, so a signature change in
`setloss._backend.pure` would otherwise break it silently. The script runs as
a subprocess on a tiny lattice, without writing bytecode into the tree.
"""

import os
import subprocess
import sys

from setloss.objectives import OBJECTIVES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_backend_bench_prints_one_row_per_objective():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "backend_bench.py"),
         "--n", "4", "--batch", "12", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(OBJECTIVES)
