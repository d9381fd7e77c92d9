"""Time the numpy computation core on its three hot paths.

Full subset-lattice tables and the diminishing-returns scan over each table
(the submodularity checker's inner loops), and batched per-class totals (the
loss evaluator's inner loop). Prints one row per objective, best of
--repeat runs each.

Usage: python3 benchmarks/backend_bench.py [--n 10] [--repeat 3]
"""

import argparse
import time

import numpy as np

from setloss import objectives
from setloss._backend import pure
from setloss.sampling import Rng


def instance(n, seed=0):
    rng = Rng(seed)
    v = rng.normals((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = v @ v.T
    d = np.sqrt(np.maximum(2.0 - 2.0 * s, 0.0))
    np.fill_diagonal(d, 0.0)
    return s, d


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10, help="lattice ground-set size")
    ap.add_argument("--batch", type=int, default=96, help="total-value batch size")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    s, d = instance(args.n)
    sb, db = instance(args.batch, seed=1)
    sets = [np.arange(k, args.batch, 4) for k in range(4)]

    print(f"value_table and dr_scan n={args.n} ({1 << args.n} subsets); "
          f"total_value n={args.batch}, 4 classes; best of {args.repeat}")
    print(f"{'objective':<16} {'table':>11} {'scan':>11} {'total':>11}")
    for obj in objectives.REGISTRY:
        table = pure.value_table(obj, s, d, 1.0, 0.2)
        tp = best_of(args.repeat, lambda: pure.value_table(obj, s, d, 1.0, 0.2))
        sp = best_of(args.repeat, lambda: pure.dr_scan(table, args.n, 1e-9, False))
        vp = best_of(args.repeat, lambda: pure.total_value(obj, sb, db, sets, 1.0, 0.2))
        print(f"{obj.name:<16} {tp * 1e3:>9.2f}ms {sp * 1e3:>9.2f}ms {vp * 1e6:>9.1f}us")


if __name__ == "__main__":
    main()
