"""Time the compiled core against the numpy reference.

Runs the three hot paths the backends exist for: full subset-lattice tables
and the diminishing-returns scan over each table (the submodularity
checker's inner loops), and batched per-class totals (the loss evaluator's
inner loop). Prints one row per objective with both timings and the speedup
for each. Without the compiled core the pure timings are still printed and
the compiled columns read "not built".

Usage: python3 benchmarks/backend_bench.py [--n 10] [--repeat 3]
"""

import argparse
import time

import numpy as np

from setloss import objectives
from setloss._backend import pure
from setloss.sampling import Rng

try:
    from setloss._backend import fastcore
except ImportError:
    fastcore = None


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

    if fastcore is None:
        print("compiled core not built; fast columns read 'not built'")
    print(f"value_table and dr_scan n={args.n} ({1 << args.n} subsets); "
          f"total_value n={args.batch}, 4 classes; best of {args.repeat}")
    print(f"{'objective':<16} {'table pure':>11} {'table fast':>11} {'speedup':>8} "
          f"{'scan pure':>11} {'scan fast':>11} {'speedup':>8} "
          f"{'total pure':>11} {'total fast':>11} {'speedup':>8}")
    not_built = f"{'not built':>11} {'':>8}"
    for name in objectives.OBJECTIVES:
        code = objectives.OBJ_CODE[name]
        table = pure.value_table(code, s, d, 1.0, 0.2)
        tp = best_of(args.repeat, lambda: pure.value_table(code, s, d, 1.0, 0.2))
        sp = best_of(args.repeat, lambda: pure.dr_scan(table, args.n, 1e-9, False))
        vp = best_of(args.repeat, lambda: pure.total_value(code, sb, db, sets, 1.0, 0.2))
        if fastcore is None:
            fast_table = fast_scan = fast_total = not_built
        else:
            tf = best_of(args.repeat, lambda: fastcore.value_table(code, s, d, 1.0, 0.2))
            sf = best_of(args.repeat,
                         lambda: fastcore.dr_scan(table, args.n, 1e-9, False))
            vf = best_of(args.repeat,
                         lambda: fastcore.total_value(code, sb, db, sets, 1.0, 0.2))
            fast_table = f"{tf * 1e3:>9.2f}ms {tp / tf:>7.1f}x"
            fast_scan = f"{sf * 1e3:>9.2f}ms {sp / sf:>7.1f}x"
            fast_total = f"{vf * 1e6:>9.1f}us {vp / vf:>7.1f}x"
        print(f"{name:<16} {tp * 1e3:>9.2f}ms {fast_table} "
              f"{sp * 1e3:>9.2f}ms {fast_scan} "
              f"{vp * 1e6:>9.1f}us {fast_total}".rstrip())


if __name__ == "__main__":
    main()
