"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 0-9 [--seconds 20]
                                [--trace 0] [--out FILE.json]

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, and checks
it against the bound in BENCHMARK.json. --out merges the summary, keyed
by workload, into FILE.json with the provenance of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, failed = {}, 0
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        failed += last["failed"]
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}"
                                          for k, m in last["metrics"].items()), flush=True)

    summary = {}
    ok = failed == 0
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound
                                                        else "TOO WIDE")
            ok = ok and spread <= bound
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": xs}
        print(f"  {name:<44} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}  {verdict}")
    print(f"failed ops: {failed}")

    if args.out:
        try:
            with open(args.out) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        result = os.path.join(ROOT, ".perfbench", "results",
                              f"{args.workload}-seed{seed}-trace{args.trace}.json")
        with open(result) as fh:
            prov = json.load(fh)["provenance"]
        doc[args.workload] = {"seeds": args.seeds, "seconds": seconds,
                              "trace": args.trace, "failed": failed,
                              "metrics": summary, "provenance": prov}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
