"""Self-test of the benchmark itself (under a minute on 2 cores).

    python3 perfbench/selftest.py

Checks, on tiny runs of every workload:
  * the last stdout line's keys, and metric names and units against
    BENCHMARK.json, for --trace 0 and --trace 1;
  * per-layer `calls` counts that repeat exactly across two traced runs;
  * a corrupted output counting as failed, for every workload;
  * compare.py refusing results from different backends;
  * a copy holding only BENCHMARK.json and perfbench/ exiting non-zero
    without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def fail(msg: str):
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench_run(workload: str, trace: int, cwd: str = ROOT, seed: int = 0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    if proc.returncode != 0:
        fail(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(result: dict, spec: list, what: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want)) or 'units differ'}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        fail(f"{what}: non-numeric metric value")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")


def test_runs(bench: dict, workloads):
    for name in workloads:
        check_shape(last_json(bench_run(name, 0)), bench["end_to_end"], f"{name} trace 0")
        first = last_json(bench_run(name, 1))
        check_shape(first, bench["per_layer"], f"{name} trace 1")
        second = last_json(bench_run(name, 1))
        calls = [k for k in first["metrics"] if k.endswith(".calls")]
        moved = [k for k in calls
                 if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        if moved:
            fail(f"{name}: calls counts differ between two traced runs: {moved}")
        print(f"ok  {name}: metric names and units; {len(calls)} calls counts repeat",
              flush=True)


def corrupt(output) -> None:
    """Nudge one checked field of a TrainReport or LatticeCheckResult."""
    if hasattr(output, "loss_curve"):
        output.loss_curve[-1] *= 1.0 + 1e-9
    else:
        output.compared += 1


def test_corruption(workloads):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import run
    import workloads as wls

    reference = wls.load_reference()
    for name in workloads:
        wl = wls.WORKLOADS[name]
        ops = wl.plan(0, 1)[:2]
        outputs, _, _ = run.measure(wl, ops, run.MEASURE_CAP_S)
        _, clean = run.check(wl, ops, outputs, reference[name])
        corrupt(outputs[1])
        _, dirty = run.check(wl, ops, outputs, reference[name])
        if clean or dirty != [1]:
            fail(f"{name}: clean failures {clean}, corrupted failures {dirty}")
        print(f"ok  {name}: corrupted output counted, failed_frac 0 -> "
              f"{len(dirty) / len(ops)}", flush=True)


def test_compare_refuses():
    src = os.path.join(ROOT, ".perfbench", "results", "verdict-n6-seed0-trace0.json")
    with open(src) as fh:
        base = json.load(fh)
    other = copy.deepcopy(base)
    other["provenance"]["backend"] = "fastcore" if base["provenance"]["backend"] != "fastcore" \
        else "pure"
    paths = []
    for i, doc in enumerate((base, other)):
        paths.append(os.path.join(SCRATCH, f"result{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    cmd = [sys.executable, os.path.join(HERE, "compare.py")]
    same = subprocess.run(cmd + [paths[0], paths[0]], capture_output=True, text=True)
    diff = subprocess.run(cmd + paths, capture_output=True, text=True)
    if same.returncode != 0 or diff.returncode != 3:
        fail(f"compare.py exits {same.returncode} on equal backends, "
             f"{diff.returncode} on different ones")
    print("ok  compare.py refuses results from different backends", flush=True)


def test_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("verdict-n6", 0, cwd=bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"run without sources exited {proc.returncode}, stdout {lines[-1:]}")
    shutil.rmtree(bare)
    print(f"ok  without sources: exit {proc.returncode}, no result", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    os.makedirs(SCRATCH, exist_ok=True)
    test_runs(bench, names)
    test_corruption(names)
    test_compare_refuses()
    test_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
