"""setloss benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/`; exits 2 without a result when that is missing. Set-up (import,
input generation, warm-up) is timed in fresh interpreters, several times
spread over the run, reporting the median, so it includes every first-call
cost. The loop runs
a fixed number of whole cycles (see workloads.py) and every op's output is
checked against reference.json after the loop.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the library's
module attributes (tracing.py), runs the same ops traced and then untraced,
half the seconds each, and prints per-layer metrics per op plus the tracing
overhead. The last
stdout line is one JSON object {correct, attempted, failed, metrics}. The
full result, with provenance, goes to .perfbench/results/, and the spans of
a traced run to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "setloss")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 7
# Keeps a slowed-down program inside the 180 s a run may take: the loop
# stops at the next cycle boundary once this much time has gone by.
MEASURE_CAP_S = 130.0
TAIL_BEYOND = 10

# Objectives whose claimed verdict the seed code's scans contradict. Their
# violations are today's correct output (pinned in reference.json); they
# are printed, not counted as failures.
KNOWN_CLAIM_MISMATCHES = frozenset({"submod-snn"})

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit): span counts and self times per op, then counts and ratios
# taken from the checked outputs, then the tracing overhead.
PER_LAYER = (
    ("kernels.squared_distances.calls", "count"),
    ("kernels.squared_distances.self_ms", "ms"),
    ("kernels.similarity.calls", "count"),
    ("kernels.similarity.self_ms", "ms"),
    ("kernels.similarity_pullback.self_ms", "ms"),
    ("kernels.euclidean_distance.self_ms", "ms"),
    ("losses.total_loss.calls", "count"),
    ("losses.total_loss.self_ms", "ms"),
    ("losses.matrices.calls", "count"),
    ("losses.matrices.self_ms", "ms"),
    ("losses.check_preconditions.self_ms", "ms"),
    ("batch.partition_from_labels.calls", "count"),
    ("batch.partition_from_labels.self_ms", "ms"),
    ("batch.EmbeddingBatch.calls", "count"),
    ("batch.EmbeddingBatch.self_ms", "ms"),
    ("backend.total_value.calls", "count"),
    ("backend.total_value.self_ms", "ms"),
    ("backend.value_table.calls", "count"),
    ("backend.value_table.self_ms", "ms"),
    ("backend.term_value.calls", "count"),
    ("backend.term_value.self_ms", "ms"),
    ("backend.dr_scan.calls", "count"),
    ("backend.dr_scan.self_ms", "ms"),
    ("grads.loss_gradient.calls", "count"),
    ("grads.loss_gradient.self_ms", "ms"),
    ("grads._entry_weights.self_ms", "ms"),
    ("submodcheck.exhaustive_dr_check.calls", "count"),
    ("submodcheck.exhaustive_dr_check.self_ms", "ms"),
    ("submodcheck.draw_batch.calls", "count"),
    ("submodcheck.draw_batch.self_ms", "ms"),
    ("submodcheck.verdict_table.self_ms", "ms"),
    ("submodcheck.draws", "count"),
    ("submodcheck.compared", "count"),
    ("submodcheck.skipped", "count"),
    ("submodcheck.violations", "count"),
    ("submodcheck.compared_frac", "ratio"),
    ("trainer.run_objective.self_ms", "ms"),
    ("trainer.train_stage1.self_ms", "ms"),
    ("trainer.evaluate_stage2.self_ms", "ms"),
    ("trainer.split_batch.self_ms", "ms"),
    ("trainer.steps", "count"),
    ("synthlab.make_imbalanced_dataset.self_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)

# Import, input generation and warm-up up to the first timed op, in a
# fresh interpreter: argv is src, perfbench, workload, seed, cycles.
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "wl = workloads.WORKLOADS[sys.argv[3]]\n"
    "wl.plan(int(sys.argv[4]), int(sys.argv[5]))\n"
    "wl.warm_up()\n"
    "print(time.perf_counter() - t)\n"
)


def import_package():
    """Import setloss from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"perfbench: no setloss sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import setloss

    if os.path.dirname(os.path.abspath(setloss.__file__)) != PACKAGE:
        sys.stderr.write(f"perfbench: imported setloss from {setloss.__file__}, "
                         f"not from {PACKAGE}\n")
        sys.exit(2)


def setup_seconds(wl, seed: int, cycles: int) -> float:
    """Cold set-up time of one fresh interpreter."""
    cmd = [sys.executable, "-c", SETUP_PROBE, SRC, HERE, wl.name, str(seed), str(cycles)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.split()[-1])


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(wl, ops, cap_s, tracer=None, between_cycles=None):
    """Run the ops in order; returns (outputs, latencies, cpu_s).

    Latencies and CPU time cover the ops only; between_cycles(k), when
    given, runs untimed before cycle k. An op that raises yields its
    exception as output. The loop stops early only at a cycle boundary once
    cap_s has passed.
    """
    cycle = len(wl.objectives)
    outputs, latencies = [], []
    cpu = 0.0
    wall0 = time.perf_counter()
    for i, op in enumerate(ops):
        if i % cycle == 0:
            if i and time.perf_counter() - wall0 > cap_s:
                break
            if between_cycles is not None:
                between_cycles(i // cycle)
        if tracer is not None:
            tracer.op = i
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed op is counted, the run goes on
            out = exc
        latencies.append(time.perf_counter() - t0)
        cpu += cpu_seconds() - cpu0
        outputs.append(out)
    return outputs, latencies, cpu


def check(wl, ops, outputs, reference):
    """Summaries of each output and the indices that failed their check."""
    summaries, failed = [], []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            summaries.append({"error": f"{type(out).__name__}: {out}"})
            failed.append(i)
            continue
        got = wl.summary(out)
        summaries.append(got)
        if not wl.matches(got, reference[op.key]):
            failed.append(i)
    return summaries, failed


def tail(latencies):
    """(value, percentile, ops beyond): the highest percentile with at least
    TAIL_BEYOND ops beyond it, or the maximum when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[i], math.floor(100 * (i + 1) / n), n - 1 - i


def claim_mismatches(ops, summaries):
    """{objective: [ops violated, ops scanned, violations]} for claimed-submodular
    objectives whose scans found diminishing-returns violations."""
    from setloss import objectives

    out = {}
    for op, got in zip(ops, summaries):
        if "verdict" not in got or objectives.EXPECTED_PROPERTY[op.label] != "submodular":
            continue
        row = out.setdefault(op.label, [0, 0, 0])
        row[1] += 1
        if got["verdict"] == "violated":
            row[0] += 1
            row[2] += got["violations"]
    return {k: v for k, v in out.items() if v[0]}


def end_to_end(latencies, cpu, setup_s):
    value, pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "ops_per_s": n / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": value * 1e3,
        "cpu_ms_per_op": cpu / n * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": pct, "ops": n, "ops_beyond": beyond}


def per_layer(wl, tracer, n_ops, summaries, traced_ops_per_s, untraced_ops_per_s):
    from tracing import SETUP_OP

    totals = tracer.layer_totals(set(range(n_ops)))
    setup = tracer.layer_totals({SETUP_OP})
    metrics = {}
    for name, _unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = totals[layer][0] / n_ops if layer in totals else 0.0
        elif kind == "self_ms" and layer.startswith("synthlab."):
            metrics[name] = setup[layer][1] / 1e6 if layer in setup else 0.0
        elif kind == "self_ms":
            metrics[name] = totals[layer][1] / 1e6 / n_ops if layer in totals else 0.0

    def total(field):
        return sum(s.get(field, 0) for s in summaries)

    metrics["submodcheck.draws"] = total("trials") / n_ops
    for field in ("compared", "skipped", "violations"):
        metrics[f"submodcheck.{field}"] = total(field) / n_ops
    judged = total("compared") + total("skipped")
    metrics["submodcheck.compared_frac"] = total("compared") / judged if judged else 0.0
    metrics["trainer.steps"] = total("steps") / n_ops
    metrics["trace.ops_per_s"] = traced_ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s
    metrics["trace.overhead_frac"] = untraced_ops_per_s / traced_ops_per_s - 1.0
    return {name: metrics[name] for name, _unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="setloss benchmark: one run of one workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import provenance
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[wl.name]
    # A traced run measures the same ops twice, traced and untraced, so each
    # pass gets half the run's seconds.
    passes = 2 if args.trace else 1
    cycles = wl.cycles_for(args.seconds / passes)
    prov = provenance.collect(ROOT, PACKAGE)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    ops = wl.plan(args.seed, cycles)
    wl.warm_up()

    # The cold set-ups are spread over the cycles of the first pass, so
    # their median samples the host over the whole run, not a few seconds.
    setup_times = []

    def sample_setup(k):
        while len(setup_times) < math.ceil(SETUP_REPEATS * (k + 1) / cycles):
            setup_times.append(setup_seconds(wl, args.seed, cycles))

    outputs, latencies, cpu = measure(wl, ops, MEASURE_CAP_S / passes, tracer, sample_setup)
    sample_setup(cycles - 1)  # the loop may have stopped early
    setup_s = statistics.median(setup_times)
    ops = ops[:len(outputs)]
    summaries, failed = check(wl, ops, outputs, reference)
    attempted = len(ops)
    e2e, tail_info = end_to_end(latencies, cpu, setup_s)

    if tracer:
        tracer.uninstall()
        traced_ops_per_s = e2e["ops_per_s"]
        outputs2, latencies2, _ = measure(wl, ops, MEASURE_CAP_S / passes)
        ops2 = ops[:len(outputs2)]
        _, failed2 = check(wl, ops2, outputs2, reference)
        attempted += len(ops2)
        failed += failed2
        untraced_ops_per_s = len(latencies2) / sum(latencies2)
        metrics = per_layer(wl, tracer, len(ops), summaries, traced_ops_per_s,
                            untraced_ops_per_s)
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)

    mismatches = claim_mismatches(ops, summaries)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "traces", f"{wl.name}-seed{args.seed}.jsonl.gz"))
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "ops": len(ops),
        "attempted": attempted, "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "end_to_end": e2e, "tail": tail_info,
        "setup_s": setup_times,
        "latencies_ms": [x * 1e3 for x in latencies],
        "failures": [ops[i].key for i in failed[:20]],
        "claim_mismatches": mismatches,
        "provenance": prov,
    }
    with open(os.path.join(OUT_DIR, "results", stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops ({cycles} cycles of {len(wl.objectives)}), closed loop, 1 caller")
    env = " ".join(f"{k}={v}" for k, v in prov["env"].items() if v is not None) or "none set"
    print(f"provenance: backend={prov['backend']} numpy={prov['numpy']} "
          f"blas={prov['blas'].get('name')} {prov['blas'].get('version')} "
          f"nproc={prov['nproc']} python={prov['python']} "
          f"commit={prov['commit']} src={prov['src_sha256'][:12]} thread env: {env}")
    for name, value in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = (f"  (p{tail_info['percentile']}: {tail_info['ops_beyond']} "
                     f"of {tail_info['ops']} ops beyond)")
        print(f"  {name:<44} {value:.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<44} {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} of {attempted} ops)")
    for name, (bad, scanned, count) in sorted(mismatches.items()):
        tag = "known claim mismatch" if name in KNOWN_CLAIM_MISMATCHES else "CLAIM MISMATCH"
        print(f"  {tag}: {name} is claimed submodular; {bad} of {scanned} scans "
              f"found {count} diminishing-returns violations")
    for key in result["failures"]:
        print(f"  FAILED op {key}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
