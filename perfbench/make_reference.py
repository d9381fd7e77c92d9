"""Write reference.json: the checked output fields of every pool entry.

The committed file was made from the seed code on the pure backend. Run it
again only when a change is meant to alter outputs, and say so in the
change log:

    python3 perfbench/make_reference.py [--workload NAME ...]

Workloads not named keep their existing entries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import provenance  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    try:
        ref = workloads.load_reference()
    except FileNotFoundError:
        ref = {}
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        entries = {}
        for op in wl.plan(0, wl.pool):
            entries[op.key] = wl.summary(wl.run(op))
        ref[name] = entries
        print(f"{name}: {len(entries)} entries", flush=True)
    meta = provenance.collect(ROOT, os.path.join(SRC, "setloss"))
    ref["_meta"] = {k: meta[k] for k in ("backend", "numpy", "python", "src_sha256")}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
