"""Compare two benchmark results, refusing ones that are not comparable.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the full results run.py writes to .perfbench/results/.
Results from different backends, workloads or trace modes are refused
with exit code 3: a pure-numpy figure against a compiled-core one says
nothing about a change.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = (("provenance", "backend"), ("workload",), ("trace",))


def field(result: dict, path: tuple):
    for key in path:
        result = result.get(key) if isinstance(result, dict) else None
    return result


def refusal(base: dict, new: dict) -> str | None:
    for path in MUST_MATCH:
        a, b = field(base, path), field(new, path)
        if a is None or a != b:
            return f"{'.'.join(path)} differs or is missing: {a!r} vs {b!r}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    why = refusal(base, new)
    if why:
        print(f"refusing to compare: {why}")
        return 3
    print(f"{base['workload']} on backend {base['provenance']['backend']}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"  {name:<44} missing in {argv[1]}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"  {name:<44} {b['value']:.6g} -> {n['value']:.6g} {b['unit']}"
              f"  (x{ratio:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
