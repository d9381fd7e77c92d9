"""Print one sha256 per family of the library's outputs, so that two trees
(or two hosts) can be compared for byte-identical results.

    PYTHONPATH=src python3 tools/bits_digest.py

Takes no flags. Each line is `<sha256>  <family>` (or
`<sha256>  tables/<objective>`):

    verdicts     the verdict CSV of `submodcheck.verdict_table` for seeds
                 0-39, the CLI's counterexample line for each violated row,
                 and each row's compared and skipped counts and first 50
                 violations;
    consistency  every field of `submodcheck.consistency_scan` for every
                 objective at n = 3..8 (seed 0, 200 draws);
    consistency-large
                 every field of `submodcheck.consistency_scan` for every
                 objective at n = 9, 10, 11 and 12 (60, 30, 12 and 6 draws,
                 seed n) under `CONSISTENCY_CONFIG` and then under
                 `COUNTEREXAMPLE_CONFIG`;
    gradients    the total, the per-class values and the gradient bytes of
                 `losses.evaluate` and `grads.evaluation_gradient` for every
                 objective under every kernel, on `grads.check_batch(n, 8,
                 seed)` for seeds 0-3 and n in {12, 40}, at lam 1 and 1.7;
                 a call that raises the package's error hashes its type and
                 message instead;
    tables       the bytes of `backend.value_table` for every objective
                 under every kernel, at lam 1 and 1.7, over a stack of 16
                 seed-0 draws at n = 6 (`submodcheck.draw_stack`), NaN and
                 signed zeros included; a `tables/<objective>` line after it
                 hashes that objective's part alone, so a change shows which
                 records' tables moved.

Floats are hashed by their bytes or their repr, so a last-bit change moves
its family's line. The run takes about 8 s on a 2-core x86 VM. To compare
with a saved run, diff the two outputs; diff prints the lines that differ
and exits 1 if any does:

    diff <(PYTHONPATH=src python3 tools/bits_digest.py) saved.txt
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple

import numpy as np

from setloss import grads, kernels, losses, objectives, submodcheck
from setloss._backend import backend
from setloss.errors import SetLossError
from setloss.sampling import Rng


def _verdicts(h) -> None:
    for seed in range(40):
        results = submodcheck.verdict_table(seed=seed)
        h.update(submodcheck.VERDICT_HEADER.encode())
        for res in results:
            h.update(f"\n{res.csv_row()}\n{res.compared} {res.skipped}\n".encode())
            if res.verdict == "violated" and res.violations:
                a, b, x, ga, gb = res.violations[0]
                h.update(f"counterexample: {res.objective}: A={a} B={b} x={x} "
                         f"gain_A={ga!r} gain_B={gb!r}\n".encode())
            h.update(repr(res.violations[:50]).encode())


def _consistency(h) -> None:
    for name in objectives.OBJECTIVES:
        for n in range(3, 9):
            h.update(repr(astuple(submodcheck.consistency_scan(name, n))).encode())


def _consistency_large(h) -> None:
    for config in (submodcheck.CONSISTENCY_CONFIG, submodcheck.COUNTEREXAMPLE_CONFIG):
        for name in objectives.OBJECTIVES:
            for n, draws in ((9, 60), (10, 30), (11, 12), (12, 6)):
                res = submodcheck.consistency_scan(name, n, draws, seed=n, config=config)
                h.update(repr(astuple(res)).encode())


def _gradients(h) -> None:
    for name in objectives.OBJECTIVES:
        for kind in kernels.SIMILARITY_KINDS:
            for lam in (1.0, 1.7):
                config = losses.LossConfig(name, lam=lam, kernel=kind)
                for seed in range(4):
                    for n in (12, 40):
                        h.update(f"{name} {kind} {lam!r} {seed} {n}\n".encode())
                        try:
                            ev = losses.evaluate(grads.check_batch(n, 8, seed), config)
                            h.update(np.float64(ev.result.total).tobytes())
                            h.update(ev.result.per_class.tobytes())
                            h.update(grads.evaluation_gradient(ev).tobytes())
                        except SetLossError as exc:
                            h.update(f"{type(exc).__name__}: {exc}".encode())


def _tables(h) -> dict:
    """Feed h, and return each objective's digest of its own part."""
    z = submodcheck.draw_stack(Rng(0), 0, 16, 6)
    parts = {}
    for name in objectives.OBJECTIVES:
        part = hashlib.sha256()

        def both(data: bytes) -> None:
            h.update(data)
            part.update(data)

        for kind in kernels.SIMILARITY_KINDS:
            for lam in (1.0, 1.7):
                config = losses.LossConfig(name, lam=lam, kernel=kind)
                both(f"{name} {kind} {lam!r}\n".encode())
                with np.errstate(all="ignore"):
                    try:
                        s, d = losses.matrices(z, config)
                        table = backend.value_table(objectives.get(name), s, d,
                                                    lam, config.margin)
                        both(table.tobytes())
                    except SetLossError as exc:
                        both(f"{type(exc).__name__}: {exc}".encode())
        parts[name] = part.hexdigest()
    return parts


FAMILIES = (("verdicts", _verdicts), ("consistency", _consistency),
            ("consistency-large", _consistency_large), ("gradients", _gradients),
            ("tables", _tables))


def main() -> int:
    for family, feed in FAMILIES:
        h = hashlib.sha256()
        parts = feed(h) or {}
        print(f"{h.hexdigest()}  {family}", flush=True)
        for name, digest in parts.items():
            print(f"{digest}  {family}/{name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
