"""Spans around calls into the library's modules, recorded from outside.

The library calls its collaborators through module attributes
(`kernels.similarity`, `losses.matrices`, `backend.term_value`) or module
globals, so replacing those attributes with timing wrappers catches every
call without a source edit. A name imported into several modules
(`partition_from_labels`) is wrapped in each of them under one span name;
`EmbeddingBatch` is counted by wrapping its `__init__`.

Spans are kept in memory as (name, start_ns, end_ns, parent, op) and written
out when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict

SETUP_OP = -1


def targets():
    """(owner, attribute, span name) for every wrapped call site."""
    from setloss import batch, grads, kernels, losses, submodcheck, synthlab, trainer
    from setloss._backend import backend

    out = []
    for fn in ("squared_distances", "similarity", "euclidean_distance",
               "similarity_pullback"):
        out.append((kernels, fn, f"kernels.{fn}"))
    for fn in ("total_loss", "matrices", "check_preconditions"):
        out.append((losses, fn, f"losses.{fn}"))
    for owner in (batch, losses, grads):
        out.append((owner, "partition_from_labels", "batch.partition_from_labels"))
    out.append((batch.EmbeddingBatch, "__init__", "batch.EmbeddingBatch"))
    for fn in ("total_value", "value_table", "term_value", "dr_scan"):
        out.append((backend, fn, f"backend.{fn}"))
    for fn in ("loss_gradient", "_entry_weights"):
        out.append((grads, fn, f"grads.{fn}"))
    for fn in ("exhaustive_dr_check", "draw_batch", "verdict_table"):
        out.append((submodcheck, fn, f"submodcheck.{fn}"))
    for fn in ("run_objective", "split_batch", "train_stage1", "evaluate_stage2"):
        out.append((trainer, fn, f"trainer.{fn}"))
    out.append((synthlab, "make_imbalanced_dataset", "synthlab.make_imbalanced_dataset"))
    return out


class Tracer:
    # Span stacks are per thread and span ids are taken under a lock, because
    # submodcheck scans draws on a thread pool when SCORE_KIT_THREADS > 1.

    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)

        return traced

    def install(self) -> None:
        for owner, attr, name in targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_totals(self, ops: set[int]):
        """{span name: [calls, self_ns]} over spans whose op is in `ops`."""
        child_ns = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = defaultdict(lambda: [0, 0])
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            t = totals[name]
            t[0] += 1
            t[1] += end - start - child_ns[sid]
        return totals

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}))
                fh.write("\n")
