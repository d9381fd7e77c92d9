"""The benchmark workloads.

Each workload is a closed loop over a fixed cycle of ops: one caller, and
the next op starts when the previous one returns. Inputs come from a pool
of indices; the workload seed picks the pool offset, and cycle k of a run
uses pool entry (offset + k) mod pool, so a run never repeats an input
before it has used `pool` of them. Every pool entry has a committed
reference output (reference.json, made by make_reference.py from the seed
code), and each op's output is checked against it.

The op count is fixed by the run length: whole cycles only, as many as
the nominal cycle time (seed code, 2-core x86 host) fits into the
requested seconds. A fixed count keeps the objective mix exact and lets
per-layer call counts repeat exactly between runs with the same seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from setloss import losses, objectives, submodcheck, synthlab, trainer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# The criterion-5 dataset and training settings. Only the dataset and
# training seeds, the step count and the objective differ, one seed per pool
# entry.
with open(os.path.join(os.path.dirname(HERE), "tests", "fixtures",
                       "imbalance_reference.json")) as _fh:
    CRITERION_5 = json.load(_fh)["config"]
TRAIN_STEPS = 5
TRAIN_OBJECTIVES = ("fl", "gc-cf", "supcon")
LOSS_REL_TOL = 1e-12

VERDICT_N = 6
VERDICT_DRAWS = 200
VERDICT_MAX_DRAWS = 1000


@dataclass
class Op:
    label: str       # objective name
    key: str         # reference key: "<pool index>/<objective>"
    args: tuple


class Workload:
    name = ""
    objectives: tuple = ()
    pool = 1
    nominal_cycle_s = 1.0

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_cycle_s))

    def plan(self, seed: int, cycles: int) -> list[Op]:
        """Generate every op's inputs; this is the input-generation part of set-up."""
        ops = []
        offset = seed % self.pool
        for p in ((offset + k) % self.pool for k in range(cycles)):
            inputs = self.pool_inputs(p)
            for name in self.objectives:
                ops.append(Op(name, f"{p}/{name}", self.op_args(inputs, name)))
        return ops

    def pool_inputs(self, p: int):
        return p

    def op_args(self, inputs, name: str) -> tuple:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def summary(self, output) -> dict:
        """The output fields the reference pins."""
        raise NotImplementedError

    def matches(self, got: dict, want: dict) -> bool:
        return got == want

    def warm_up(self) -> None:
        """Reduced-size calls of every op kind, so lazy first-call costs land in set-up."""
        raise NotImplementedError


def train_data(p: int):
    ds = CRITERION_5["dataset"]
    return synthlab.make_imbalanced_dataset(
        ds["kind"], ds["classes"], ds["dim"], ds["base_count"], ds["decay"],
        ds["spread"], p, ds["separation"],
    )


def train_config(name: str, p: int, steps: int = TRAIN_STEPS) -> trainer.TrainConfig:
    tr = CRITERION_5["train"]
    return trainer.TrainConfig(
        loss=losses.LossConfig(name, 1.0, 0.2, tr["kernel"], tr["bandwidth"]),
        lr=tr["lr"], steps=steps, batch_size=tr["batch_size"], seed=p,
        eval_split=tr["eval_split"], out_dim=tr["out_dim"], normalize=tr["normalize"],
    )


class TrainImbalance(Workload):
    name = "train-imbalance"
    objectives = TRAIN_OBJECTIVES
    pool = 72
    nominal_cycle_s = 0.75

    def pool_inputs(self, p):
        return p, train_data(p)

    def op_args(self, inputs, name):
        p, data = inputs
        return data, train_config(name, p)

    def run(self, op):
        return trainer.run_objective(*op.args)

    def summary(self, rep):
        return {
            "accuracy": rep.accuracy,
            "per_class_recall": [float(v) for v in rep.per_class_recall],
            "intra_class_variance": rep.intra_class_variance,
            "inter_class_separation": rep.inter_class_separation,
            "final_loss": float(rep.loss_curve[-1]),
            "steps": len(rep.loss_curve) - 1,
        }

    def matches(self, got, want):
        # Counts and count-derived metrics exactly; the loss value passes
        # through the selectable backend, so it gets an ulp-level allowance.
        exact = [k for k in want if k != "final_loss"]
        if any(got[k] != want[k] for k in exact):
            return False
        ref = want["final_loss"]
        return abs(got["final_loss"] - ref) <= LOSS_REL_TOL * abs(ref)

    def warm_up(self):
        data = train_data(0)
        for name in self.objectives:
            trainer.run_objective(data, train_config(name, 0, steps=1))


class VerdictN6(Workload):
    name = "verdict-n6"
    objectives = objectives.OBJECTIVES
    pool = 16
    # One full table takes 4.2-6.4 s on the seed code (2-core x86 host).
    # 4.5 s gives 10 cycles at the 45 s run length, so the ten ops beyond
    # op_ms_tail are mostly the ten submod-snn rows and the tail follows the
    # slowest objective. With 7 cycles it fell among a few submod-supcon
    # rows and moved with whichever of them a host-speed swing slowed.
    nominal_cycle_s = 4.5

    def op_args(self, p, name):
        return name, p

    def run(self, op):
        name, table_seed = op.args
        return submodcheck.verdict_table([name], n=VERDICT_N, draws=VERDICT_DRAWS,
                                         max_draws=VERDICT_MAX_DRAWS,
                                         seed=table_seed)[0]

    def summary(self, res):
        return {"verdict": res.verdict, "trials": res.trials,
                "violations": res.violation_count, "compared": res.compared,
                "skipped": res.skipped}

    def warm_up(self):
        submodcheck.verdict_table(self.objectives, n=4, draws=2, max_draws=2, seed=0)


WORKLOADS = {w.name: w for w in (TrainImbalance(), VerdictN6())}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
