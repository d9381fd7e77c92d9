"""Exhaustive submodularity testing for the objective zoo.

Every objective becomes a set function by evaluating its per-class term on
an arbitrary subset A of the batch, with the batch's labels ignored and
f(empty) = 0. One exhaustive scan over the subset lattice then judges it
in the diminishing-returns form, f(x|A) >= f(x|B) for all A <= B <= V \\ {x}.

Conventions the scan relies on:
  * Comparisons with A empty are left out by default. The formulas give
    the empty set no boundary semantics, and several objectives that are
    well-behaved everywhere else fail a naive f(empty) = 0 reading (the
    facility-location loss among them); `include_empty` restores those
    triples for auditing.
  * Subsets where a term leaves its domain (log of a nonpositive number,
    an empty complement's log-sum-exp) produce non-finite gains; such
    comparisons are tallied as skipped, never judged.
  * A scan that would compare nothing (n < 3, or n < 2 with the empty
    set included, or no draws) raises ValidationError: a "consistent"
    verdict would rest on no evidence.

A multi-draw scan does not build one batch per draw. It draws a stack of
seeded batches in one call (`draw_stack`, bit for bit the batches
`draw_batch` gives one at a time), builds their kernels as one (k, n, n)
stack, their value tables as one (k, 2^n) array and DR-scans them in one
backend call, about 60 draws at a time at n = 6
(`backend.tables_per_block`). It then totals the per-draw tallies in draw
order and keeps the first violating draw's violations, so every result is
the one a draw-by-draw scan gives; `exhaustive_dr_check` is the same engine
on a stack of one.

Two search flows feed the verdict table, routed by what the paper claims
(each `objectives` record's claim), not by what has since been proved.
Claimed-submodular objectives, "refuted" ones included, run a consistency
scan over RBF kernels of random unit embeddings, the regime where the
graph-cut and coverage arguments behind those claims hold (nonnegative
similarities, positive log arguments); every draw is scanned in full and
every violation counted. One claimed objective does reliably produce them:
the soft-nearest-neighbor variant built on distance log-sum-exps fails
diminishing returns on essentially every draw, because its anchor sum
sum_{i in A} log sum_{j in A\\{i}} e^{D_ij} grows with the set it scores;
its column value is "refuted", and the module tests derive a closed-form
counterexample on orthonormal rows. Claimed-non-submodular objectives run a
counterexample search under the cosine kernel, where all three find
violating batches immediately; the plain soft-nearest-neighbor loss needs
the negative similarities cosine provides and stays consistent under RBF
draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, objectives
from ._backend import backend
from .batch import EmbeddingBatch
from .errors import GroundSetTooLarge, SetLossError, ValidationError, check_integers
from .sampling import Rng

ENUMERATION_BOUND = 12
DEFAULT_TOLERANCE = 1e-9
DRAW_DIM = 4
MAX_STORED = 1000  # violations a result keeps, from its first violating draw

CONSISTENCY_CONFIG = losses.LossConfig(kernel="rbf", bandwidth=1.0)
COUNTEREXAMPLE_CONFIG = losses.LossConfig(kernel="cosine")


@dataclass
class LatticeCheckResult:
    """Outcome of one scan (or one multi-draw search) for one objective."""

    objective: str
    n: int
    trials: int
    violations: list = field(default_factory=list)
    violation_count: int = 0
    min_margin: float = float("inf")
    compared: int = 0
    skipped: int = 0

    @property
    def verdict(self) -> str:
        return "violated" if self.violation_count else "submodular-consistent"

    def csv_row(self) -> str:
        return (f"{self.objective},{self.n},{self.trials},"
                f"{self.violation_count},{self.min_margin!r},{self.verdict}")


def as_set_function(objective: str, batch: EmbeddingBatch,
                    config: losses.LossConfig):
    """A |-> L(theta, A) with the batch fixed and classes ignored.

    A must be a set of distinct integers in range(n); anything else raises
    ValidationError.
    """
    cfg = replace(config, objective=objective)
    s, d = losses.matrices(batch, cfg)
    obj = objectives.get(objective)
    whole = obj.whole_value(s, cfg.lam)

    def evaluate(a) -> float:
        try:
            members = sorted(map(operator.index, a))
        except TypeError:
            members = None
        if (members is None or len(set(members)) < len(members)
                or members and not 0 <= members[0] <= members[-1] < batch.n):
            raise ValidationError(
                f"a set of distinct integers in range({batch.n}) is needed, got {a!r}")
        return backend.term_value(obj, s, d, np.asarray(members, dtype=np.intp),
                                  cfg.lam, cfg.margin, whole)

    return evaluate


def _bits_to_tuple(bits: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if bits >> i & 1)


def _check_tolerance(tolerance: float) -> None:
    """A NaN tolerance would pass every margin, a negative one flag ties.
    `grads.grad_check` refuses its tolerance with this same check."""
    if not 0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")


def _check_size(n: int) -> None:
    if n > ENUMERATION_BOUND:
        raise GroundSetTooLarge(n, ENUMERATION_BOUND)


def _table(objective: str, z: np.ndarray, config: losses.LossConfig) -> np.ndarray:
    """The value table of (n, dim) embeddings, or the (k, 2^n) tables of a
    (k, n, dim) stack of them."""
    _check_size(z.shape[-2])
    cfg = replace(config, objective=objective)
    s, d = losses.matrices(z, cfg)
    return backend.value_table(objectives.get(objective), s, d, cfg.lam, cfg.margin)


def _scan_stack(objective: str, z: np.ndarray, config: losses.LossConfig,
                tolerance: float, include_empty: bool, max_stored: int = MAX_STORED):
    """One `backend.dr_scan` of the value tables of a (k, n, dim) stack of
    embeddings: (min_margin, compared, skipped, count) arrays over the k
    draws, and the first violating draw's violations, their sets still as
    bitmasks.

    Every draw meets the same comparisons, so a first draw that compared
    and skipped nothing means the scan's index is empty: a verdict would
    rest on no evidence, and the scan is refused instead.
    """
    n = z.shape[-2]
    *tallies, viols = backend.dr_scan(_table(objective, z, config), n, tolerance,
                                      include_empty, max_stored)
    if tallies[1][0] + tallies[2][0] == 0:
        raise ValidationError(
            f"no triple to compare at n = {n}: the scan needs n >= 3, "
            f"or n >= 2 when it includes the empty set")
    return tallies, viols


def exhaustive_dr_check(objective: str, batch: EmbeddingBatch,
                        config: losses.LossConfig,
                        tolerance: float = DEFAULT_TOLERANCE,
                        include_empty: bool = False) -> LatticeCheckResult:
    """Scan every diminishing-returns triple of the batch's subset lattice."""
    _check_tolerance(tolerance)
    tallies, viols = _scan_stack(objective, batch.vectors[None], config,
                                 tolerance, include_empty)
    return _merge(objective, batch.n, [tallies], viols)


def _normalized(z: np.ndarray) -> np.ndarray:
    z /= np.maximum(np.linalg.norm(z, axis=-1, keepdims=True), 1e-300)
    return z


def draw_batch(rng: Rng, n: int, dim: int = DRAW_DIM) -> EmbeddingBatch:
    """Unit-normalized Gaussian embeddings; labels are a placeholder."""
    return EmbeddingBatch(_normalized(rng.normals((n, dim))),
                          np.zeros(n, dtype=np.int64))


def draw_stack(rng: Rng, start: int, stop: int, n: int,
               dim: int = DRAW_DIM) -> np.ndarray:
    """The vectors of `draw_batch(rng.derive(i), n, dim)` for i = start..stop-1,
    stacked on a leading axis, bit for bit."""
    return _normalized(rng.derived_normals(start, stop, (n, dim)))


def _scan_draws(objective: str, config: losses.LossConfig, n: int,
                draws: int, seed: int, tolerance: float,
                stop_early: bool) -> LatticeCheckResult:
    """DR-scan `draws` seeded batches in order, or up to the first violating
    one when stopping early, and merge them.

    Draws are scanned as stacks of `backend.tables_per_block(n)`; when
    stopping early the stacks start at one draw and double, so a search that
    stops at draw i scans fewer than 2(i + 1) draws. A stack that raises is
    scanned again one draw at a time, as a serial scan meets its draws: the
    first draw's error surfaces, and none from a draw after the stop.
    """
    _check_tolerance(tolerance)
    check_integers(n=n, draws=draws)
    _check_size(n)
    if draws < 1:
        raise ValidationError(f"a scan needs at least one draw, got {draws}")
    rng = Rng(seed)
    cap = backend.tables_per_block(n)
    size = 1 if stop_early else cap
    parts, viols = [], []
    start = single_until = 0
    while start < draws:
        stop = min(start + (1 if start < single_until else size), draws)
        try:
            tallies, found = _scan_stack(
                objective, draw_stack(rng, start, stop, n), config,
                tolerance, False, 0 if viols else MAX_STORED)
        except SetLossError:
            if stop - start == 1:
                raise
            single_until = stop
            continue
        viols = viols or found
        count = tallies[3]
        if stop_early and count.any():
            cut = int(np.argmax(count > 0)) + 1
            parts.append([t[:cut] for t in tallies])
            break
        parts.append(tallies)
        start = stop
        if stop_early:
            size = min(2 * size, cap)
    return _merge(objective, n, parts, viols)


def _merge(objective: str, n: int, blocks, violations) -> LatticeCheckResult:
    """Sum the draws' tallies and decode the first violating draw's list.

    blocks holds, for each stack of draws in order, its (min_margin,
    compared, skipped, count) arrays. The smallest min_margin is the first
    draw's to reach it, so a zero minimum keeps the sign a draw-by-draw scan
    met first.
    """
    out = LatticeCheckResult(objective, n, 0)
    for mm, compared, skipped, count in blocks:
        out.trials += len(count)
        out.violation_count += int(np.sum(count))
        low = float(mm[np.argmin(mm)])
        if low < out.min_margin:
            out.min_margin = low
        out.compared += int(np.sum(compared))
        out.skipped += int(np.sum(skipped))
    out.violations = [(_bits_to_tuple(a, n), _bits_to_tuple(b, n), x, ga, gb)
                      for a, b, x, ga, gb in violations]
    return out


def consistency_scan(objective: str, n: int = 6, draws: int = 200,
                     seed: int = 0, tolerance: float = DEFAULT_TOLERANCE,
                     config: losses.LossConfig = CONSISTENCY_CONFIG) -> LatticeCheckResult:
    """Scan every draw in full, accumulating all violations."""
    return _scan_draws(objective, config, n, draws, seed, tolerance, False)


def counterexample_search(objective: str,
                          config: losses.LossConfig = COUNTEREXAMPLE_CONFIG,
                          n: int = 6, max_draws: int = 1000, seed: int = 0,
                          tolerance: float = DEFAULT_TOLERANCE) -> LatticeCheckResult:
    """Stop at the first violating draw, or exhaust the budget."""
    return _scan_draws(objective, config, n, max_draws, seed, tolerance, True)


def verdict_table(names=objectives.OBJECTIVES, n: int = 6, draws: int = 200,
                  max_draws: int = 1000, seed: int = 0,
                  tolerance: float = DEFAULT_TOLERANCE) -> list[LatticeCheckResult]:
    """One result per objective, routed by the paper's claim for it.

    Claimed-submodular objectives get the full consistency scan, and so do
    "refuted" ones: the paper claims them submodular too, and scanning
    every draw in full counts all their violations. Claimed non-submodular
    ones get the counterexample search. The caller compares each verdict
    against the record's claim. A table that could compare nothing is
    refused: below n = 3 no triple A < B with A nonempty exists, and a
    scan of zero draws judges no triple at all. The scans refuse a
    tolerance that is NaN, infinite or negative, and counts that are not
    integers.
    """
    check_integers(n=n, draws=draws, max_draws=max_draws)
    if n < 3:
        raise ValidationError(f"n must be >= 3 to compare any triple, got {n}")
    if draws < 1 or max_draws < 1:
        raise ValidationError(
            f"draws (--trials) and max_draws (--budget) must be >= 1, "
            f"got {draws} and {max_draws}")
    out = []
    for name in names:
        if objectives.get(name).claim != "not-submodular":
            out.append(consistency_scan(name, n, draws, seed, tolerance))
        else:
            out.append(counterexample_search(name, n=n, max_draws=max_draws,
                                             seed=seed, tolerance=tolerance))
    return out


VERDICT_HEADER = "objective,n,trials,violations,min_margin,verdict"


def write_verdict_csv(results, fh) -> None:
    fh.write(VERDICT_HEADER + "\n")
    for res in results:
        fh.write(res.csv_row() + "\n")
