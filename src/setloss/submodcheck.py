"""Exhaustive submodularity testing for the objective zoo.

Every objective becomes a set function by evaluating its per-class term on
an arbitrary subset A of the batch, with the batch's labels ignored and
f(empty) = 0. Two exhaustive scans over the subset lattice then judge it,
both on the backend's one scan engine: the diminishing-returns form checks
f(x|A) >= f(x|B) for all A <= B <= V \\ {x}, and the local form checks
f(A+i) + f(A+j) >= f(A+i+j) + f(A) for all i != j outside A, which is the
triple x = i, B = A + j. Both leave out the comparisons with A empty, so
they judge the same lattice and agree in verdict for any finite-valued set
function; both are run in tests as a cross-check.

Conventions the scans rely on:
  * Comparisons with A empty are left out: by default in the DR scan,
    always in the local one. The formulas give the empty set no boundary
    semantics, and several objectives that are well-behaved everywhere
    else fail a naive f(empty) = 0 reading (the facility-location loss
    among them); `include_empty` restores those triples to the DR scan
    for auditing.
  * Subsets where a term leaves its domain (log of a nonpositive number,
    an empty complement's log-sum-exp) produce non-finite gains; such
    comparisons are tallied as skipped, never judged.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, objectives
from ._backend import backend
from .batch import EmbeddingBatch
from .errors import GroundSetTooLarge, ValidationError
from .sampling import Rng

ENUMERATION_BOUND = 12
DEFAULT_TOLERANCE = 1e-9
DRAW_DIM = 4

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
    """A |-> L(theta, A) with the batch fixed and classes ignored."""
    cfg = replace(config, objective=objective)
    s, d = losses.matrices(batch, cfg)
    obj = objectives.get(objective)
    whole = obj.whole_value(s, cfg.lam)

    def evaluate(a) -> float:
        members = np.asarray(sorted(int(i) for i in a), dtype=np.intp)
        return backend.term_value(obj, s, d, members, cfg.lam, cfg.margin, whole)

    return evaluate


def _bits_to_tuple(bits: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if bits >> i & 1)


def _check_tolerance(tolerance: float) -> None:
    """A NaN tolerance would pass every margin, a negative one flag ties."""
    if not 0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")


def _table(objective: str, batch: EmbeddingBatch, config: losses.LossConfig):
    if batch.n > ENUMERATION_BOUND:
        raise GroundSetTooLarge(batch.n, ENUMERATION_BOUND)
    cfg = replace(config, objective=objective)
    s, d = losses.matrices(batch, cfg)
    return backend.value_table(objectives.get(objective), s, d, cfg.lam, cfg.margin)


def _scan_batch(objective: str, batch: EmbeddingBatch, config: losses.LossConfig,
                scan, *args) -> LatticeCheckResult:
    """One backend scan of the batch's table, its violations' sets still
    as bitmasks."""
    mm, compared, skipped, count, viols = scan(_table(objective, batch, config),
                                               batch.n, *args)
    return LatticeCheckResult(objective, batch.n, 1, viols, count,
                              float(mm), compared, skipped)


def exhaustive_dr_check(objective: str, batch: EmbeddingBatch,
                        config: losses.LossConfig,
                        tolerance: float = DEFAULT_TOLERANCE,
                        include_empty: bool = False) -> LatticeCheckResult:
    """Scan every diminishing-returns triple of the batch's subset lattice."""
    _check_tolerance(tolerance)
    res = _scan_batch(objective, batch, config, backend.dr_scan, tolerance, include_empty)
    return _merge(objective, batch.n, [res])


def exhaustive_lattice_check(objective: str, batch: EmbeddingBatch,
                             config: losses.LossConfig,
                             tolerance: float = DEFAULT_TOLERANCE) -> LatticeCheckResult:
    """Scan the local form f(A+i) + f(A+j) >= f(A+i+j) + f(A) instead.

    Same verdict as the default DR scan, from n(n-1)(2^(n-2) - 1) ordered
    comparisons; violations take the DR shape (A, B = A + j, x = i, gain_A,
    gain_B).
    """
    _check_tolerance(tolerance)
    res = _scan_batch(objective, batch, config, backend.local_scan, tolerance)
    return _merge(objective, batch.n, [res])


def draw_batch(rng: Rng, n: int, dim: int = DRAW_DIM) -> EmbeddingBatch:
    """Unit-normalized Gaussian embeddings; labels are a placeholder."""
    z = rng.normals((n, dim))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    return EmbeddingBatch(z, np.zeros(n, dtype=np.int64))


def _scan_draws(objective: str, config: losses.LossConfig, n: int,
                draws: int, seed: int, tolerance: float, stop_early: bool):
    """DR-scan `draws` seeded batches in order, or up to the first violating
    one when stopping early."""
    _check_tolerance(tolerance)
    rng = Rng(seed)
    results = []
    for i in range(draws):
        res = _scan_batch(objective, draw_batch(rng.derive(i), n), config,
                          backend.dr_scan, tolerance, False)
        results.append(res)
        if stop_early and res.violation_count:
            break
    return results


def _merge(objective: str, n: int, per_draw) -> LatticeCheckResult:
    """Sum the draws' tallies and decode the first violating draw's list."""
    out = LatticeCheckResult(objective, n, len(per_draw))
    for res in per_draw:
        out.violation_count += res.violation_count
        if res.violation_count and not out.violations:
            out.violations = res.violations
        out.min_margin = min(out.min_margin, res.min_margin)
        out.compared += res.compared
        out.skipped += res.skipped
    out.violations = [(_bits_to_tuple(a, n), _bits_to_tuple(b, n), x, ga, gb)
                      for a, b, x, ga, gb in out.violations]
    return out


def consistency_scan(objective: str, n: int = 6, draws: int = 200,
                     seed: int = 0, tolerance: float = DEFAULT_TOLERANCE,
                     config: losses.LossConfig = CONSISTENCY_CONFIG) -> LatticeCheckResult:
    """Scan every draw in full, accumulating all violations."""
    return _merge(objective, n,
                  _scan_draws(objective, config, n, draws, seed, tolerance, False))


def counterexample_search(objective: str,
                          config: losses.LossConfig = COUNTEREXAMPLE_CONFIG,
                          n: int = 6, max_draws: int = 1000, seed: int = 0,
                          tolerance: float = DEFAULT_TOLERANCE) -> LatticeCheckResult:
    """Stop at the first violating draw, or exhaust the budget."""
    return _merge(objective, n,
                  _scan_draws(objective, config, n, max_draws, seed, tolerance, True))


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
    tolerance that is NaN, infinite or negative.
    """
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
