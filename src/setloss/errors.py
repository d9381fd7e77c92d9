"""Exception and warning types shared across the package, and the checks
of its public numbers.

Two families matter to callers: ValidationError covers malformed inputs and
parameters (CLI exit code 2), PreconditionError covers well-formed inputs that
violate an operation's stated precondition (CLI exit code 3).

This module is the one place that decides what a public number is. A real
parameter takes an int, a float or a numpy scalar of either kind, never a
bool, and only a finite one inside its range: `check_real` refuses anything
else with a ValidationError that names the parameter. An integer parameter
takes an int or a numpy integer, never a bool or a float (`is_integer`).
A size or a count must also lie between its least value and `sys.maxsize`,
the largest index numpy takes: `check_count` refuses anything else with a
ValidationError that names the parameter and its range. A seed is an
integer of any size (`check_integers`), as `Rng` takes it mod 2^64.
"""

import math
import operator
import sys
from numbers import Integral, Real


class SetLossError(Exception):
    """Base class for package-specific errors."""


class ValidationError(SetLossError):
    """Malformed input data or parameters."""


class PreconditionError(SetLossError):
    """Input violates an operation's precondition."""


class ParseError(ValidationError):
    """Bad record in an embedding CSV file; carries the offending line number."""

    def __init__(self, path, line, reason):
        self.path = str(path)
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")


class ZeroVector(PreconditionError):
    """Cosine similarity requested for an embedding with near-zero norm."""

    def __init__(self, index):
        self.index = index
        super().__init__(
            f"embedding {index} has norm below 1e-12; cosine similarity is undefined"
        )


class NonPositiveBandwidth(ValidationError):
    """An RBF bandwidth that `check_real` refuses; its message is that check's."""

    def __init__(self, bandwidth):
        self.bandwidth = bandwidth
        super().__init__(f"bandwidth must be finite and > 0, got {bandwidth!r}")


class NotPositiveDefinite(PreconditionError):
    """Symmetric factorization failed; the regularized matrix is not PD."""


class EmptyGroundSet(ValidationError):
    def __init__(self):
        super().__init__("ground set is empty; need at least one embedding")


class LambdaBelowOne(PreconditionError):
    """Graph-cut lambda below 1 breaks submodularity of the underlying function."""

    def __init__(self, lam):
        self.lam = lam
        super().__init__(
            f"graph-cut objectives require lambda >= 1 for submodularity, got {lam}"
        )


class DegenerateBatch(PreconditionError):
    """Batch shape or values make the selected objective undefined."""

    def __init__(self, objective, reason):
        self.objective = objective
        self.reason = reason
        super().__init__(f"{objective}: {reason}")


class DivergedLoss(PreconditionError):
    """Training produced a non-finite loss."""

    def __init__(self, step, value):
        self.step = step
        self.value = value
        super().__init__(f"loss became non-finite ({value}) at step {step}")


class MissingClass(PreconditionError):
    def __init__(self, label, where):
        self.label = label
        super().__init__(f"class {label} has no samples in {where}")


class EmptyClass(ValidationError):
    def __init__(self, label, count):
        self.label = label
        super().__init__(f"class {label} would receive {count} samples; need >= 1")


class BadK(ValidationError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"K must be an integer in [0, 7], got {k!r}")


class GroundSetTooLarge(ValidationError):
    def __init__(self, n, bound):
        self.n = n
        self.bound = bound
        super().__init__(f"exhaustive enumeration bounded at n <= {bound}, got n = {n}")


class SingleClassBatch(UserWarning):
    """Warning: batch has one class; total-correlation style terms are all zero."""


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer. A bool is not, as the
    CLI's JSON types refuse it, and neither is an integral float."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integers(**values) -> None:
    """ValidationError naming the first of values, by keyword, that is not
    `is_integer`. A size or a count takes `check_count` instead."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value, at_least: int = 0) -> None:
    """ValidationError "<name> must be an integer in [<at_least>,
    <sys.maxsize>], got <repr>" unless value is `is_integer` and lies in
    that range."""
    if not (is_integer(value) and at_least <= value <= sys.maxsize):
        raise ValidationError(
            f"{name} must be an integer in [{at_least}, {sys.maxsize}], got {value!r}")


# Each end of a range: whether a value lies on its inside, and its sign.
_INSIDE = {"(": operator.gt, "[": operator.ge, ")": operator.lt, "]": operator.le}
_SIGN = {"(": ">", "[": ">=", ")": "<", "]": "<="}


def check_real(name: str, value, *, above=None, at_least=None, below=None,
               at_most=None) -> None:
    """ValidationError "<name> must be finite and <range>, got <repr>"
    unless value is a finite real number in the range the bounds give:
    above and below are open ends, at_least and at_most closed ones. With
    no bound the range is every finite real, and the message says only
    "must be finite". NaN, an infinity, a bool, a non-number and an int
    past the largest float are refused whatever the range."""
    ends = [(word, bound) for word, bound in
            (("(", above), ("[", at_least), (")", below), ("]", at_most)) if bound is not None]
    try:
        ok = (isinstance(value, Real) and not isinstance(value, bool)
              and math.isfinite(value) and all(_INSIDE[word](value, bound)
                                               for word, bound in ends))
    except OverflowError:
        ok = False
    if not ok:
        if len(ends) == 2:
            (low, a), (high, b) = ends
            words = f" and in {low}{a}, {b}{high}"
        else:
            words = "".join(f" and {_SIGN[word]} {bound}" for word, bound in ends)
        raise ValidationError(f"{name} must be finite{words}, got {value!r}")

