"""Exception and warning types shared across the package.

Two families matter to callers: ValidationError covers malformed inputs and
parameters (CLI exit code 2), PreconditionError covers well-formed inputs that
violate an operation's stated precondition (CLI exit code 3).
"""

import math
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
    def __init__(self, bandwidth):
        self.bandwidth = bandwidth
        super().__init__(f"RBF bandwidth must be positive, got {bandwidth!r}")


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


def check_integers(**counts) -> None:
    """ValidationError naming the first of counts, by keyword, that is not an
    int or a numpy integer. A bool is refused, as the CLI's JSON types refuse
    it, and so is an integral float."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def finite_real(value) -> bool:
    """Whether value is a finite real number: an int, a float or a numpy
    number of either kind, not NaN, infinite or an int past the largest
    float. A bool is not, as `check_integers` refuses it."""
    try:
        return (isinstance(value, Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def check_finite(**values) -> None:
    """ValidationError naming the first of values, by keyword, that is not a
    `finite_real`."""
    for name, value in values.items():
        if not finite_real(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def check_tolerance(tolerance: float) -> None:
    """ValidationError unless tolerance is finite and >= 0: a NaN tolerance
    would pass every margin, a negative one flag ties. The lattice scans and
    `grads.grad_check` refuse theirs with this check."""
    if not 0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
