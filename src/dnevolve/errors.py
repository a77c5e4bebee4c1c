"""Structured exceptions shared across the package."""


class DnevolveError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DnevolveError):
    """Vectors of incompatible dimension were combined."""

    def __init__(self, expected: int, got: int, what: str = "vector"):
        super().__init__(f"{what}: expected dimension {expected}, got {got}")


class MaximizationFailureError(DnevolveError):
    """Numeric supremum failed to bracket a finite maximizer."""


class DomainError(DnevolveError):
    """State outside the declared domain box of an energy."""


class RangeError(DnevolveError):
    """A value outside its valid range: a time off the grid or beyond the
    horizon, or model parameters that break a constraint between them."""


class RefinementError(DnevolveError):
    """Inner minimization over a continuous interval failed to refine."""


class ConditioningError(DnevolveError):
    """No inner minimizer matches the supplied multiplier (stale or foreign xi)."""


class ResolutionError(DnevolveError):
    """More than one declared kink inside one finite-difference stencil."""


class SubdifferentialUnavailableError(DnevolveError):
    """The subdifferential selector returned no candidates."""


class StepFailureError(DnevolveError):
    """Inner solver stalled above its residual target."""


class SolveAbortedError(DnevolveError):
    """A solve aborted mid-run; carries the partial trajectory."""

    def __init__(self, message: str, partial=None, step_index=None):
        self.partial = partial
        self.step_index = step_index
        super().__init__(message)


class ConfigError(DnevolveError):
    """Config schema violation; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)
