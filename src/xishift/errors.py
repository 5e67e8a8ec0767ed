"""Exception taxonomy.

Every library-raised error derives from XishiftError so callers (and the CLI,
which maps failures onto its exit-code contract) can distinguish library
failures from programming errors.  A result past the double range raises
RangeOverflowError, which is also a builtin OverflowError, so code that
catches either one catches it.
"""


class XishiftError(Exception):
    """Base class for all library errors."""


class PoleError(XishiftError):
    """Evaluation requested exactly at a pole of the function."""


class AccuracyError(XishiftError):
    """Requested accuracy is unreachable within the configured term budget."""


class DivergenceError(XishiftError):
    """A series failed to converge within the configured term budget."""


class ParameterError(XishiftError):
    """A parameter is outside the set where the operation is defined."""


class SymmetryError(XishiftError):
    """A quantity that must be real carries a non-negligible imaginary part.

    This signals a kernel bug, not a user error: the affected operations are
    real-valued by symmetry.
    """


class DomainError(XishiftError):
    """Argument outside the operation's domain of validity."""


class RegionError(XishiftError):
    """A z argument lies outside the admissible region in the z-plane."""


class ConsistencyError(XishiftError):
    """Two supposedly equivalent computations disagree (internal error)."""


class ToleranceError(XishiftError):
    """Adaptive refinement exhausted its budget above the requested tolerance."""


class EvaluationError(XishiftError):
    """An evaluator failed at a specific point; the message carries the point."""


class RangeOverflowError(XishiftError, OverflowError):
    """A result's magnitude exceeds the double range (gamma, zeta's reflection)."""


class MaxIterError(XishiftError):
    """An iteration cap was reached before meeting the stopping rule."""


class UnsupportedOrderError(XishiftError):
    """A derivative or moment order beyond the implemented range."""


class ConfigError(XishiftError):
    """A shift configuration violates its invariants."""


class ParseError(XishiftError):
    """A config file is missing, malformed, or has the wrong schema."""
