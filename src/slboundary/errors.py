"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; anything else propagates as a plain ValueError.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class DomainError(ToolkitError):
    """An iterated logarithm or curvature formula was evaluated outside its domain."""


class NonFiniteCoefficient(ToolkitError):
    """The Sturm-Liouville coefficient evaluated to NaN or infinity inside the interval."""


class StepUnderflow(ToolkitError):
    """The adaptive step collapsed below representable spacing (coefficient singularity)."""


class DomainMismatch(ToolkitError):
    """A curvature profile is not defined on the interval the caller needs."""


class YVanished(ToolkitError):
    """The comparison solution hit zero inside the requested window; shorten the window."""


class InvalidShell(ToolkitError):
    """Kick shell parameters violate the required ordering e_k < r0 <= a < b, mu >= 0."""


class NoSecondZero(ToolkitError):
    """The kick amplitude is at or below the threshold; no second zero exists."""


class ExceedanceViolated(ToolkitError):
    """The comparison coefficient dips below the reference profile on the grid."""


class WindowTooSmall(ToolkitError):
    """The arclength window cannot witness the crossing yet (total turn still below pi)."""
