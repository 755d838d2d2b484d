"""Exception hierarchy shared across the package."""


class MveeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MveeError, ValueError):
    """An argument is out of range or malformed; still a ValueError."""


class NotFullRank(MveeError):
    """Weighted points do not span the ambient space; the factor is singular."""


class DowndateBreaksPD(MveeError):
    """A rank-one downdate would make the factored matrix indefinite.

    The solver no longer raises this: it keeps M^{-1} explicitly, and a
    numerically singular rank-one change surfaces as SingularUpdate.  The
    name stays public so that code catching it keeps importing.
    """


class SingularUpdate(MveeError):
    """A rank-one gradient update has a vanishing or negative denominator."""


class StepRuleViolation(MveeError):
    """A step rule or kernel was called outside its preconditions."""


class TooFewPoints(MveeError):
    """Not enough points for a full-dimensional enclosing ellipsoid."""


class DegenerateCovariance(MveeError):
    """The weighted covariance of the point set is not positive definite."""


class LineSearchStalled(MveeError):
    """Backtracking reduced the trial step below 1e-16 without acceptance."""


class ExactOptimum(MveeError):
    """The gradient vanishes identically; the iterate is already optimal."""


class PointParseError(MveeError):
    """A point file could not be parsed; the message carries the line number."""


class PlanError(MveeError):
    """A benchmark plan file is missing, malformed, or names unknown options."""
