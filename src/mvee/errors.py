"""Exception hierarchy shared across the package.

Input is checked where it enters: one InvalidInput (also a ValueError)
names a bad argument, point file or plan file, and the command line prints
it as `error: ...` and exits 1.  check_int is the one integer rule, an
integer of at least a minimum, for every count, dimension and seed.  The
other classes report what a factorization or a line search found during a
solve.
"""

from numbers import Integral


class MveeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MveeError, ValueError):
    """An argument is out of range or malformed; still a ValueError."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise InvalidInput unless value is a non-bool integer >= minimum."""
    whole = isinstance(value, Integral) and not isinstance(value, bool)
    if not whole or value < minimum:
        raise InvalidInput(f"{name} must be an integer of at least {minimum}")


class NotFullRank(MveeError):
    """Weighted points do not span the ambient space; the factor is singular."""


class SingularUpdate(MveeError):
    """A rank-one update has a vanishing or negative denominator."""


# the older name of the same failure; perfbench/layers.py imports it
DowndateBreaksPD = SingularUpdate


class LineSearchStalled(MveeError):
    """Backtracking reduced the trial step below 1e-16 without acceptance."""

