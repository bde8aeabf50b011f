"""Exception hierarchy shared by all weightdist modules, and the rules they
all apply: the budget of every exact count, the integer rule for counts and
entries, and the base of the immutable value types.

Everything derives from WeightDistError; errors that correspond to a
builtin failure mode also subclass the builtin so generic handlers keep
working (e.g. ``except ZeroDivisionError``).  Every module of the package
imports this one when it loads, and it imports none of them.
"""

from __future__ import annotations

from operator import attrgetter


def require_ints(**values) -> None:
    """Raise ValueError naming the first value that is not an int.  A bool is
    refused although it is one, so that True is never taken for the count 1."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")


class Value:
    """Base of the package's immutable value types.  A subclass lists its
    fields, in order, in `__slots__` (a name with a leading underscore is a
    cache, not a field) and sets each once in its own `__init__` through
    `object.__setattr__`.  Assignment and deletion raise AttributeError;
    equality and the hash are over the fields in order, and an instance
    equals only instances of its own type; the repr names every field."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._values = attrgetter(*cls._fields)  # a tuple: every type has two fields or more

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        """Rebuilt by `__init__` from the fields, so pickling and copying
        neither assign a field nor carry a cache."""
        return self.__class__, self._values(self)


class WeightDistError(Exception):
    """Base class for all errors raised by this package."""


# -- finite fields ----------------------------------------------------------

class NotPrimeError(WeightDistError, ValueError):
    """Requested characteristic is not prime (or order not a prime power)."""


class ReduciblePolynomialError(WeightDistError, ValueError):
    """Supplied modulus polynomial is not irreducible (or not monic of the
    right degree)."""


class UnsupportedOrderError(WeightDistError, ValueError):
    """Field order exceeds the built-in modulus range and no polynomial was
    supplied."""


class DivisionByZeroError(WeightDistError, ZeroDivisionError):
    """Inverse or division by the zero element."""


# -- matrices ---------------------------------------------------------------

class SingularMatrixError(WeightDistError):
    """Exact linear system has no unique solution.

    Carries the matrix rank and a nonzero rational kernel vector as a
    diagnostic, so dependent systems can be reported rather than merely
    rejected.
    """

    def __init__(self, message: str, rank: int, kernel_vector=None):
        super().__init__(message)
        self.rank = rank
        self.kernel_vector = kernel_vector


# -- codes ------------------------------------------------------------------

class RankDeficientGeneratorError(WeightDistError, ValueError):
    """Generator matrix rows are linearly dependent."""


# The budget of every enumeration and census that is given none: the most
# element operations one call may cost on the route it takes.
DEFAULT_BUDGET = 10 ** 9


class BudgetExceededError(WeightDistError):
    """Requested exhaustive computation exceeds the configured budget."""


def cheapest_route(routes, budget: int | None):
    """The one rule of every exact count: refuse a budget that is not None or
    an int >= 1 (ValueError), and return the cheapest priced route (name,
    price, ...), the first on a tie, unless it costs more (BudgetExceededError)."""
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, int) or budget < 1):
        raise ValueError(f"budget must be None or a positive integer, got {budget!r}")
    route = min(routes, key=lambda r: r[1])
    if budget is not None and route[1] > budget:
        raise BudgetExceededError(f"{route[0]} costs {route[1]} element operations, "
                                  f"over the budget of {budget}")
    return route


class ZeroCodeError(WeightDistError):
    """Minimum distance is undefined: the (primal or dual) code has no
    nonzero codeword."""


class NonIntegralResultError(WeightDistError):
    """A transform that must produce nonnegative integers did not; the input
    distribution is not that of a linear code."""


# -- rank census ------------------------------------------------------------

class RegimeViolationError(WeightDistError, ValueError):
    """Full-rank regime check called with nu outside its validity range."""


# -- moment systems ---------------------------------------------------------

class TooFewKnownsError(WeightDistError, ValueError):
    """Fewer known weights than the system needs for a determined solve."""


class NonIntegralSolutionError(WeightDistError):
    """Recovered weight counts are not integers; the knowns are inconsistent
    with any linear code of these parameters."""


class NegativeSolutionError(WeightDistError):
    """Recovered weight counts are negative; the knowns are inconsistent with
    any linear code of these parameters."""


class InconsistentKnownsError(WeightDistError):
    """Surplus equations are not satisfied by the solved subsystem; the
    knowns are inconsistent with any linear code of these parameters."""


# -- closed forms -----------------------------------------------------------

class NegativeEntryError(WeightDistError):
    """Closed-form output contains a negative count; the seed weights are
    inconsistent with any code."""


class RangeViolationError(WeightDistError, ValueError):
    """Relation index outside the range the formula is stated for."""


# -- file formats -----------------------------------------------------------

class CodeFileFormatError(WeightDistError, ValueError):
    """Malformed code file or JSON payload."""
