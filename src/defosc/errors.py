"""Exception types shared across the package, and its one overflow rule: in
a double_range(message) block, an OverflowError (a power past the largest
double, or finite() refusing a result) or a ZeroDivisionError (a divisor
underflowed to 0.0) becomes EvaluationOverflowError(message()), and the
outermost of nested blocks names the failure."""

import math
from contextlib import contextmanager
from typing import Callable, Iterator


class DeformedAlgebraError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DeformedAlgebraError, ValueError):
    """A parameter lies outside the domain where the formulas are defined."""


class PoleError(DomainError):
    """A formula was evaluated at a pole of one of its denominators."""


class RecipeDivisionError(DomainError):
    """A coefficient function hit zero inside the reconstruction recipe."""


class NegativeStructureFunctionError(DomainError):
    """A structure-function value is negative where a square root is needed."""


class EvaluationOverflowError(DeformedAlgebraError, OverflowError):
    """An intermediate power left the double-precision range."""


@contextmanager
def double_range(message: Callable[[], str]) -> Iterator[None]:
    """Turn an overflow in the block into EvaluationOverflowError(message())."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvaluationOverflowError(message()) from exc


def finite(value: float) -> float:
    """value if finite, else OverflowError for the enclosing double_range; a
    product past the largest double is inf, not an error.  Compared, not
    math.isfinite(), which overflows on a large Fraction."""
    if -math.inf < value < math.inf:
        return value
    raise OverflowError
