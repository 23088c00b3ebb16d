"""Parameter checks and two-parameter deformed integers.

The deformed integer [m] = (q**m - p**m) / (q - p) reduces to m at
q = p = 1 and interpolates smoothly across the removable singularity
at q = p, where its value is m * q**(m - 1).
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .errors import DomainError, double_range, finite

# Relative |q - p| gap at or below which qp_number switches to its analytic
# limit, avoiding catastrophic cancellation in (q**m - p**m) / (q - p).
SINGULARITY_THRESHOLD = 1e-9


def require_positive(**params: float) -> None:
    """Raise DomainError naming the first parameter that is not > 0."""
    for name, value in params.items():
        if not value > 0:
            raise DomainError(f"parameter {name} must be > 0, got {value!r}")


def require_nonnegative(**params: float) -> None:
    """Raise DomainError naming the first parameter that is < 0 or nan."""
    for name, value in params.items():
        if not value >= 0:
            raise DomainError(f"{name} must be >= 0, got {value}")


def require_nonnegative_int(**params: int) -> None:
    """Raise DomainError naming the first parameter that is not an integer
    >= 0; numpy integers pass, a float does not."""
    for name, value in params.items():
        try:
            operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
    require_nonnegative(**params)


def require_finite(**params: float | None) -> None:
    """Raise DomainError naming the first parameter that is nan or infinite;
    None (not given) passes.  Compared, not math.isfinite(), which overflows
    on a Fraction beyond double range."""
    for name, value in params.items():
        if value is not None and not -math.inf < value < math.inf:
            raise DomainError(f"parameter {name} must be finite, got {value!r}")


def relative_gap(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|); exact when a and b are Fractions."""
    return abs(a - b) / max(1, abs(a), abs(b))


def deformed_integers(q: float, p: float) -> Callable[[int], float]:
    """m -> [m] for fixed (q, p): the domain check, the singular-branch
    choice, the midpoint and the gap q - p are done once, not per m."""
    require_positive(q=q, p=p)
    if abs(q - p) <= SINGULARITY_THRESHOLD * max(q, p):
        mid = 0.5 * (q + p)
        return lambda m: m * mid ** (m - 1) if m else 0.0
    gap = q - p
    return lambda m: (q**m - p**m) / gap


def qp_number(m: int, q: float, p: float) -> float:
    """Deformed integer [m] = (q**m - p**m) / (q - p).

    Near the removable singularity q = p (relative gap at most
    SINGULARITY_THRESHOLD) returns the limit m * mid**(m - 1) evaluated
    at the midpoint mid = (q + p) / 2.  deformed_integers(q, p) is the
    same map with its per-(q, p) work done once.  A value beyond double
    range raises EvaluationOverflowError.
    """
    require_nonnegative(m=m)
    with double_range(lambda: f"deformed integer [{m}] overflowed at q={q}, p={p}"):
        return finite(deformed_integers(q, p)(m))
