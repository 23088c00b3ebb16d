"""Parameter checks and two-parameter deformed integers.

The deformed integer [m] = (q**m - p**m) / (q - p) reduces to m at
q = p = 1 and is smooth across the removable singularity at q = p,
where its value is m * q**(m - 1).  It is evaluated in one form on both
sides of that point, so nothing cancels near it.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .errors import DomainError, double_range, finite


def require_positive(**params: float) -> None:
    """Raise DomainError naming the first parameter that is nan or infinite,
    as require_finite does, else the first that is not > 0."""
    require_finite(**params)
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
    """|a - b| relative to max(1, |a|, |b|)."""
    return abs(a - b) / max(1, abs(a), abs(b))


def deformed_integers(q: float, p: float) -> Callable[[int], float]:
    """m -> [m] for fixed (q, p), with its per-(q, p) work done once.

    With big = max(q, p), e = (big - min(q, p)) / big and L = log1p(-e),
    [m] = big**(m-1) * expm1(m L) / expm1(L).  big - min(q, p) is exact
    near q = p and m L is never positive, so nothing cancels, and the
    quotient keeps [1] = 1 exactly.  At e = 0, the point q = p itself,
    [m] = m big**(m-1); at e = 1 (min(q, p) / big below 2**-53) log1p
    has a pole, L = -inf and [m] = big**(m-1).
    """
    require_positive(q=q, p=p)
    big = max(q, p)
    e = (big - min(q, p)) / big
    if e == 0:
        return lambda m: m * big ** (m - 1) if m else 0.0
    log_ratio = math.log1p(-e) if e < 1 else -math.inf
    scale = math.expm1(log_ratio)
    return lambda m: big ** (m - 1) * (math.expm1(m * log_ratio) / scale) if m else 0.0


def qp_number(m: int, q: float, p: float) -> float:
    """Deformed integer [m] = (q**m - p**m) / (q - p), m q**(m-1) at q = p.

    deformed_integers(q, p)(m), whose one form holds on both sides of
    q = p.  A value beyond double range raises EvaluationOverflowError.
    """
    require_nonnegative(m=m)
    with double_range(lambda: f"deformed integer [{m}] overflowed at q={q}, p={p}"):
        return finite(deformed_integers(q, p)(m))
