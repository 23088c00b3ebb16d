"""The package's one number reader, and two-parameter deformed integers.

The deformed integer [m] = (q**m - p**m) / (q - p) reduces to m at
q = p = 1 and is smooth across the removable singularity at q = p,
where its value is m * q**(m - 1).  It is evaluated in one form on both
sides of that point, so nothing cancels near it.
"""

from __future__ import annotations

import math
import operator
import sys
from numbers import Complex, Integral, Number, Rational, Real
from typing import Callable

from .errors import DomainError, double_range


def _read(name: str, x, finite_only: bool = True):
    # the one reader of the package's public numbers (see require_finite); every
    # public entrance rebinds its parameters to what the require_* checks return
    if type(x) is not float:
        if not isinstance(x, Number) or isinstance(x, Complex) and not isinstance(x, Real):
            raise DomainError(f"parameter {name} must be a real number, got {x!r}")
        try:
            double = float(x)  # an int or Fraction past double range overflows
            if math.isinf(double) and x != double or not double and x:
                raise OverflowError  # a Decimal past double range, or a value that underflows
        except ValueError:  # a signalling Decimal nan
            double = math.nan
        except (OverflowError, ZeroDivisionError):  # an in-range read enters no double_range
            with double_range(lambda: f"parameter {name} leaves the double range"):
                raise
        if isinstance(x, Integral) and not isinstance(x, int) or not isinstance(x, Rational):
            x = double  # a numpy scalar or a Decimal
    if finite_only and not math.isfinite(x):
        raise DomainError(f"parameter {name} must be finite, got {x!r}")
    return x


def _returned(values: list):
    return values[0] if len(values) == 1 else tuple(values)


def require_finite(**params: float):
    """Read each parameter: a float, an int or a Fraction as itself, any other
    real number (numpy scalars, Decimal) as its float.  EvaluationOverflowError
    names a nonzero one no finite, nonzero double holds, DomainError one that
    is no real number, nan or inf.  Returns the value, or the values in order."""
    return _returned([_read(name, value) for name, value in params.items()])


def require_positive(**params: float):
    """Read each parameter as require_finite does; each must be > 0."""
    values = [_read(name, value) for name, value in params.items()]
    for name, value in zip(params, values):
        if not value > 0:
            raise DomainError(f"parameter {name} must be > 0, got {value!r}")
    return _returned(values)


def require_nonnegative(**params: float):
    """Read each parameter as require_finite does, an infinite one too; each must be >= 0."""
    values = [_read(name, value, False) for name, value in params.items()]
    for name, value in zip(params, values):
        if not value >= 0:
            raise DomainError(f"{name} must be >= 0, got {value}")
    return _returned(values)


def require_nonnegative_int(**params: int):
    """Read each parameter as a Python int in 0..sys.maxsize; numpy integers
    pass, a float does not.  Past sys.maxsize no list can hold the table a
    size asks for, and no level is reached."""
    for name, value in params.items():
        try:
            params[name] = value = operator.index(value)
        except TypeError:
            try:
                got = repr(value)
            except ValueError:  # a repr past the 4,300-digit limit, as of a huge Fraction
                got = f"a {type(value).__name__}"
            raise DomainError(f"{name} must be an integer, got {got}") from None
        if value < 0:  # a bit count prints where an int's 4,300 digits might not
            got = value if value >= -sys.maxsize else f"a negative {value.bit_length()}-bit int"
            raise DomainError(f"{name} must be >= 0, got {got}")
        if value > sys.maxsize:
            raise DomainError(f"{name} must be <= sys.maxsize, got a {value.bit_length()}-bit int")
    return _returned(list(params.values()))


def relative_gap(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|), the scale chosen as builtin max
    chooses it (1 unless |a|, then |b|, compares greater), so a tie or a nan
    picks the same operand, without max's call."""
    gap, scale = abs(a - b), 1
    if (size := abs(a)) > scale:
        scale = size
    if (size := abs(b)) > scale:
        scale = size
    return gap / scale


def deformed_integers(q: float, p: float) -> Callable[[int], float]:
    """m -> [m] for fixed (q, p), with its per-(q, p) work done once.

    With big = max(q, p), e = (big - min(q, p)) / big as a double (an exact
    e rounds to 0 or 1 where a float one would) and L = log1p(-e),
    [m] = big**(m-1) * expm1(m L) / expm1(L).  big - min(q, p) is exact
    near q = p and m L is never positive, so nothing cancels, and the
    quotient keeps [1] = 1 exactly.  At e = 0, the point q = p itself,
    [m] = m big**(m-1); at e = 1 (min(q, p) / big below 2**-53) log1p
    has a pole, L = -inf and [m] = big**(m-1).
    """
    q, p = require_positive(q=q, p=p)
    big = max(q, p)
    e = float((big - min(q, p)) / big)
    if e == 0:
        return lambda m: m * big ** (m - 1) if m else 0.0
    log_ratio = math.log1p(-e) if e < 1 else -math.inf
    scale = math.expm1(log_ratio)
    return lambda m: big ** (m - 1) * (math.expm1(m * log_ratio) / scale) if m else 0.0


def qp_number(m: int, q: float, p: float) -> float:
    """Deformed integer [m] = (q**m - p**m) / (q - p), m q**(m-1) at q = p.

    deformed_integers(q, p)(m), whose one form holds on both sides of
    q = p, as a float (at an exact q = p, m q**(m-1) rounded once).
    A value beyond double range raises EvaluationOverflowError; at an exact
    big = max(q, p) it is refused, and one below 2**-1100 returned as 0.0,
    before the exact power is formed.
    """
    m, (q, p) = require_nonnegative_int(m=m), require_positive(q=q, p=p)
    with double_range(lambda: f"deformed integer [{m}] overflowed at q={q}, p={p}"):
        big = max(q, p)
        if type(big) is not float and m:  # an exact power, refused or skipped unformed
            if big > 1 and (m - 1) * math.log2(big) > 1100:
                raise OverflowError  # [m] >= big**(m-1) > 2**1100
            if big < 1 and math.log2(m) + (m - 1) * math.log2(big) < -1100:
                return 0.0  # [m] <= m big**(m-1) < 2**-1100 rounds to 0.0
        value = float(deformed_integers(q, p)(m))  # an exact m big**(m-1) rounds once
        if math.isfinite(value):
            return value
        raise OverflowError
