"""Linkage between the two-sided deformed Heisenberg algebra and the
symmetric two-parameter oscillator a- a+ - q a+ a- = p**N.

Matching the two-sided coefficient pair to the target (h, g) =
(p**-N, q p**-N) fixes mu and q, but only per level: with qb, pb and p
held constant, the matching value of mu (and of q) changes with the
level N.  This module prints those per-level values.  link_table and
check_link_consistency give q, mu and p**N correctly rounded, each
decided from a 128-bit interval carried from level to level; only where
an interval cannot decide does the exact kernel write the level on
Python ints.  The tests prove the kernel equal, on Fractions, to the
matching conditions along every route they admit.  Both functions then
check that the target pair with the level-consistent q reproduces the
deformed integers [n] = (q**n - p**n)/(q - p).  A non-finite argument
raises DomainError naming it; a value past double range raises
EvaluationOverflowError naming the level.
"""

from __future__ import annotations

import itertools
import math
import sys

from .errors import double_range
from .qp import (
    deformed_integers, relative_gap, require_nonnegative, require_nonnegative_int,
    require_positive,
)
from .report import ResidualReport
from .structure import HGPair, custom_hg, sf_table


def _double_range(level: int):
    return double_range(lambda: f"linkage value leaves the double range at level={level}")


# Depth of the recipe check in check_link_consistency: Phi(0..SF_LEVELS)
# against the deformed integers, trimmed while its values leave double range.
SF_LEVELS = 12


def _exact_columns(qb: float, pb: float, p: float, first: int, q_only: bool = False):
    """Exact q, mu and p**N at levels first, first + 1, ... on Python ints.

    Yields, per level, the (numerator, denominator) pairs of q, mu and
    p**N, or of q alone when q_only; numerator / denominator is the
    correctly rounded value, the division of Python ints rounds once, and
    raises OverflowError past double range.  With
    qb = alpha/eps, pb = beta/delta, p = c/gamma and Q = qb/pb = A/B in
    lowest terms, X = Q**(2N) = a/b and P = p**N, the free forms

        q + 1 = pb P (X + X Q + X**2/Q**2 + X**2 Q**3) / 2
              = beta c**N [a b A**2 B**2 (A + B) + a**2 (A**5 + B**5)]
                / (2 delta gamma**N b**2 A**2 B**3),
        mu    = qb (X + Q**2 X**2) - 2/P
              = [alpha c**N (a b B**2 + a**2 A**2) - 2 eps gamma**N b**2 B**2]
                / (eps c**N b**2 B**2)

    need no gcd.  a b, a**2, b**2, c**N and gamma**N start as direct powers
    at the first level and are then carried by one small factor per level.
    """
    (alpha, eps), (beta, delta), (c, gamma) = (value.as_integer_ratio() for value in (qb, pb, p))
    # reduced once: a factor common to A and B would grow with every power
    common = math.gcd(alpha * delta, eps * beta)
    A, B = alpha * delta // common, eps * beta // common
    a, b = A ** (2 * first), B ** (2 * first)
    ab, a2, b2, c_n, gamma_n = a * b, a * a, b * b, c**first, gamma**first
    ab_step, a2_step, b2_step = (A * B) ** 2, A**4, B**4
    A2, B2 = A * A, B * B
    q_ab, q_a2, q_bottom = A2 * B2 * (A + B), A2 * A2 * A + B2 * B2 * B, 2 * delta * A2 * B2 * B
    while True:
        q_den = q_bottom * b2 * gamma_n
        q = (beta * c_n * (ab * q_ab + a2 * q_a2) - q_den, q_den)
        if q_only:
            yield (q,)
        else:
            b2_B2 = b2 * B2
            mu_num = alpha * c_n * (ab * B2 + a2 * A2) - 2 * eps * gamma_n * b2_B2
            yield q, (mu_num, eps * c_n * b2_B2), (c_n, gamma_n)
        ab, a2, b2 = ab * ab_step, a2 * a2_step, b2 * b2_step
        c_n, gamma_n = c_n * c, gamma_n * gamma


# The fast path's intervals (lo, hi, e) = [lo, hi] * 2**e keep hi to _WIDTH bits,
# lo rounded down and hi up; any width is right, a narrow one falls back more.
_WIDTH = 128
_ONE = (1, 1, 0)


def _mul(x, y):  # x, y >= 0
    lo, hi = x[0] * y[0], x[1] * y[1]
    shift = max(hi.bit_length() - _WIDTH, 0)
    return lo >> shift, -(-hi >> shift), x[2] + y[2] + shift


def _pow(x, n: int):  # by squaring, so a deep level costs log2(n) products
    power = _ONE
    while n:
        power, x, n = _mul(power, x) if n & 1 else power, _mul(x, x), n >> 1
    return power


def _div(x, y):  # y > 0
    shift = _WIDTH + y[1].bit_length()
    return (x[0] << shift) // y[1], -(-(x[1] << shift) // y[0]), x[2] - y[2] - shift


def _at(x, e: int) -> tuple[int, int]:  # the ends in units of 2**e, rounded outward
    shift = e - x[2]
    return (x[0] >> shift, -(-x[1] >> shift)) if shift > 0 else (x[0] << -shift, x[1] << -shift)


def _sum(x, y, z=(0, 0, 0)):  # x + y - z; the default z = 0 suits x = 1
    e = max(x[2], y[2], z[2]) - _WIDTH
    (xl, xh), (yl, yh), (zl, zh) = _at(x, e), _at(y, e), _at(z, e)
    return xl + yl - zh, xh + yh - zl, e


def _to_float(m: int, e: int) -> float:
    # m 2**e, +-inf past double range; ldexp rounds it once where the double
    # is normal, and never builds 2**e (m stays far below 2**1024)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _decided(lo: int, hi: int, e: int) -> float:
    # the double both ends round to where it is normal or infinite, else nan
    low = _to_float(lo, e)
    return low if low == _to_float(hi, e) and abs(low) >= sys.float_info.min else math.nan


def _columns(qb: float, pb: float, p: float, first: int, q_only: bool = False):
    """The doubles _exact_columns rounds to, from intervals where they decide.

    Its q + 1 and mu are sums of terms c f**N, powers at the first level
    then carried by f: pb/2 (1 + Q) (p Q**2)**N + pb/2 (1 + Q**5)/Q**2
    (p Q**4)**N and qb (Q**2)**N + qb Q**2 (Q**4)**N - 2 (1/p)**N.  Ends
    that round to one normal double decide the value between them, since
    rounding is monotone, and ends past double range its overflow; a level
    where one cannot (a near-tie, a zero, a subnormal) is rounded exactly.
    """
    args = qb, pb, p
    qb, pb, p = (_div((n, n, 0), (d, d, 0)) for n, d in (v.as_integer_ratio() for v in args))
    ratio, inverse = _div(qb, pb), _div(pb, qb)
    step, half_pb = _mul(ratio, ratio), pb[:2] + (pb[2] - 1,)
    square = _mul(step, step)
    terms = [  # (c, f), in the order q + 1, mu and p**N take them
        (_mul(half_pb, _sum(_ONE, ratio)), _mul(p, step)),
        (_mul(_mul(half_pb, _mul(inverse, inverse)), _sum(_ONE, _mul(square, ratio))),
         _mul(p, square)),
    ]
    if not q_only:
        terms += [(qb, step), (_mul(qb, step), square), ((2, 2, 0), _div(_ONE, p)), (_ONE, p)]
    values = [_mul(c, _pow(f, first)) for c, f in terms]
    for level in itertools.count(first):
        q = _sum(values[0], values[1], _ONE)
        intervals = (q,) if q_only else (q, _sum(*values[2:5]), values[5])
        rounded = [_decided(*interval) for interval in intervals]
        if math.inf in map(abs, rounded):
            raise OverflowError
        if any(map(math.isnan, rounded)):
            rounded = [top / bottom for top, bottom in next(_exact_columns(*args, level, q_only))]
        yield rounded
        # each factor has at least _WIDTH bits, so no shift is negative
        values = [(v_lo * f_lo >> (shift := (hi := v_hi * f_hi).bit_length() - _WIDTH),
                   -(-hi >> shift), v_e + f_e + shift)
                  for (v_lo, v_hi, v_e), (_, (f_lo, f_hi, f_e)) in zip(values, terms)]


def _exceeds_double_range(base: float, exponent: int) -> bool:
    try:
        return base**exponent > 1e300
    except OverflowError:  # past the largest double, so out of range too
        return True


def _target_pair(q: float, p: float) -> HGPair:
    # (h, g) = (p**-N, q p**-N), with lists from one list of powers
    def lists(m: int) -> tuple[list[float], list[float]]:
        h = list(map(pow, itertools.repeat(p), range(0, -m, -1)))
        return h, [q * power for power in h]

    return HGPair(lambda n: p**-n, lambda n: q * p**-n, "oscillator-target", lists)


def _recipe_gaps(q: float, p: float) -> list[float]:
    # the gap at each level n = 0..depth; none when the target is no
    # oscillator (q <= 0); the trim keeps below 1e300 the bounds of [n]
    # (max(q, p, 2)**depth) and of h(n) (p**-depth)
    depth = SF_LEVELS if q > 0 else 0
    while depth and _exceeds_double_range(max(q, p, 2.0, 1 / p), depth):
        depth -= 1
    if not depth:
        return []
    table = sf_table(custom_hg(_target_pair(q, p)), depth)
    integers = deformed_integers(q, p)
    return [relative_gap(phi, integers(n)) for n, phi in enumerate(table)]


def check_link_consistency(
    qb: float, pb: float, p: float, level: int, tol: float = 1e-10
) -> ResidualReport:
    """Check that the level-consistent q makes the target an oscillator.

    q along the mu-free route is the correctly rounded exact value, decided
    at the level as in link_table.  The recipe over the target pair
    (p**-N, q p**-N) must then reproduce the deformed integers [n] for
    n = 0..SF_LEVELS; per_state holds the gap at each n, relative against
    max(1, |values|).  The matching q always exceeds -1 but can reach zero
    or negative values; the target then no longer describes an oscillator,
    so the recipe only runs when q > 0.  Its depth (dim) is trimmed, down
    to 0, where per_state is empty, while max(q, p, 2)**depth or p**-depth
    exceeds 1e300 or overflows.  qb, pb and p must be finite and positive.
    A q beyond double range raises EvaluationOverflowError naming the level.
    """
    qb, pb, p = require_positive(qb=qb, pb=pb, p=p)
    tol = require_nonnegative(tolerance=tol)
    level = require_nonnegative_int(level=level)  # a Python int, as the kernel's powers need
    with _double_range(level):
        (q,) = next(_columns(qb, pb, p, level, q_only=True))
    gaps = _recipe_gaps(q, p)
    worst = max(gaps, default=0.0)
    return ResidualReport(
        relation=f"link-consistency(qb={qb},pb={pb},p={p},level={level})",
        dim=max(len(gaps) - 1, 0),
        margin=0,
        max_abs_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
        per_state=list(enumerate(gaps)),
    )


def link_table(
    qb: float, pb: float, p: float, n_max: int, tol: float = 1e-10
) -> list[dict]:
    """Per-level linkage table for levels 0..n_max.

    Each row carries the level, the level-consistent q, mu along all
    three routes, p**N, and the recipe verdict of check_link_consistency.
    Every printed value is the correctly rounded exact value: a 128-bit
    interval carried from level to level decides it, and the exact integer
    kernel runs only at a level where one cannot.  The three mu routes
    agree exactly, so mu is printed in all three.  A column beyond double
    range raises EvaluationOverflowError naming the level.
    """
    n_max = require_nonnegative_int(n_max=n_max)
    qb, pb, p = require_positive(qb=qb, pb=pb, p=p)
    tol = require_nonnegative(tolerance=tol)
    rows = []
    columns = _columns(qb, pb, p, 0)
    for level in range(n_max + 1):
        with _double_range(level):
            q, mu, p_pow_n = next(columns)
        row = dict(n=level, q=q, mu_h_match=mu, mu_g_match=mu, mu_from_q=mu, p_pow_n=p_pow_n)
        row["consistent"] = max(_recipe_gaps(q, p), default=0.0) <= tol
        rows.append(row)
    return rows
