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
matching conditions along every route they admit, and prove that the
recipe over the target pair reproduces the deformed integers
[n] = (q**n - p**n)/(q - p) for every q and p, so no float check of that
identity runs here.  A non-finite argument raises DomainError naming it;
a value past double range raises EvaluationOverflowError naming the level.
"""

from __future__ import annotations

import itertools
import math
import sys

from .errors import double_range
from .qp import require_nonnegative, require_nonnegative_int, require_positive
from .report import ResidualReport


def _table(qb: float, pb: float, p: float, q_only: bool = False) -> list:
    """Exact columns q + 1, mu and p**N (q + 1 alone when q_only): top
    terms over one bottom, a term a pair of Python ints (k, f) for k f**N.
    With qb = alpha/eps, pb = beta/delta, p = c/gamma and Q = qb/pb = A/B
    in lowest terms, the matching conditions q + 1 = pb P (X + X Q +
    X**2/Q**2 + X**2 Q**3) / 2 and mu = qb (X + Q**2 X**2) - 2/P at
    X = Q**(2N), P = p**N clear to (mu's one negative term last)

        q + 1 = [beta A**2 B**2 (A + B) (c A**2 B**2)**N
                 + beta (A**5 + B**5) (c A**4)**N] / [2 delta A**2 B**3 (gamma B**4)**N],
        mu    = [alpha B**2 (c A**2 B**2)**N + alpha A**2 (c A**4)**N
                 - 2 eps B**2 (gamma B**4)**N] / [eps B**2 (c B**4)**N],
        p**N  = c**N / gamma**N.
    """
    (alpha, eps), (beta, delta), (c, gamma) = (value.as_integer_ratio() for value in (qb, pb, p))
    # reduced once: a factor common to A and B would grow with every power
    common = math.gcd(alpha * delta, eps * beta)
    A, B = alpha * delta // common, eps * beta // common
    mixed, upper, lower = c * (A * B) ** 2, c * A**4, gamma * B**4
    q_column = ((beta * (A * B) ** 2 * (A + B), mixed), (beta * (A**5 + B**5), upper),
                (2 * delta * A**2 * B**3, lower))
    if q_only:
        return [q_column]
    mu_column = ((alpha * B**2, mixed), (alpha * A**2, upper), (-2 * eps * B**2, lower),
                 (eps * B**2, c * B**4))
    return [q_column, mu_column, ((1, c), (1, gamma))]


def _exact_columns(qb: float, pb: float, p: float, first: int, q_only: bool = False):
    """Exact q, mu and p**N at levels first, first + 1, ... on Python ints.

    Yields, per level, the (numerator, denominator) pairs of q, mu and
    p**N, or of q alone when q_only; numerator / denominator is the
    correctly rounded value, the division of Python ints rounds once, and
    raises OverflowError past double range.  Each f of _table is raised
    once at the first level, and each term k f**N is then carried by its f.
    """
    table = _table(qb, pb, p, q_only)
    powers = {f: f**first for f in {f for column in table for _, f in column}}
    values = [[k * powers[f] for k, f in column] for column in table]
    while True:
        (*q_tops, q_bottom), *others = values  # q is q + 1 less its bottom
        yield ((sum(q_tops) - q_bottom, q_bottom), *((sum(top), bottom) for *top, bottom in others))
        values = [[v * f for v, (_, f) in zip(row, column)] for row, column in zip(values, table)]


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
    while True:
        if n & 1:
            power = _mul(power, x)
        n >>= 1
        if not n:  # the last square would go unused
            return power
        x = _mul(x, x)


def _quotient(top: int, bottom: int):  # top / bottom > 0, rounded once to _WIDTH bits
    shift = _WIDTH + bottom.bit_length() - top.bit_length()
    top, bottom = (top << shift, bottom) if shift > 0 else (top, bottom << -shift)
    return top // bottom, -(-top // bottom), -shift


def _sum(x, y, z):  # x + y - z, each term's ends in units of 2**e, rounded outward
    (xl, xh, xe), (yl, yh, ye), (zl, zh, ze) = x, y, z
    e = max(xe, ye, ze) - _WIDTH
    xl, xh = (xl >> s, -(-xh >> s)) if (s := e - xe) > 0 else (xl << -s, xh << -s)
    yl, yh = (yl >> s, -(-yh >> s)) if (s := e - ye) > 0 else (yl << -s, yh << -s)
    zl, zh = (zl >> s, -(-zh >> s)) if (s := e - ze) > 0 else (zl << -s, zh << -s)
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

    Each term k f**N of _table over its column's bottom k' f'**N is
    c F**N, c = |k|/k' and F = f/f' rounded once from the ints, F**N
    carried from the first level (_sum subtracts mu's negative term).
    Ends that round to one normal double decide the value between them,
    since rounding is monotone, and ends past double range its overflow;
    a level where one cannot (a near-tie, a zero, a subnormal) rounds exactly.
    """
    terms = [(_quotient(abs(k), k_bottom), _quotient(f, f_bottom))
             for *tops, (k_bottom, f_bottom) in _table(qb, pb, p, q_only) for k, f in tops]
    values = [_mul(c, _pow(f, first)) for c, f in terms]
    for level in itertools.count(first):
        q = _sum(values[0], values[1], _ONE)
        intervals = (q,) if q_only else (q, _sum(*values[2:5]), values[5])
        rounded = [_decided(*interval) for interval in intervals]
        if math.inf in map(abs, rounded):
            raise OverflowError
        if any(map(math.isnan, rounded)):
            rounded = [n / d for n, d in next(_exact_columns(qb, pb, p, level, q_only))]
        yield rounded
        # each factor has at least _WIDTH bits, so no shift is negative
        values = [(v_lo * f_lo >> (shift := (hi := v_hi * f_hi).bit_length() - _WIDTH),
                   -(-hi >> shift), v_e + f_e + shift)
                  for (v_lo, v_hi, v_e), (_, (f_lo, f_hi, f_e)) in zip(values, terms)]


def check_link_consistency(
    qb: float, pb: float, p: float, level: int, tol: float = 1e-10
) -> ResidualReport:
    """Check that the level's q is formed within double range.

    q along the mu-free route is the correctly rounded exact value, decided
    at the level as in link_table.  The recipe over the target pair
    (p**-N, q p**-N) gives Phi(n+1) = p**n + q Phi(n), which is the deformed
    integer [n+1] for every q and p, so nothing is left to compare: the
    report passes with dim 0, max_abs_residual 0.0 and an empty per_state,
    and echoes tol.  A q <= -p (no oscillator, since [2] = p + q) passes
    too; this check does not decide it.  qb, pb and p must be finite and
    positive, tol >= 0.  A q beyond double range raises
    EvaluationOverflowError naming the level.
    """
    qb, pb, p = require_positive(qb=qb, pb=pb, p=p)
    tol = require_nonnegative(tolerance=tol)
    level = require_nonnegative_int(level=level)  # a Python int, as the kernel's powers need
    with double_range(lambda: f"linkage value leaves the double range at level={level}"):
        next(_columns(qb, pb, p, level, q_only=True))
    return ResidualReport(
        relation=f"link-consistency(qb={qb},pb={pb},p={p},level={level})",
        dim=0,
        margin=0,
        max_abs_residual=0.0,
        tolerance=tol,
        passed=True,
        per_state=[],
    )


def link_table(
    qb: float, pb: float, p: float, n_max: int, tol: float = 1e-10
) -> list[dict]:
    """Per-level linkage table for levels 0..n_max.

    Each row carries the level, the level-consistent q, mu along all
    three routes, p**N, and consistent, which is True on every row: the
    target pair reproduces the deformed integers identically (see
    check_link_consistency).  tol must be >= 0 and decides nothing.
    Every printed value is the correctly rounded exact value: a 128-bit
    interval carried from level to level decides it, and the exact integer
    kernel runs only at a level where one cannot.  The three mu routes
    agree exactly, so mu is printed in all three.  A column beyond double
    range raises EvaluationOverflowError naming the level; no level past
    n_max is formed.
    """
    n_max = require_nonnegative_int(n_max=n_max)
    qb, pb, p = require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative(tolerance=tol)
    rows = []
    # one block for every level; the range goes first, so no level past n_max is formed
    with double_range(lambda: f"linkage value leaves the double range at level={len(rows)}"):
        for level, (q, mu, p_pow_n) in zip(range(n_max + 1), _columns(qb, pb, p, 0)):
            rows.append({"n": level, "q": q, "mu_h_match": mu, "mu_g_match": mu,
                         "mu_from_q": mu, "p_pow_n": p_pow_n, "consistent": True})
    return rows
