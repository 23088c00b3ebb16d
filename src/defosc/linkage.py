"""Linkage between the two-sided deformed Heisenberg algebra and the
symmetric two-parameter oscillator a- a+ - q a+ a- = p**N.

Matching the two-sided coefficient pair to the target (h, g) =
(p**-N, q p**-N) fixes mu and q, but only per level: with qb, pb and p
held constant, the matching value of mu (and of q) changes with the
level N.  The formulas below express mu and q through each other along
every route the matching admits; that the routes agree is an identity,
proved on Fractions in the tests.  Each is written once, with int
literals only, so on Fraction input it returns the exact Fraction; the
level is used as a Python int, because a Fraction or an int raised to a
numpy integer computes in wrapping int64.  link_table and
check_link_consistency run none of them: one private kernel writes q,
mu and p**N on Python ints over cleared denominators, carrying powers
from level to level, and prints numerator / denominator of each,
correctly rounded; the tests prove its values equal to q_from_p,
mu_from_h_match and p**N on Fractions.  check_link_consistency needs
only q.  Both then check that the target pair with the level-consistent
q reproduces the deformed integers [n] = (q**n - p**n)/(q - p).  A
non-finite argument raises DomainError naming it; on floats, a value
past double range raises EvaluationOverflowError naming the formula and
the level.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError, double_range, finite
from .qp import (
    deformed_integers, relative_gap, require_finite, require_nonnegative,
    require_nonnegative_int, require_positive,
)
from .report import ResidualReport
from .structure import HGPair, custom_hg, sf_table


def _double_range(what: str, level: int):
    return double_range(lambda: f"{what} leaves the double range at level={level}")


def mu_from_h_match(qb: float, pb: float, p: float, level: int) -> float:
    """mu forced by matching the a- a+ coefficient: h(N) = p**-N.

    mu = qb Q**(2N) (1 + Q**(2N+2)) - 2 p**-N,  Q = qb/pb.
    """
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("mu_from_h_match", level):
        return finite(qb * ratio ** (2 * n) * (1 + ratio ** (2 * n + 2)) - 2 * p**-n)


def mu_from_g_match(qb: float, pb: float, q: float, p: float, level: int) -> float:
    """mu forced by matching the a+ a- coefficient: g(N) = q p**-N.

    mu = 2 q p**-N - pb Q**(2N) (1 + Q**(2N-2)).
    """
    require_finite(qb=qb, pb=pb, q=q, p=p)
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("mu_from_g_match", level):
        return finite(2 * q * p**-n - pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2)))


def mu_from_q(qb: float, pb: float, q: float, level: int) -> float:
    """mu through q alone, p eliminated between the two matching routes.

    mu = pb Q**(2N) [Q**(2N-2) (q Q**5 - 1) + q Q - 1] / (1 + q).
    """
    require_finite(qb=qb, pb=pb, q=q)
    require_positive(qb=qb, pb=pb)
    require_nonnegative_int(level=level)
    if q == -1:
        raise PoleError("mu_from_q has a pole at q = -1")
    ratio, n = qb / pb, int(level)
    with _double_range("mu_from_q", level):
        bracket = ratio ** (2 * n - 2) * (q * ratio**5 - 1) + q * ratio - 1
        return finite(pb * ratio ** (2 * n) * bracket / (1 + q))


def q_from_p(qb: float, pb: float, p: float, level: int) -> float:
    """Target q through p, mu eliminated.

    q = -1 + pb p**N Q**(2N) [1 + Q + Q**(2N-2) (1 + Q**5)] / 2.
    """
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("q_from_p", level):
        bracket = 1 + ratio + ratio ** (2 * n - 2) * (1 + ratio**5)
        return finite(-1 + pb / 2 * p**n * ratio ** (2 * n) * bracket)


def q_from_mu(qb: float, pb: float, p: float, mu: float, level: int) -> float:
    """Target q through mu: q = p**N [mu + pb Q**(2N) (1 + Q**(2N-2))] / 2."""
    require_finite(qb=qb, pb=pb, p=p, mu=mu)
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("q_from_mu", level):
        return finite(p**n / 2 * (mu + pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2))))


def q_and_pn_from_mu(qb: float, pb: float, mu: float, level: int) -> tuple[float, float]:
    """Target (q, p**N) from the two-sided parameters alone.

    q    = [pb Q**(2N) (1 + Q**(2N-2)) + mu] / [pb Q**(2N+1) (1 + Q**(2N+2)) - mu],
    p**N = 2 / [pb Q**(2N+1) (1 + Q**(2N+2)) - mu].
    """
    require_finite(qb=qb, pb=pb, mu=mu)
    require_positive(qb=qb, pb=pb)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("q_and_pn_from_mu", level):
        denominator = pb * ratio ** (2 * n + 1) * (1 + ratio ** (2 * n + 2)) - mu
        if denominator == 0:
            raise PoleError(
                f"q_and_pn_from_mu denominator vanishes at mu={mu}, level={level}"
            )
        numerator = pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2)) + mu
        return finite(numerator / denominator), finite(2 / denominator)


def mu_for_arik_coon_target(qb: float, pb: float, level: int) -> float:
    """mu matching the one-parameter target h = 1, g = q (p-power absent).

    mu = -2 + pb Q**(2N+1) (1 + Q**(2N+2)).
    """
    require_positive(qb=qb, pb=pb)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("mu_for_arik_coon_target", level):
        return finite(-2 + pb * ratio ** (2 * n + 1) * (1 + ratio ** (2 * n + 2)))


# Depth of the recipe check in check_link_consistency: Phi(0..SF_LEVELS)
# against the deformed integers, trimmed while its values leave double range.
SF_LEVELS = 12


def _exact_columns(qb: float, pb: float, p: float, first: int, q_only: bool = False):
    """Exact q, mu and p**N at levels first, first + 1, ... on Python ints.

    Yields, per level, the (numerator, denominator) pairs of q, mu and
    p**N, or of q alone when q_only; numerator / denominator is the
    correctly rounded value, the division float(Fraction) performs, and
    raises OverflowError past double range as it does.  With
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
    (alpha, eps), (beta, delta), (c, gamma) = (
        Fraction(value).as_integer_ratio() for value in (qb, pb, p)
    )
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


def _exceeds_double_range(base: float, exponent: int) -> bool:
    try:
        return base**exponent > 1e300
    except OverflowError:  # past the largest double, so out of range too
        return True


def _recipe_gaps(q: float, p: float) -> list[float]:
    # the gap at each level n = 0..depth; none when the target is no
    # oscillator (q <= 0); the trim keeps below 1e300 the bounds of [n]
    # (max(q, p, 2)**depth) and of h(n) (p**-depth)
    depth = SF_LEVELS if q > 0 else 0
    while depth and _exceeds_double_range(max(q, p, 2.0, 1 / p), depth):
        depth -= 1
    if not depth:
        return []
    target = HGPair(lambda n: p**-n, lambda n: q * p**-n, "oscillator-target")
    table = sf_table(custom_hg(target), depth)
    integers = deformed_integers(q, p)
    return [relative_gap(phi, integers(n)) for n, phi in enumerate(table)]


def check_link_consistency(
    qb: float, pb: float, p: float, level: int, tol: float = 1e-10
) -> ResidualReport:
    """Check that the level-consistent q makes the target an oscillator.

    q along the mu-free route is computed exactly by the integer kernel,
    from direct powers at the level, and rounded once.  The recipe over
    the target pair (p**-N, q p**-N) must then reproduce the deformed
    integers [n] for n = 0..SF_LEVELS; per_state holds the gap at each n,
    relative against max(1, |values|).  The matching q always exceeds -1
    but can reach zero or negative values; the target then no longer
    describes an oscillator, so the recipe only runs when q > 0.  Its
    depth (dim) is trimmed, down to 0, where per_state is empty, while
    max(q, p, 2)**depth or p**-depth exceeds 1e300 or overflows.  qb, pb and p must be finite and positive.
    A q beyond double range raises EvaluationOverflowError naming the level.
    """
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative(tolerance=tol)
    require_nonnegative_int(level=level)
    ((top, bottom),) = next(_exact_columns(qb, pb, p, int(level), q_only=True))
    with _double_range("linkage value", level):
        q = top / bottom
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
    q, mu and p**N are computed exactly by the integer kernel, which
    carries its powers from level to level, and each column is its
    numerator / denominator, so every printed value is correctly rounded;
    the three mu routes agree exactly, so mu is printed in all three.  A
    column beyond double range raises EvaluationOverflowError naming the
    level.
    """
    require_nonnegative_int(n_max=n_max)
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative(tolerance=tol)
    rows = []
    columns = _exact_columns(qb, pb, p, 0)
    for level in range(n_max + 1):
        # mu is (huge coefficient term) - 2 p**-N; at deformed corners the
        # two differ by more than 2**53, so only the exact value rounds right
        exact = next(columns)
        with _double_range("linkage value", level):
            q, mu, p_pow_n = (top / bottom for top, bottom in exact)
        row = dict(n=level, q=q, mu_h_match=mu, mu_g_match=mu, mu_from_q=mu, p_pow_n=p_pow_n)
        row["consistent"] = max(_recipe_gaps(q, p), default=0.0) <= tol
        rows.append(row)
    return rows
