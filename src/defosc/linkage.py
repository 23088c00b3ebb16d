"""Linkage between the two-sided deformed Heisenberg algebra and the
symmetric two-parameter oscillator a- a+ - q a+ a- = p**N.

Matching the two-sided coefficient pair to the target (h, g) =
(p**-N, q p**-N) fixes mu and q, but only per level: with qb, pb and p
held constant, the matching value of mu (and of q) changes with the
level N.  The formulas below express mu and q through each other along
every route the matching admits.  Each is written once, with int
literals only, so on Fraction input it returns the exact Fraction; the
level is used as a Python int, because a Fraction raised to a numpy
integer computes its numerator and denominator in wrapping int64.
link_table and check_link_consistency run every row once that way: the
printed columns are float() of the exact values, correctly rounded, and
the loop-closure gaps compare those same exact values, confirming that
the target pair with the level-consistent q reproduces the deformed
integers [n] = (q**n - p**n)/(q - p).  On floats, a value past double range
raises EvaluationOverflowError naming the formula and the level.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError, double_range, finite
from .qp import (
    deformed_integers, relative_gap, require_finite, require_nonnegative,
    require_nonnegative_int, require_positive,
)
from .structure import HGPair, custom_hg, hg_for_two_sided, sf_table
from .verify import ResidualReport


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
    require_positive(qb=qb, pb=pb, p=p)
    require_nonnegative_int(level=level)
    ratio, n = qb / pb, int(level)
    with _double_range("mu_from_g_match", level):
        return finite(2 * q * p**-n - pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2)))


def mu_from_q(qb: float, pb: float, q: float, level: int) -> float:
    """mu through q alone, p eliminated between the two matching routes.

    mu = pb Q**(2N) [Q**(2N-2) (q Q**5 - 1) + q Q - 1] / (1 + q).
    """
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
# against the deformed integers, trimmed while q**depth leaves double range.
SF_LEVELS = 12


def _exact(**params: float) -> list[Fraction]:
    # Fraction() of nan or inf raises a bare ValueError or OverflowError
    require_positive(**params)
    require_finite(**params)
    return [Fraction(value) for value in params.values()]


def _row(
    qb: Fraction, pb: Fraction, p: Fraction, level: int
) -> tuple[dict[str, Fraction], list[float]]:
    # The matching value of mu is (huge coefficient term) - 2 p**-N; at
    # deformed corners the two differ by more than 2**53, so a double
    # rounds the small term away and the inversion back to (q, p**N)
    # divides by pure cancellation noise.  Every formula is a rational
    # function of exactly representable inputs, so the row is computed
    # on Fractions: the exact columns, and gaps 0-6 between them.
    q = q_from_p(qb, pb, p, level)
    mu = mu_from_h_match(qb, pb, p, level)
    mu_g = mu_from_g_match(qb, pb, q, p, level)
    mu_q = mu_from_q(qb, pb, q, level)
    q_back, pn_back = q_and_pn_from_mu(qb, pb, mu, level)
    # a per-level mu keeps the label from printing mu, past 4300 digits a ValueError
    pair = hg_for_two_sided(qb, pb, lambda n: mu)
    pairs = (
        (mu_g, mu),
        (mu_q, mu),
        (q_from_mu(qb, pb, p, mu, level), q),
        (q_back, q),
        (pn_back, p**level),
        (pair.h(level), p**-level),
        (pair.g(level), q * p**-level),
    )
    columns = dict(q=q, mu_h_match=mu, mu_g_match=mu_g, mu_from_q=mu_q, p_pow_n=pn_back)
    # a closed loop gives equal normalized Fractions, compared without a gcd
    return columns, [0.0 if a == b else float(relative_gap(a, b)) for a, b in pairs]


def _exceeds_double_range(base: float, exponent: int) -> bool:
    try:
        return base**exponent > 1e300
    except OverflowError:  # past the largest double, so out of range too
        return True


def _recipe_gap(q: float, p: float) -> tuple[int, list[float]]:
    # gap 7 and its depth; no gap when the target is no oscillator (q <= 0)
    # or when max(q, p, 2) itself exceeds 1e300
    depth = SF_LEVELS if q > 0 else 0
    while depth and _exceeds_double_range(max(q, p, 2.0), depth):
        depth -= 1
    if not depth:
        return 0, []
    target = HGPair(lambda n: p**-n, lambda n: q * p**-n, "oscillator-target")
    table = sf_table(custom_hg(target), depth)
    integers = deformed_integers(q, p)
    return depth, [max(relative_gap(phi, integers(n)) for n, phi in enumerate(table))]


def check_link_consistency(
    qb: float, pb: float, p: float, level: int, tol: float = 1e-10
) -> ResidualReport:
    """Close the matching loop at one level and certify its consequences.

    Starting from q along the mu-free route and mu from the h-side match,
    the sub-checks recorded in per_state are, in order:

      0  the g-side match reproduces mu
      1  mu_from_q reproduces mu
      2  q_from_mu reproduces q
      3  q_and_pn_from_mu reproduces q
      4  q_and_pn_from_mu reproduces p**level
      5  two-sided h at this level equals p**-level
      6  two-sided g at this level equals q p**-level
      7  recipe over the target pair (p**-N, q p**-N) equals the deformed
         integers [n] for n = 0..SF_LEVELS (level-consistent constant q)

    The row is computed once, on Fractions (the link_table row), so gaps
    0-6 are exact: mu absorbs terms whose spread exceeds the double
    mantissa at deformed corners, and no float route can certify the
    closure there.  Gap 7 exercises the float recipe, which carries no
    cancellation, at float() of the exact q.  The matching q always
    exceeds -1 but can reach zero or negative values; the target then no
    longer describes an oscillator, so gap 7 only runs when q > 0.  All
    gaps are relative against max(1, |values|); the depth of gap 7 is
    trimmed while max(q, p, 2)**depth exceeds 1e300 or overflows, down
    to 0, where gap 7 is left out.  qb, pb and p must be finite and
    positive.  A q beyond double range raises EvaluationOverflowError
    naming the level.
    """
    exact = _exact(qb=qb, pb=pb, p=p)
    require_nonnegative(tolerance=tol)
    require_nonnegative_int(level=level)
    columns, gaps = _row(*exact, int(level))  # int: see the module docstring
    with _double_range("linkage value", level):
        q = float(columns["q"])
    depth, recipe = _recipe_gap(q, p)
    gaps += recipe
    worst = max(gaps)
    return ResidualReport(
        relation=f"link-consistency(qb={qb},pb={pb},p={p},level={level})",
        dim=depth,
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
    three routes, the reconstructed p**N, and the loop-closure verdict of
    check_link_consistency.  The row is computed once, on Fractions, and
    each column is float() of its exact value, so every printed value is
    correctly rounded; `consistent` compares those same exact values.  A
    column beyond double range raises EvaluationOverflowError naming the
    level.
    """
    require_nonnegative_int(n_max=n_max)
    exact = _exact(qb=qb, pb=pb, p=p)
    require_nonnegative(tolerance=tol)
    rows = []
    for level in range(n_max + 1):
        columns, gaps = _row(*exact, level)
        with _double_range("linkage value", level):
            row = {"n": level, **{key: float(value) for key, value in columns.items()}}
        gaps += _recipe_gap(row["q"], p)[1]
        row["consistent"] = max(gaps) <= tol
        rows.append(row)
    return rows
