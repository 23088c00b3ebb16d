"""Exact linkage rows transcribed from the matching conditions.

Independent of defosc.linkage: the row is derived here on Fractions from
the two matching conditions alone, so a table that prints
float(exact value) in every column is checked against values the
package did not compute.
"""

from fractions import Fraction


def matching(qb, pb, X, P) -> tuple:
    """(q, mu) along the mu-free route and the h-side match, written with
    X = Q**(2N) and P = p**N, Q = qb/pb; on Fractions, exact."""
    ratio = qb / pb
    q = pb * P * X * (1 + ratio + X / ratio**2 * (1 + ratio**5)) / 2 - 1
    mu = qb * X * (1 + ratio**2 * X) - 2 / P
    return q, mu


def exact_row(qb: float, pb: float, p: float, level: int) -> dict:
    """One table row: q along the mu-free route, mu from the h-side match.

    The loop closes exactly, so every mu column is this mu and p_pow_n
    is p**N.
    """
    qb, pb, p, n = Fraction(qb), Fraction(pb), Fraction(p), level
    q, mu = matching(qb, pb, (qb / pb) ** (2 * n), p**n)
    return dict(q=q, mu_h_match=mu, mu_g_match=mu, mu_from_q=mu, p_pow_n=p**n)


def assert_rows_are_rounded_exact_values(qb, pb, p, rows) -> None:
    """Every column of every row equals float() of its exact value."""
    for row in rows:
        for key, value in exact_row(qb, pb, p, row["n"]).items():
            assert row[key] == float(value), (row["n"], key, row[key], float(value))
