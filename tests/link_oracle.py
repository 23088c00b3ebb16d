"""Exact linkage rows and routes transcribed from the matching conditions.

Independent of defosc.linkage: the row is derived here on Fractions from
the two matching conditions alone, so a table that prints
float(exact value) in every column is checked against values the
package did not compute.  free_routes writes every route between q and
mu that the matching admits; the tests prove that they agree.
target_recipe and deformed_integer state the oscillator the matching
targets: the recipe over (p**-N, q p**-N) and the integers [n] it
reproduces for every q and p.
"""

from fractions import Fraction


def matching(qb, pb, X, P) -> tuple:
    """(q, mu) along the mu-free route and the h-side match, written with
    X = Q**(2N) and P = p**N, Q = qb/pb; on Fractions, exact."""
    ratio = qb / pb
    q = pb * P * X * (1 + ratio + X / ratio**2 * (1 + ratio**5)) / 2 - 1
    mu = qb * X * (1 + ratio**2 * X) - 2 / P
    return q, mu


def free_routes(qb, pb, X, P) -> dict:
    """Every route the matching admits, with Q**(2N) = X and p**N = P as
    free rationals, Q = qb/pb: mu and q through each other, the inversion
    to (q, p**N), the two-sided pair at the matching mu, and the mu that
    matches the one-parameter target h = 1, g = q instead."""
    Q = qb / pb
    q, mu = matching(qb, pb, X, P)
    denominator = pb * Q * X * (1 + Q**2 * X) - mu
    return dict(
        q_from_p=q,
        mu_from_h_match=mu,
        mu_from_g_match=2 * q / P - pb * X * (1 + X / Q**2),
        mu_from_q=pb * X * (X / Q**2 * (q * Q**5 - 1) + q * Q - 1) / (1 + q),
        q_from_mu=P / 2 * (mu + pb * X * (1 + X / Q**2)),
        q_and_pn_from_mu=((pb * X * (1 + X / Q**2) + mu) / denominator, 2 / denominator),
        hg_for_two_sided=(qb * X * (1 + Q**2 * X) / 2 - mu / 2, pb * X * (1 + X / Q**2) / 2 + mu / 2),
        mu_for_arik_coon_target=pb * Q * X * (1 + Q**2 * X) - 2,
    )


def routes_at(qb, pb, p, level) -> dict:
    """free_routes at the level: X = Q**(2N) and P = p**N, on Fractions."""
    qb, pb, p = Fraction(qb), Fraction(pb), Fraction(p)
    return free_routes(qb, pb, (qb / pb) ** (2 * level), p**level)


def routes_at_q(qb, pb, level, q) -> dict:
    """free_routes at the level, with p**N chosen so that the matching q is
    the given q (> -1): the routes that take q as an input read it there."""
    Q = qb / pb
    X = Q ** (2 * level)
    free = free_routes(qb, pb, X, 2 * (q + 1) / (pb * X * (1 + Q + X / Q**2 * (1 + Q**5))))
    assert free["q_from_p"] == q
    return free


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


def target_recipe(q, p, m: int) -> list:
    """Phi(0..m) of the recipe Phi(n+1) = (1 + g(n) Phi(n)) / h(n) over the
    target pair h(n) = p**-n, g(n) = q p**-n, Phi(0) = 0; on Fractions, exact."""
    phi = [Fraction(0)]
    for n in range(m):
        h = p**-n
        phi.append((1 + q * h * phi[-1]) / h)
    return phi


def deformed_integer(q, p, n: int):
    """[n] = (q**n - p**n) / (q - p), n p**(n-1) at q = p; exact on Fractions."""
    return (q**n - p**n) / (q - p) if q != p else n * p ** (n - 1) if n else Fraction(0)
