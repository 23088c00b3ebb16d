"""Independent forms of the structure functions, as cross-checks.

The paper's second printed form of the nonstandard two-parameter
structure function and its closed form of the equal-coefficient
two-sided one, in doubles: each carries other powers than the evaluators
of defosc.structure.  Then the printed forms at 50 digits, in mpmath, as
the reference the float evaluators are measured against.
"""

import math

import mpmath
from mpmath import mpf

from defosc import EvaluationOverflowError, qp_number
from defosc.qp import require_nonnegative, require_positive


def nonstd_qp_sf_explicit(n: int, q: float, p: float) -> float:
    """Phi(n) of the nonstandard oscillator realizing p X P - q P X = i."""
    require_nonnegative(n=n)
    require_positive(q=q, p=p)
    if n == 0:
        return 0.0
    try:
        numerator = 2.0 * q ** (-n) * p ** (5 * n - 3)
        denominator = (q ** (2 * n - 2) + p ** (2 * n - 2)) * (
            q ** (2 * n) + p ** (2 * n)
        )
        bracket = 1.0 + qp_number(2 * n - 1, q, p) / (q * p) ** (n - 1)
        value = numerator / denominator * bracket
    except OverflowError as exc:
        raise EvaluationOverflowError(
            f"explicit two-parameter form overflowed at n={n}, q={q}, p={p}"
        ) from exc
    if not math.isfinite(value):
        raise EvaluationOverflowError(
            f"explicit two-parameter form overflowed at n={n}, q={q}, p={p}"
        )
    return value


def two_sided_equal_sf_closed_form(n: int, qb: float, pb: float) -> float:
    """Closed-form Phi(n) of the equal-coefficient two-sided oscillator.

    Phi(n) = 4 Q**2 / (pb (1+Q**2)(1+Q**3))
           - 4 / (pb (1+Q)) * [ (1 - Q**(2-2n)) / (1 - Q**2)
             + sum_{j=1}^{n-1} (1+Q**5) / (Q**2 (1+Q) + Q**(2j) (1+Q**5)) ]

    with Q = qb/pb != 1; at Q = 1 the bracket is 0/0.  It cancels near
    Q = 1, so it serves as a cross-check away from that point only.
    """
    require_nonnegative(n=n)
    require_positive(qb=qb, pb=pb)
    if n == 0:
        return 0.0
    ratio = qb / pb
    head = 4.0 * ratio**2 / (pb * (1.0 + ratio**2) * (1.0 + ratio**3))
    bracket = (1.0 - ratio ** (2 - 2 * n)) / (1.0 - ratio**2)
    r5 = 1.0 + ratio**5
    base = ratio**2 * (1.0 + ratio)
    for j in range(1, n):
        bracket += r5 / (base + ratio ** (2 * j) * r5)
    return head - 4.0 / (pb * (1.0 + ratio)) * bracket


# --------------------------------------------------------------------------
# 50-digit references, from the exact values of the double parameters
# --------------------------------------------------------------------------

mpmath.mp.dps = 50


def exact_deformed_integer(m: int, q, p) -> mpf:
    q, p = mpf(q), mpf(p)
    if q == p:
        return m * q ** (m - 1)
    return (q**m - p**m) / (q - p)


def exact_nonstd_qp(n: int, q, p) -> mpf:
    # the second printed form, written directly in q and p
    q, p = mpf(q), mpf(p)
    prefactor = 2 * q ** (-n) * p ** (5 * n - 3)
    denominator = (q ** (2 * n - 2) + p ** (2 * n - 2)) * (q ** (2 * n) + p ** (2 * n))
    bracket = 1 + exact_deformed_integer(2 * n - 1, q, p) / (q * p) ** (n - 1)
    return prefactor / denominator * bracket


def exact_two_sided_equal(n: int, qb, pb) -> mpf:
    # the defining sum Phi(n) = sum_{k<n} 1/h(k)
    qb, pb = mpf(qb), mpf(pb)
    ratio = qb / pb
    return mpmath.fsum(
        4 / (pb * ratio ** (2 * k) * ((ratio + 1) + ratio ** (2 * k - 2) * (ratio**5 + 1)))
        for k in range(n)
    )


def exact_phi(model: str, n: int, q: float, p: float) -> mpf:
    """Phi(n) of a catalog model at parameters (q, p); one-parameter
    models read q alone."""
    if model == "arik-coon":
        return exact_deformed_integer(n, q, 1)
    if model == "biedenharn-macfarlane":
        return exact_deformed_integer(n, q, 1 / mpf(q))
    if model == "cj":
        return exact_deformed_integer(n, q, p)
    if model == "nonstd-q":
        return exact_nonstd_qp(n, q, 1)
    if model == "nonstd-qp":
        return exact_nonstd_qp(n, q, p)
    if model == "two-sided-equal":
        return exact_two_sided_equal(n, q, p)
    raise ValueError(f"no reference for model {model!r}")
