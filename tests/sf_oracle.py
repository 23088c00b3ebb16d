"""Second printed form of the nonstandard two-parameter structure function.

Written directly in q and p (no ratio), it carries larger powers than the
ratio-based evaluator of defosc.structure and serves as an independent
cross-check of it.
"""

import math

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
