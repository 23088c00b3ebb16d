"""Structure functions near and away from the undeformed point, against
50-digit mpmath, and the reconstruction recipe against its exact recursion.

The ratio Q is 1 exactly, or 1 +- d with d log-uniform over [1e-15, 1]
(below 1, d stops at 10**-0.1, so Q >= 0.2); the base p lies in
[0.3, 3], and two-parameter models take (p Q, p); the level n runs over
1..2000 with |5 n ln Q| <= 600, so that every power of Q the evaluators
form stays in double range.  Where the exact value lies well inside
double range, the relative error is at most 4 n 2**-52: the rounded
ratio q/p alone moves Q**(4n) by up to 2n roundings.
"""

import math
import re
import sys
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from defosc import (
    EvaluationOverflowError,
    arik_coon,
    biedenharn_macfarlane,
    chakrabarti_jagannathan,
    custom_hg,
    hg_for_q_ha,
    hg_for_two_sided,
    nonstd_q,
    nonstd_qp,
    sf_eval,
    sf_table,
    two_sided_equal_hg,
)
from sf_oracle import exact_phi

MODELS = {
    "arik-coon": lambda q, p: arik_coon(q),
    "biedenharn-macfarlane": lambda q, p: biedenharn_macfarlane(q),
    "cj": chakrabarti_jagannathan,
    "nonstd-q": lambda q, p: nonstd_q(q),
    "nonstd-qp": nonstd_qp,
    "two-sided-equal": two_sided_equal_hg,
}
IN_RANGE = (mpf("1e-290"), mpf("1e290"))


@st.composite
def ratios(draw):
    side = draw(st.sampled_from((-1, 0, 1)))
    if side == 0:
        return 1.0
    exponent = draw(st.floats(-15.0, 0.0 if side > 0 else -0.1))
    return 1.0 + side * 10.0**exponent


@given(
    model=st.sampled_from(sorted(MODELS)),
    ratio=ratios(),
    base=st.floats(0.3, 3.0),
    n=st.integers(1, 2000),
)
@settings(max_examples=300, deadline=None)
@example(model="cj", ratio=1 + 2e-9, base=1.0, n=30)  # next to the old 1e-9 switch
@example(model="two-sided-equal", ratio=1 + 9e-7, base=1.0, n=1000)  # the old n/qb
@example(model="nonstd-q", ratio=1 - 1e-12, base=1.0, n=60)
def test_structure_functions_match_mpmath(model, ratio, base, n):
    if ratio != 1.0:
        n = max(1, min(n, int(120 / abs(math.log(ratio)))))
    q, p = base * ratio, base
    if model in ("arik-coon", "biedenharn-macfarlane", "nonstd-q"):
        q = ratio
    exact = exact_phi(model, n, q, p)
    if not IN_RANGE[0] <= exact <= IN_RANGE[1]:
        return
    got = sf_eval(MODELS[model](q, p), n)
    error = abs(mpf(got) - exact) / exact
    assert error <= 4 * n * 2.0**-52, (model, q, p, n, float(error))


@given(
    qb=st.floats(0.25, 4.0),
    pb=st.floats(0.25, 4.0),
    mu=st.one_of(st.just(None), st.floats(-1.0, 1.0)),
    n=st.integers(1, 300),
)
@settings(max_examples=100, deadline=None)
@example(qb=2.0, pb=1.0, mu=0.0, n=120)
@example(qb=0.9, pb=1.0, mu=None, n=300)
@example(qb=0.2578125, pb=0.2578125, mu=0.5078125, n=146)  # Phi(146) overflows
def test_recipe_is_within_three_roundings_per_level(qb, pb, mu, n):
    # Phi(k+1) = (g(k) / h(k)) Phi(k) + 1 / h(k): the first term rounds
    # twice, the second once and their sum once; with positive
    # coefficients nothing cancels, so the relative error grows by at most
    # 3 * 2**-53 per level (first order) against the same recursion run
    # exactly on the same float h and g
    pair = hg_for_q_ha(qb) if mu is None else hg_for_two_sided(qb, pb, mu)
    ratio = qb if mu is None else qb / pb
    if ratio != 1.0:  # keep every power the pair forms in double range
        n = max(1, min(n, int(160 / abs(math.log(ratio)))))
    h = [pair.h(k) for k in range(n)]
    g = [0.0] + [pair.g(k) for k in range(1, n)]
    assume(all(1e-280 < value < 1e280 for value in h + g[1:]))
    exact = [Fraction(0)]
    for k in range(n):
        exact.append((1 + Fraction(g[k]) * exact[k]) / Fraction(h[k]))
    try:
        got = sf_table(custom_hg(pair), n)
    except EvaluationOverflowError as exc:
        # right only where the exact Phi at the level it names is, within
        # the same bound, at or past the largest double
        level = int(re.search(r"overflowed at n=(\d+)$", str(exc)).group(1))
        bound = 1 - 3 * level * Fraction(1, 2**53)
        assert exact[level] >= Fraction(sys.float_info.max) * bound, (qb, pb, mu, level)
        return
    for k in range(1, n + 1):
        assume(Fraction(1, 10**280) < exact[k] < 10**280)
        error = abs(Fraction(got[k]) - exact[k]) / exact[k]
        assert error <= 3 * k * Fraction(1, 2**53), (qb, pb, mu, k, float(error))
