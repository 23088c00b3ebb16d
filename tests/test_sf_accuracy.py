"""Structure functions near and away from the undeformed point, against
50-digit mpmath.

The ratio Q is 1 exactly, or 1 +- d with d log-uniform over [1e-15, 1]
(below 1, d stops at 10**-0.1, so Q >= 0.2); the base p lies in
[0.3, 3], and two-parameter models take (p Q, p); the level n runs over
1..2000 with |5 n ln Q| <= 600, so that every power of Q the evaluators
form stays in double range.  Where the exact value lies well inside
double range, the relative error is at most 4 n 2**-52: the rounded
ratio q/p alone moves Q**(4n) by up to 2n roundings.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from defosc import (
    arik_coon,
    biedenharn_macfarlane,
    chakrabarti_jagannathan,
    nonstd_q,
    nonstd_qp,
    sf_eval,
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
