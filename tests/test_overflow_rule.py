"""No bare error escapes the public numeric API.

Parameters are drawn log-uniform over the positive doubles, from the
smallest subnormal up to 1.7e308, and levels from 0 to 700.  Every call
returns a finite value (or a report), or raises a DeformedAlgebraError: a
power past the largest double, a product that turns inf and a divisor that
underflows to 0.0 all reach the caller as EvaluationOverflowError.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defosc import (
    DeformedAlgebraError,
    FockRep,
    ResidualReport,
    arik_coon,
    biedenharn_macfarlane,
    build_ladder,
    build_xp,
    chakrabarti_jagannathan,
    check_link_consistency,
    custom_hg,
    equal_hg_special_case,
    harmonic,
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    qp_number,
    sf_eval,
    sf_table,
    two_sided_equal_hg,
    two_sided_equal_sf,
    verify_hg,
)
from defosc.linkage import (
    mu_for_arik_coon_target,
    mu_from_g_match,
    mu_from_h_match,
    mu_from_q,
    q_and_pn_from_mu,
    q_from_mu,
    q_from_p,
)

# numpy warns where a band product passes the largest double; the property
# judges what each call returns or raises
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

POSITIVE = st.floats(-323.3, 308.23).map(lambda e: max(5e-324, 10.0**e))
LEVEL = st.integers(0, 700)


def assert_finite_or_typed(call):
    try:
        result = call()
    except DeformedAlgebraError:
        return
    if isinstance(result, (FockRep, ResidualReport)):
        return
    values = result if isinstance(result, (list, tuple)) else [result]
    assert all(math.isfinite(value) for value in values), result


@given(q=POSITIVE, p=POSITIVE, n=LEVEL)
@settings(max_examples=300, deadline=None)
def test_deformed_integers_and_the_equal_case(q, p, n):
    assert_finite_or_typed(lambda: qp_number(n, q, p))
    assert_finite_or_typed(lambda: two_sided_equal_sf(q, p, n))
    for which in (0, 1):  # qb == pb is a DomainError
        assert_finite_or_typed(lambda: equal_hg_special_case(q, p)[which](n))


@given(qb=POSITIVE, pb=POSITIVE, q=POSITIVE, p=POSITIVE, mu=POSITIVE, level=LEVEL)
@settings(max_examples=300, deadline=None)
def test_linkage_formulas_on_floats(qb, pb, q, p, mu, level):
    for call in (
        lambda: mu_from_h_match(qb, pb, p, level),
        lambda: mu_from_g_match(qb, pb, q, p, level),
        lambda: mu_from_q(qb, pb, q, level),
        lambda: q_from_p(qb, pb, p, level),
        lambda: q_from_mu(qb, pb, p, mu, level),
        lambda: q_and_pn_from_mu(qb, pb, mu, level),
        lambda: mu_for_arik_coon_target(qb, pb, level),
    ):
        assert_finite_or_typed(call)


@given(q=POSITIVE, p=POSITIVE, mu=POSITIVE, n=LEVEL)
@settings(max_examples=60, deadline=None)
def test_structure_functions_of_every_model(q, p, mu, n):
    constructors = (
        harmonic,
        lambda: arik_coon(q),
        lambda: biedenharn_macfarlane(q),
        lambda: chakrabarti_jagannathan(q, p),
        lambda: jannussis_mu(mu),
        lambda: nonstd_q(q),
        lambda: nonstd_qp(q, p),
        lambda: two_sided_equal_hg(q, p),
        lambda: custom_hg(hg_for_two_sided(q, p, mu)),
    )
    for model in constructors:
        assert_finite_or_typed(lambda: sf_eval(model(), n))
        assert_finite_or_typed(lambda: sf_table(model(), n))


@given(q=POSITIVE, p=POSITIVE, mu=POSITIVE, dim=st.integers(2, 700))
@settings(max_examples=100, deadline=None)
def test_dressing_and_coefficient_checks(q, p, mu, dim):
    rep = build_ladder(harmonic(), dim)
    assert_finite_or_typed(lambda: build_xp(rep, q))
    for pair in (hg_for_q_ha(q), hg_for_qp_ha(q, p), hg_for_two_sided(q, p, mu)):
        assert_finite_or_typed(lambda: verify_hg(rep, pair))


# The exact certificate's Fractions at these corners grow with the level
# (3 s at level 40), so the link check is swept over the first levels only.
@given(qb=POSITIVE, pb=POSITIVE, p=POSITIVE, level=st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_link_check(qb, pb, p, level):
    assert_finite_or_typed(lambda: check_link_consistency(qb, pb, p, level))
