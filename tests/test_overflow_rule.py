"""No bare error escapes the public numeric API.

Parameters are drawn log-uniform over the positive doubles, from the
smallest subnormal up to 1.7e308, and levels from 0 to 700.  Every call
returns a finite value (or a report), or raises a DeformedAlgebraError: a
power past the largest double, a product that turns inf and a divisor that
underflows to 0.0 all reach the caller as EvaluationOverflowError.
"""

import math
from fractions import Fraction

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
    verify_hg,
    verify_q_ha,
    verify_qp_ha,
    verify_two_sided,
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
    assert_finite_or_typed(lambda: sf_eval(two_sided_equal_hg(q, p), n))
    for which in (0, 1):  # qb == pb is a DomainError
        assert_finite_or_typed(lambda: equal_hg_special_case(q, p)[which](n))


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


# The exact q at these corners grows with the level (0.6 s at level 200),
# so the link check is swept over levels 0-64.
@given(qb=POSITIVE, pb=POSITIVE, p=POSITIVE, level=st.integers(0, 64))
@settings(max_examples=30, deadline=None)
def test_link_check(qb, pb, p, level):
    assert_finite_or_typed(lambda: check_link_consistency(qb, pb, p, level))


# An int or Fraction past double range meets a float where a ratio pair forms
# Q = qb/pb, qb/2, pb/2 and mu/2, and where an X/P check reads its relation's
# coefficients, a constant mu or pb; each names what overflowed.
BIG = 10**400
TINY = Fraction(1, BIG)
FORMING = " overflowed forming their constants"
READING = " overflowed as a float"
PAST_RANGE = {
    "hg_for_qp_ha(BIG, 1)": (
        lambda: hg_for_qp_ha(BIG, 1), f"coefficients of qp-ha(q={BIG},p=1){FORMING}"),
    "hg_for_qp_ha(1.0, TINY)": (
        lambda: hg_for_qp_ha(1.0, TINY), f"coefficients of qp-ha(q=1.0,p={TINY}){FORMING}"),
    "hg_for_two_sided(BIG, 1, 0)": (
        lambda: hg_for_two_sided(BIG, 1, 0),
        f"coefficients of two-sided(qb={BIG},pb=1,mu=0){FORMING}"),
    "hg_for_two_sided(1.05, 1.0, BIG)": (
        lambda: hg_for_two_sided(1.05, 1.0, BIG),
        f"coefficients of two-sided(qb=1.05,pb=1.0,mu={BIG}){FORMING}"),
    "nonstd_q(Fraction(BIG))": (
        lambda: nonstd_q(Fraction(BIG)), f"coefficients of qp-ha(q={BIG},p=1.0){FORMING}"),
    "verify_q_ha(Fraction(BIG))": (
        lambda: verify_q_ha(Fraction(BIG)), f"coefficients of qp-ha(q={BIG},p=1.0){FORMING}"),
    "verify_qp_ha(BIG, BIG)": (
        lambda: verify_qp_ha(BIG, BIG), f"coefficients of qp-ha(q={BIG},p={BIG}){FORMING}"),
    "verify_two_sided(1.05, 1.0, BIG)": (
        lambda: verify_two_sided(1.05, 1.0, BIG),
        f"coefficients of two-sided(qb=1.05,pb=1.0,mu={BIG}){FORMING}"),
    "verify_q_ha(1.05, check_q=BIG)": (
        lambda: verify_q_ha(1.05, check_q=BIG),
        f"P X coefficient of q-ha(q=1.05,check_q={BIG}){READING}"),
    "verify_qp_ha(1.05, 1.0, check_p=BIG)": (
        lambda: verify_qp_ha(1.05, 1.0, check_p=BIG),
        f"X P coefficient of qp-ha(q=1.05,p=1.0,check_q=1.05,check_p={BIG}){READING}"),
    "verify_two_sided(1.05, 1.0, 0.1, check_mu=BIG)": (
        lambda: verify_two_sided(1.05, 1.0, 0.1, check_mu=BIG),
        f"constant mu in 1 + mu H of two-sided(qb=1.05,pb=1.0,mu=0.1,ratio-pairing){READING}"),
    "verify_two_sided(Fraction(BIG), Fraction(BIG), 0)": (
        lambda: verify_two_sided(Fraction(BIG), Fraction(BIG), 0),
        f"pb of two-sided(qb={BIG},pb={BIG},mu=0,ratio-pairing){READING}"),
}


@pytest.mark.parametrize("call, message", PAST_RANGE.values(), ids=PAST_RANGE)
def test_an_exact_number_past_double_range_is_typed(call, message):
    # a bare OverflowError or ZeroDivisionError is no DeformedAlgebraError
    with pytest.raises(DeformedAlgebraError) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, (OverflowError, ZeroDivisionError))


def test_a_fraction_pair_past_double_range_stays_exact():
    pair = hg_for_qp_ha(Fraction(BIG), Fraction(1))
    assert pair.h(0) == Fraction(BIG, 2) * (1 + Fraction(BIG) ** 2)
    assert pair.g(1) == BIG**2
