"""No bare error escapes the public numeric API.

Parameters are drawn log-uniform over the positive doubles, from the
smallest subnormal up to 1.7e308, and levels from 0 to 700.  Every call
returns a finite value (or a report), or raises a DeformedAlgebraError: a
power past the largest double, a product that turns inf and a divisor that
underflows to 0.0 all reach the caller as EvaluationOverflowError.  The
package's one number reader (qp.require_*) is swept over every number type
the entrances meet, and over values that are no number.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defosc import (
    DeformedAlgebraError,
    EvaluationOverflowError,
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
    link_table,
    nonstd_q,
    nonstd_qp,
    qp_number,
    sf_eval,
    sf_table,
    spectrum,
    two_sided_equal_hg,
    verify_hg,
    verify_q_ha,
    verify_qp_ha,
    verify_two_sided,
)
from defosc.errors import DomainError
from defosc.qp import (
    deformed_integers, require_finite, require_nonnegative, require_nonnegative_int,
    require_positive,
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


# An int or Fraction that no finite, nonzero double holds is refused where the
# package reads it, at the entrance that takes it, and the error names the
# parameter: a ratio pair's qb, pb or mu, an X/P check's coefficients and mu.
BIG = 10**400
TINY = Fraction(1, BIG)
PAST_RANGE = {
    "hg_for_qp_ha(BIG, 1)": (lambda: hg_for_qp_ha(BIG, 1), "q"),
    "hg_for_qp_ha(1.0, TINY)": (lambda: hg_for_qp_ha(1.0, TINY), "p"),
    "hg_for_two_sided(BIG, 1, 0)": (lambda: hg_for_two_sided(BIG, 1, 0), "qb"),
    "hg_for_two_sided(1.05, 1.0, BIG)": (lambda: hg_for_two_sided(1.05, 1.0, BIG), "mu"),
    "nonstd_q(Fraction(BIG))": (lambda: nonstd_q(Fraction(BIG)), "q"),
    "verify_q_ha(Fraction(BIG))": (lambda: verify_q_ha(Fraction(BIG)), "q"),
    "verify_qp_ha(BIG, BIG)": (lambda: verify_qp_ha(BIG, BIG), "q"),
    "verify_two_sided(1.05, 1.0, BIG)": (lambda: verify_two_sided(1.05, 1.0, BIG), "mu"),
    "verify_q_ha(1.05, check_q=BIG)": (lambda: verify_q_ha(1.05, check_q=BIG), "check_q"),
    "verify_qp_ha(1.05, 1.0, check_p=BIG)": (
        lambda: verify_qp_ha(1.05, 1.0, check_p=BIG), "check_p"),
    "verify_two_sided(1.05, 1.0, 0.1, check_mu=BIG)": (
        lambda: verify_two_sided(1.05, 1.0, 0.1, check_mu=BIG), "check_mu"),
    "verify_two_sided(Fraction(BIG), Fraction(BIG), 0)": (
        lambda: verify_two_sided(Fraction(BIG), Fraction(BIG), 0), "qb"),
}


@pytest.mark.parametrize("call, name", PAST_RANGE.values(), ids=PAST_RANGE)
def test_an_exact_number_past_double_range_is_typed(call, name):
    # a bare OverflowError or ZeroDivisionError is no DeformedAlgebraError
    with pytest.raises(DeformedAlgebraError) as info:
        call()
    assert str(info.value) == f"parameter {name} leaves the double range"
    assert isinstance(info.value.__cause__, (OverflowError, ZeroDivisionError))


def test_a_fraction_pair_past_double_range_is_refused():
    # an exact pair whose numbers a double holds stays exact, even where its
    # coefficients leave double range; one past it is refused at the entrance
    with pytest.raises(EvaluationOverflowError, match="^parameter q leaves the double range$"):
        hg_for_qp_ha(Fraction(BIG), Fraction(1))
    large = Fraction(10**300)
    pair = hg_for_qp_ha(large, Fraction(1))
    assert pair.h(0) == large / 2 * (1 + large**2)
    assert pair.g(1) == large**2


def test_the_reader_names_a_parameter_no_double_holds():
    # an exact q past double range once met math.log1p as -1.0, and an exact
    # qb once overflowed forming qb / pb; both are refused where they are read
    for call, name in [
        (lambda: deformed_integers(Fraction(BIG), 1), "q"),
        (lambda: qp_number(3, Fraction(BIG), 1), "q"),
        (lambda: equal_hg_special_case(BIG, 1), "qb"),
        (lambda: arik_coon(Decimal("1e400")), "q"),
        (lambda: jannussis_mu(Decimal("-1e-400")), "mu_tilde"),
        (lambda: link_table(1.05, -TINY, 1.05, 3), "pb"),
    ]:
        with pytest.raises(EvaluationOverflowError) as info:
            call()
        assert str(info.value) == f"parameter {name} leaves the double range"
        assert type(info.value.__cause__) is OverflowError


def test_the_reader_keeps_exact_numbers_and_reads_the_rest_as_floats():
    assert require_positive(q=2, p=Fraction(3, 4)) == (2, Fraction(3, 4))
    assert require_finite(mu=Fraction(BIG, 10**390)) == Fraction(10**10)
    for value in (np.float32(1.5), np.float64(1.5), np.int64(2), Decimal("1.5")):
        read = require_positive(q=value)
        assert read == float(value) and type(read) is float
    assert require_finite(mu=0, check=Fraction(1, 3)) == (0, Fraction(1, 3))
    assert require_nonnegative(tolerance=math.inf) == math.inf
    assert require_nonnegative_int(n=np.int64(3)) == 3
    for bad in ("1.5", b"1.5", 1j, np.complex64(1.5), [1.5], None, Decimal("sNaN"), Decimal("nan")):
        with pytest.raises(DomainError, match="^parameter q must be "):
            require_positive(q=bad)


# every number type an entrance meets: floats (nan and inf among them), ints,
# Fractions, numpy scalars, Decimals, exact values past double range both
# ways, and values that are no number
NUMBER = st.one_of(
    st.floats(),
    st.integers(),
    st.fractions(max_denominator=10**6),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.decimals(),
    st.sampled_from([BIG, -BIG, Fraction(BIG), TINY, -TINY, Decimal("1e400"), Decimal("-1e-400")]),
    st.sampled_from(["1.5", 1j, np.complex128(1.5), None, [1.5]]),
)
LEVELS = st.one_of(
    st.integers(-2, 24), st.integers(0, 24).map(np.int64),
    st.sampled_from([2.0, 2.5, math.nan, Fraction(3), Decimal("nan"), "3", None, BIG, -(10**5000)]),
    # once a bare ValueError printing their repr(); no @example holds them, as
    # Hypothesis itself prints an explicit example's repr()
    st.sampled_from([Fraction(10**5000), Fraction(-(10**5000))]),
)
# each public entrance the sweep calls, with numbers a, b, c and a level
CALL_FORMS = {
    "arik_coon": lambda a, b, c, n: sf_table(arik_coon(a), n),
    "biedenharn_macfarlane": lambda a, b, c, n: sf_table(biedenharn_macfarlane(a), n),
    "chakrabarti_jagannathan": lambda a, b, c, n: sf_table(chakrabarti_jagannathan(a, b), n),
    "jannussis_mu": lambda a, b, c, n: sf_table(jannussis_mu(c), n),
    "nonstd_q": lambda a, b, c, n: sf_table(nonstd_q(a), n),
    "nonstd_qp": lambda a, b, c, n: sf_table(nonstd_qp(a, b), n),
    "two_sided_equal_hg": lambda a, b, c, n: sf_table(two_sided_equal_hg(a, b), n),
    "custom_hg": lambda a, b, c, n: sf_table(custom_hg(hg_for_two_sided(a, b, c)), n),
    "sf_eval": lambda a, b, c, n: sf_eval(chakrabarti_jagannathan(a, b), n),
    "spectrum": lambda a, b, c, n: spectrum(nonstd_qp(a, b), n),
    "qp_number": lambda a, b, c, n: qp_number(n, a, b),
    "equal_hg_special_case": lambda a, b, c, n: [f(n) for f in equal_hg_special_case(a, b)],
    "verify_q_ha": lambda a, b, c, n: verify_q_ha(a, dim=8, check_q=c),
    "verify_qp_ha": lambda a, b, c, n: verify_qp_ha(a, b, dim=8, check_p=c),
    "verify_two_sided": lambda a, b, c, n: verify_two_sided(a, b, c, dim=8, check_mu=c),
    "verify tolerance": lambda a, b, c, n: verify_q_ha(1.05, dim=8, tol=c),
    "link_table": lambda a, b, c, n: link_table(a, b, c, 6),
    "link tolerance": lambda a, b, c, n: link_table(1.05, 0.95, 1.05, 2, tol=c),
    "check_link_consistency": lambda a, b, c, n: check_link_consistency(a, b, c, n),
    "build_ladder": lambda a, b, c, n: build_ladder(nonstd_qp(a, b), n),
    "build_xp": lambda a, b, c, n: build_xp(build_ladder(harmonic(), 8), a),
}


@given(a=NUMBER, b=NUMBER, c=NUMBER, n=LEVELS)
@example(a=Fraction(BIG), b=1, c=0.5, n=3)  # once a bare ValueError from math.log1p
@example(a=BIG, b=1, c=0.5, n=3)  # once a bare OverflowError forming qb / pb
@example(a=np.float32(1.05), b=0.95, c=1.05, n=3)  # once a bare TypeError from Fraction()
@example(a=np.int64(2), b=1.0, c=1.0, n=3)
@example(a=Decimal("1.05"), b=0.95, c=Decimal("1e400"), n=3)  # once Decimal met a float
@example(a=1.1, b=1.0, c=1.0, n="3")  # the equal-case functions once met "3" as a bare TypeError
@example(a=1.1, b=1.0, c=1.0, n=None)
@example(a=1.05, b=0.95, c=1.05, n=BIG)  # a size that once appended until memory ran out
@example(a=1.05, b=0.95, c=1.05, n=-(10**5000))  # once a bare ValueError printing n
@settings(max_examples=150, deadline=None)
def test_every_entrance_returns_or_raises_a_typed_error(a, b, c, n):
    for form in CALL_FORMS.values():
        try:
            form(a, b, c, n)
        except DeformedAlgebraError:
            pass
