import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defosc import (
    DomainError,
    EvaluationOverflowError,
    arik_coon,
    chakrabarti_jagannathan,
    jannussis_mu,
    qp_number,
    sf_table,
    two_sided_equal_hg,
)
from defosc.qp import deformed_integers, relative_gap, require_nonnegative

GRID = (0.5, 0.9, 1.1, 2.0)

positive_floats = st.floats(min_value=0.05, max_value=8.0, allow_nan=False)


def polynomial_deformed_integer(m: int, q: float, p: float) -> float:
    # sum_{k=0}^{m-1} q**k p**(m-1-k): polynomial form of (q**m - p**m)/(q - p),
    # regular at q = p, used as an independent oracle
    return sum(q**k * p ** (m - 1 - k) for k in range(m))


def test_empty_number_is_zero():
    assert qp_number(0, 1.7, 0.3) == 0.0


def test_classical_point_gives_the_integer():
    assert qp_number(3, 1.0, 1.0) == 3.0
    for m in range(0, 12):
        assert qp_number(m, 1.0, 1.0) == float(m)


def test_direct_evaluation_example():
    # (2**2 - 3**2) / (2 - 3)
    assert qp_number(2, 2.0, 3.0) == 5.0


@pytest.mark.parametrize("q", GRID)
@pytest.mark.parametrize("p", GRID)
def test_matches_polynomial_oracle(q, p):
    for m in range(0, 21):
        want = polynomial_deformed_integer(m, q, p)
        got = qp_number(m, q, p)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@given(m=st.integers(0, 40), q=positive_floats, p=positive_floats)
@settings(deadline=None)
def test_symmetric_in_q_and_p(m, q, p):
    assert qp_number(m, q, p) == qp_number(m, p, q)


@given(m=st.integers(1, 40), q=positive_floats, p=positive_floats)
@settings(deadline=None)
def test_positive_for_positive_parameters(m, q, p):
    assert qp_number(m, q, p) > 0.0


@given(q=positive_floats, p=positive_floats)
@settings(deadline=None)
def test_first_integer_is_exactly_one(q, p):
    # expm1(L) / expm1(L): the quotient form keeps [1] = 1 on both sides of q = p
    assert qp_number(1, q, p) == 1.0
    assert qp_number(1, q, q * (1 + 1e-12)) == 1.0


@pytest.mark.parametrize("q", [0.5, 0.9, 1.5, 2.0, 3.0])
def test_single_parameter_reduction_is_exact(q):
    # [m]_{q,1} and the geometric-quotient form are the same expression
    for m in range(1, 25):
        want = (q**m - 1.0) / (q - 1.0)
        got = qp_number(m, q, 1.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("p", GRID)
def test_continuity_across_the_singular_line(p):
    eps = 1e-8
    for m in range(1, 31):
        want = m * p ** (m - 1)
        got = qp_number(m, p + eps, p)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("p", GRID)
def test_next_to_the_singular_line_agrees_with_oracle(p):
    q = p * (1.0 + 1e-10)  # q - p is exact here, and nothing cancels
    for m in range(1, 25):
        want = polynomial_deformed_integer(m, q, p)
        got = qp_number(m, q, p)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_domain_errors():
    with pytest.raises(DomainError):
        qp_number(-1, 1.0, 1.0)
    with pytest.raises(DomainError):
        qp_number(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        qp_number(2, 1.0, -0.5)


def test_qp_number_reads_m_as_an_integer():
    # m is read as every integer parameter is: no real number passes
    for m in (2.5, 3.0, math.inf):
        with pytest.raises(DomainError, match=rf"^m must be an integer, got {m!r}$"):
            qp_number(m, 1.1, 1.0)
    assert qp_number(np.int64(3), 2, 1) == 7.0


def test_deformation_params():
    # each constructor checks its own parameters and keeps them in its label
    assert chakrabarti_jagannathan(2.0, 0.5).label == "chakrabarti-jagannathan(q=2.0,p=0.5)"
    assert jannussis_mu(0.3).label == "jannussis-mu(mu_tilde=0.3)"
    assert sf_table(chakrabarti_jagannathan(1.5), 40) == sf_table(
        chakrabarti_jagannathan(1.5, 1.0), 40
    )
    with pytest.raises(DomainError, match=r"^parameter q must be > 0, got -1$"):
        arik_coon(-1)
    with pytest.raises(DomainError, match=r"^parameter p must be > 0, got 0$"):
        chakrabarti_jagannathan(1, 0)
    with pytest.raises(DomainError, match=r"^parameter pb must be > 0, got 0$"):
        two_sided_equal_hg(1, 0)  # its check names the flags --qb and --pb


def test_qp_number_types_an_overflow():
    with pytest.raises(EvaluationOverflowError, match=r"^deformed integer \[2000\]"):
        qp_number(2000, 2.0, 1.0)
    with pytest.raises(EvaluationOverflowError):  # finite power, infinite product
        qp_number(1100, 1.9, 1.9 * (1 + 2e-9))


def test_qp_number_refuses_an_exact_value_past_double_range():
    # an int or Fraction q = p keeps m q**(m-1) exact, where a float would overflow;
    # qp_number returns a double, so a value no double holds is refused as for floats
    for m, q in [(2000, 2), (1100, Fraction(2))]:
        with pytest.raises(EvaluationOverflowError, match=rf"^deformed integer \[{m}\]") as info:
            qp_number(m, q, q)
        assert type(info.value.__cause__) is OverflowError
    # the exact value is rounded once, so every return is a float
    assert qp_number(3, 2, 2) == 12.0 and type(qp_number(3, 2, 2)) is float


@pytest.mark.parametrize("q, p", [(3, 2), (2, 2), (Fraction(3, 2), Fraction(5, 4)),
                                  (Fraction(5, 4), Fraction(5, 4)), (3, 2.0)])
def test_qp_number_refuses_an_exact_power_before_forming_it(q, p):
    # [m] >= big**(m-1), here a power of 2**39 bits and more: refused from
    # m log2(big), in microseconds, with the message of any other overflow
    m = 2**40
    with pytest.raises(EvaluationOverflowError,
                       match=rf"^deformed integer \[{m}\] overflowed at q={q}, p={p}$"):
        qp_number(m, q, p)
    assert qp_number(1001, 2, 1) == 2.0**1001 - 1  # 1000 log2(2) stays below the guard


@pytest.mark.parametrize("q, p", [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)),
                                  (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), 0.25)])
def test_qp_number_skips_an_exact_power_that_rounds_to_zero(q, p):
    # [m] <= m big**(m-1) < 2**-1100 at m = 2**40, where the exact power
    # would take 2**40 bits: 0.0 from m log2(big), in microseconds, at q = p too
    value = qp_number(2**40, q, p)
    assert value == 0.0 and type(value) is float and math.copysign(1, value) == 1


@pytest.mark.parametrize("q, p", [(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(2, 3)),
                                  (Fraction(7, 8), Fraction(7, 8)), (Fraction(1, 2), 0.375)])
def test_qp_number_keeps_the_exact_value_beside_the_underflow_guard(q, p):
    # either side of log2(m) + (m - 1) log2(big) = -1100, the value is the
    # exact form's rounded once (at q = p, below the edge, that form is a
    # Fraction), and 0.0 where the guard skips the power
    big = max(q, p)
    edge = next(m for m in range(1, 10**5) if math.log2(m) + (m - 1) * math.log2(big) < -1100)
    for m in range(max(edge - 40, 1), edge + 40):
        value = qp_number(m, q, p)
        assert value == float(deformed_integers(q, p)(m)) and type(value) is float, m


EXACT = st.one_of(st.integers(1, 8),
                  st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64))


@given(m=st.integers(0, 300), q=EXACT, p=EXACT)
@settings(max_examples=300, deadline=None)
def test_qp_number_on_exact_inputs_is_a_float(m, q, p):
    # at q = p the exact m q**(m-1) rounded once, elsewhere the one form's
    # float; a value past double range is refused either way
    for pair in ((q, p), (q, q)):
        try:
            value = qp_number(m, *pair)
        except EvaluationOverflowError:
            assert max(pair) > 1, (m, pair)
            continue
        assert type(value) is float, (m, pair)
        if pair == (q, q):
            assert value == float(m * q ** (m - 1) if m else 0), (m, q)


def test_require_nonnegative_names_the_first_negative_parameter():
    require_nonnegative(n=0, level=3)
    with pytest.raises(DomainError, match=r"^level must be >= 0, got -2$"):
        require_nonnegative(n=1, level=-2, n_max=-1)
    with pytest.raises(DomainError, match=r"^n must be >= 0, got nan$"):
        require_nonnegative(n=float("nan"))  # nan is not >= 0 either


def test_relative_gap_is_floored_at_one():
    assert relative_gap(0.25, 0.5) == 0.25
    assert relative_gap(-4.0, 4.0) == 2.0
    assert relative_gap(3, 3) == 0


def reference_gap(a, b):
    # relative_gap's former body, builtin max included
    return abs(a - b) / max(1, abs(a), abs(b))


def _outcome(gap, a, b):
    try:
        return repr(gap(a, b))
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _same_magnitude(x: float):
    # x's magnitude as a float, an int where exact, and a Fraction, either sign
    forms = [x, -x, Fraction(x), -Fraction(x)]
    return forms + [int(x), -int(x)] if x.is_integer() else forms


GAP_OPERANDS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1,
                     Fraction(1), math.inf, -math.inf, math.nan]),
    st.integers(-(2**1100), 2**1100),
    st.fractions(),
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.tuples(GAP_OPERANDS, GAP_OPERANDS),
                 st.floats(allow_nan=False, allow_infinity=False).flatmap(
                     lambda x: st.tuples(st.sampled_from(_same_magnitude(x)),
                                         st.sampled_from(_same_magnitude(x))))))
def test_relative_gap_is_the_builtin_max_formula(operands):
    # floats with signed zeros, subnormals, infinities and nan, ints, Fractions
    # and equal magnitudes of mixed types: the same value, type and sign
    assert _outcome(relative_gap, *operands) == _outcome(reference_gap, *operands)


def test_equal_subnormal_parameters_take_the_equal_form():
    # q - p is exactly 0.0, so [m] = m q**(m - 1)
    assert qp_number(1, 5e-324, 5e-324) == 1.0
    assert qp_number(0, 5e-324, 5e-324) == 0.0
    assert qp_number(2, 5e-324, 5e-324) == 2 * 5e-324


def test_an_exact_e_is_rounded_as_log1p_reads_it():
    # e = (big - min(q, p)) / big is exact on ints and Fractions; rounded once,
    # 1 - 10**-300 / 2 is 1.0, the pole of log1p, and 10**-400 is 0.0, q = p,
    # where an unrounded e met log1p as -1.0 (a bare ValueError) or as -0.0 (a
    # zero divisor)
    assert sf_table(chakrabarti_jagannathan(2, Fraction(1, 10**300)), 5) == [
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0,
    ]
    near_one = 1 + Fraction(1, 10**400)
    table = sf_table(chakrabarti_jagannathan(near_one, 1), 4)
    assert [float(value) for value in table] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert qp_number(3, 18014398503481992, Fraction(1, 999998)) == float(18014398503481992**2)
