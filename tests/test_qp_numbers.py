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
from defosc.qp import relative_gap, require_nonnegative

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
def test_limit_branch_agrees_with_oracle(p):
    q = p * (1.0 + 1e-10)  # inside the switch threshold
    for m in range(1, 25):
        want = polynomial_deformed_integer(m, q, p)
        got = qp_number(m, q, p)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_domain_errors():
    with pytest.raises(DomainError):
        qp_number(-1, 1.0, 1.0)
    with pytest.raises(DomainError):
        qp_number(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        qp_number(2, 1.0, -0.5)


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
    with pytest.raises(DomainError, match=r"^parameter p must be > 0, got 0$"):
        two_sided_equal_hg(1, 0)  # its check names q and p, not qb and pb


def test_qp_number_types_an_overflow():
    with pytest.raises(EvaluationOverflowError, match=r"^deformed integer \[2000\]"):
        qp_number(2000, 2.0, 1.0)
    with pytest.raises(EvaluationOverflowError):  # finite powers, infinite quotient
        qp_number(1100, 1.9, 1.9 * (1 + 2e-9))


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


def test_equal_subnormal_parameters_take_the_limit_branch():
    # 1e-9 * max(q, p) underflows to 0.0 here, and q - p is exactly 0.0
    assert qp_number(1, 5e-324, 5e-324) == 1.0
    assert qp_number(0, 5e-324, 5e-324) == 0.0
    assert qp_number(2, 5e-324, 5e-324) == 2 * 5e-324
