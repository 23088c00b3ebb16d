from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defosc import (
    DeformedAlgebraError,
    DomainError,
    EvaluationOverflowError,
    HGPair,
    PoleError,
    check_link_consistency,
    hg_for_two_sided,
    link_table,
    mu_for_arik_coon_target,
    mu_from_g_match,
    mu_from_h_match,
    mu_from_q,
    q_and_pn_from_mu,
    q_from_mu,
    q_from_p,
    run_limit_suite,
)
from defosc import linkage
from link_oracle import assert_rows_are_rounded_exact_values

GRID = (0.5, 0.9, 1.1, 2.0)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# the worked point: qb=2, pb=1, p=1, level 0
# ---------------------------------------------------------------------------


def test_worked_point_q():
    assert q_from_p(2.0, 1.0, 1.0, 0) == 4.625  # 37/8


def test_worked_point_mu_along_every_route():
    assert mu_from_h_match(2.0, 1.0, 1.0, 0) == 8.0
    assert mu_from_g_match(2.0, 1.0, 4.625, 1.0, 0) == 8.0
    assert mu_from_q(2.0, 1.0, 4.625, 0) == 8.0
    assert q_from_mu(2.0, 1.0, 1.0, 8.0, 0) == 4.625


def test_worked_point_inversion():
    q, pn = q_and_pn_from_mu(2.0, 1.0, 8.0, 0)
    assert q == 4.625
    assert pn == 1.0


def test_worked_point_reaches_the_oscillator_target():
    pair = hg_for_two_sided(2.0, 1.0, 8.0)
    assert pair.h(0) == 1.0
    assert pair.g(0) == 4.625


def test_undeformed_point_gives_zero_mu():
    assert mu_from_h_match(1.0, 1.0, 1.0, 3) == 0.0
    q, pn = q_and_pn_from_mu(1.0, 1.0, 0.0, 0)
    assert q == 1.0
    assert pn == 1.0


# ---------------------------------------------------------------------------
# loop closure
# ---------------------------------------------------------------------------


def test_loop_closes_on_the_parameter_grid():
    for qb in GRID:
        for pb in GRID:
            for p in GRID:
                for level in range(0, 9, 2):
                    report = check_link_consistency(qb, pb, p, level)
                    assert report.passed, (qb, pb, p, level, report.per_state)


def test_consistency_report_shape():
    report = check_link_consistency(2.0, 1.0, 1.0, 0)
    assert report.passed
    assert len(report.per_state) == 8
    assert report.max_abs_residual <= 1e-10


def test_float_routes_agree_where_well_conditioned():
    # moderate deformation: the float formulas close the loop on their own
    for qb, pb, p in [(1.1, 0.9, 1.1), (0.9, 1.1, 0.5), (2.0, 1.0, 1.0)]:
        for level in range(4):
            q = q_from_p(qb, pb, p, level)
            mu = mu_from_h_match(qb, pb, p, level)
            assert rel_gap(mu_from_g_match(qb, pb, q, p, level), mu) <= 1e-10
            assert rel_gap(mu_from_q(qb, pb, q, level), mu) <= 1e-10
            assert rel_gap(q_from_mu(qb, pb, p, mu, level), q) <= 1e-10
            q47, pn47 = q_and_pn_from_mu(qb, pb, mu, level)
            assert rel_gap(q47, q) <= 1e-10
            assert rel_gap(pn47, p**level) <= 1e-10


def test_n_dependence_witness():
    # with the ratio away from one, the matching mu genuinely moves with
    # the level: the constant-mu reading of the two-sided relation cannot
    # reproduce the symmetric oscillator
    for qb in GRID:
        for pb in GRID:
            if qb == pb:
                continue
            for p in GRID:
                mu0 = mu_from_h_match(qb, pb, p, 0)
                mu1 = mu_from_h_match(qb, pb, p, 1)
                assert abs(mu1 - mu0) > 1e-6


def test_q_also_depends_on_the_level():
    for qb, pb in [(2.0, 1.0), (0.5, 2.0)]:
        assert abs(q_from_p(qb, pb, 1.0, 1) - q_from_p(qb, pb, 1.0, 0)) > 1e-6


# ---------------------------------------------------------------------------
# reduced cases
# ---------------------------------------------------------------------------


def test_ratio_one_limit_of_mu_from_q():
    # mu -> 2 qb (q - 1)/(q + 1)
    qb = 1.4
    for q in (0.7, 1.3, 2.0):
        for eps in (1e-8, -1e-8):
            pb = qb / (1.0 + eps)
            want = 2.0 * qb * (q - 1.0) / (q + 1.0)
            assert rel_gap(mu_from_q(qb, pb, q, 3), want) <= 1e-6


def test_ratio_one_limit_of_q_from_p():
    # q -> -1 + 2 qb p**N
    qb = 1.4
    for p in (0.5, 2.0):
        for level in (0, 2, 5):
            pb = qb / (1.0 + 1e-8)
            want = -1.0 + 2.0 * qb * p**level
            assert rel_gap(q_from_p(qb, pb, p, level), want) <= 1e-6


def test_ratio_one_mu_through_p_alone():
    # combining both ratio-one limits: mu = 2 (qb - p**-N)
    qb = 1.3
    for p in (0.5, 2.0):
        for level in range(4):
            mu = mu_from_h_match(qb, qb, p, level)
            want = 2.0 * (qb - p ** (-level))
            assert rel_gap(mu, want) <= 1e-12


def test_mu_vanishes_when_the_target_is_undeformed():
    # p**-N -> qb together with ratio one sends mu to zero
    qb = pb = 1.3
    level = 2
    p = qb ** (-1.0 / level)
    q = q_from_p(qb, pb, p, level)
    mu = mu_from_h_match(qb, pb, p, level)
    assert abs(mu) <= 1e-12
    assert rel_gap(q, 1.0) <= 1e-12


def test_reciprocal_ratio_simplification():
    # q = 1/ratio collapses mu to qb (ratio - 1)(ratio**2 + 1) ratio**(4N-2)
    for qb, pb in [(2.0, 1.0), (0.5, 2.0), (1.1, 0.9)]:
        ratio = qb / pb
        for level in range(4):
            got = mu_from_q(qb, pb, 1.0 / ratio, level)
            want = qb * (ratio - 1.0) * (ratio**2 + 1.0) * ratio ** (4 * level - 2)
            assert rel_gap(got, want) <= 1e-12


def test_arik_coon_target():
    assert mu_for_arik_coon_target(2.0, 1.0, 0) == 8.0
    assert mu_for_arik_coon_target(1.0, 1.0, 5) == 0.0
    # the matching mu really flattens h to one
    for qb, pb in [(2.0, 1.0), (0.5, 2.0), (1.1, 0.9)]:
        for level in range(5):
            mu = mu_for_arik_coon_target(qb, pb, level)
            pair = hg_for_two_sided(qb, pb, mu)
            assert rel_gap(pair.h(level), 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# poles and validation
# ---------------------------------------------------------------------------


def test_mu_from_q_pole():
    with pytest.raises(PoleError):
        mu_from_q(2.0, 1.0, -1.0, 0)


def test_inversion_pole():
    # mu equal to the denominator term hits the declared singularity
    mu = 1.0 * 2.0 * (1.0 + 4.0)  # pb ratio (1 + ratio**2) at level 0
    with pytest.raises(PoleError):
        q_and_pn_from_mu(2.0, 1.0, mu, 0)


def test_link_input_validation():
    for qb, pb, p, level in [(0.0, 1.0, 1.0, 0), (1.0, 1.0, 0.0, 0), (1.0, 1.0, 1.0, -1)]:
        with pytest.raises(DomainError):
            mu_from_h_match(qb, pb, p, level)
        with pytest.raises(DomainError):
            mu_from_g_match(qb, pb, 1.0, p, level)
    with pytest.raises(DomainError):
        q_from_p(1.0, 1.0, 1.0, -2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_link_parameters_are_refused(bad, slot):
    params = [2.0, 1.0, 1.0]
    params[slot] = bad
    with pytest.raises(DomainError, match=("qb", "pb", "p")[slot]):
        check_link_consistency(*params, 0)
    with pytest.raises(DomainError, match=("qb", "pb", "p")[slot]):
        link_table(*params, 3)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_impossible_link_tolerance_is_a_domain_error(tol):
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        check_link_consistency(1.1, 1.0, 1.0, 3, tol=tol)
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        link_table(1.1, 1.0, 1.0, 3, tol=tol)
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        run_limit_suite(tolerance=tol)


def test_link_levels_are_integers():
    with pytest.raises(DomainError, match=r"^level must be an integer, got 2.5$"):
        check_link_consistency(1.1, 1.0, 1.0, 2.5)
    with pytest.raises(DomainError, match=r"^n_max must be an integer, got 2.5$"):
        link_table(1.1, 1.0, 1.0, 2.5)
    for formula in (lambda n: q_from_p(2.0, 1.0, 1.0, n), lambda n: mu_from_q(2, 1, 3, n)):
        with pytest.raises(DomainError, match=r"^level must be an integer"):
            formula(1.0)
    assert link_table(1.1, 1.0, 1.0, np.int64(3)) == link_table(1.1, 1.0, 1.0, 3)
    exact = (Fraction(11, 10), Fraction(1), Fraction(1))
    assert q_from_p(*exact, np.int64(30)) == q_from_p(*exact, 30)
    report = check_link_consistency(1.1, 1.0, 1.0, np.int64(3))
    assert report == check_link_consistency(1.1, 1.0, 1.0, 3)
    assert report.passed


# ---------------------------------------------------------------------------
# the per-level table
# ---------------------------------------------------------------------------


def test_link_table_worked_row():
    rows = link_table(2.0, 1.0, 1.0, 0)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 0
    assert row["q"] == 4.625
    assert row["mu_h_match"] == 8.0
    assert row["mu_g_match"] == 8.0
    assert row["mu_from_q"] == 8.0
    assert row["p_pow_n"] == 1.0
    assert row["consistent"] is True


def test_link_table_is_consistent_across_levels():
    rows = link_table(1.1, 0.9, 1.1, 6)
    assert len(rows) == 7
    assert all(row["consistent"] for row in rows)
    # the level dependence is visible in the table itself
    q_values = [row["q"] for row in rows]
    assert len(set(q_values)) == len(q_values)


def test_link_table_types_a_float_overflow_with_its_level():
    # p**(-n) = 16**256 leaves the double range in mu_from_h_match
    with pytest.raises(EvaluationOverflowError, match=r"level=256$") as exc:
        link_table(2.0, 1.0, 0.0625, 260)
    assert isinstance(exc.value, DeformedAlgebraError)
    assert type(exc.value.__cause__) is OverflowError
    rows = link_table(2.0, 1.0, 0.0625, 250)
    assert len(rows) == 251
    assert all(row["consistent"] for row in rows)


def test_link_table_passes_a_typed_overflow_through():
    # the recipe's own typed error reaches the caller with its message
    message = "^structure function oscillator-target overflowed at n=12$"
    with pytest.raises(EvaluationOverflowError, match=message):
        link_table(1.0, 1.0, 1e-30, 2)


# ---------------------------------------------------------------------------
# the exact certificate runs the public formulas
# ---------------------------------------------------------------------------

PLANTED = 1 + Fraction(1, 10**6)


def _planted_typo(formula):
    # scale every value the formula returns by 1 + 1e-6, as a typo would
    def wrapper(*args):
        out = formula(*args)
        if isinstance(out, HGPair):
            h, g = out.h, out.g
            return HGPair(lambda n: h(n) * PLANTED, lambda n: g(n) * PLANTED, out.label)
        if isinstance(out, tuple):
            return tuple(value * PLANTED for value in out)
        return out * PLANTED

    return wrapper


@pytest.mark.parametrize(
    "name",
    [
        "q_from_p",
        "mu_from_h_match",
        "mu_from_g_match",
        "mu_from_q",
        "q_from_mu",
        "q_and_pn_from_mu",
        "hg_for_two_sided",
    ],
)
def test_planted_typo_fails_the_certificate(monkeypatch, name):
    monkeypatch.setattr(linkage, name, _planted_typo(getattr(linkage, name)))
    report = check_link_consistency(1.1, 0.9, 1.1, 3)
    assert not report.passed
    assert report.max_abs_residual > 1e-7
    assert not any(row["consistent"] for row in link_table(1.1, 0.9, 1.1, 3))


def test_formulas_stay_exact_on_fractions():
    qb, pb, p = Fraction(2), Fraction(1), Fraction(1)
    q = q_from_p(qb, pb, p, 0)
    mu = mu_from_h_match(qb, pb, p, 0)
    q_back, pn = q_and_pn_from_mu(qb, pb, mu, 0)
    pair = hg_for_two_sided(qb, pb, mu)
    values = [
        q,
        mu,
        mu_from_g_match(qb, pb, q, p, 0),
        mu_from_q(qb, pb, q, 0),
        q_from_mu(qb, pb, p, mu, 0),
        q_back,
        pn,
        mu_for_arik_coon_target(qb, pb, 0),
        pair.h(0),
        pair.g(0),
    ]
    assert all(type(value) is Fraction for value in values)
    assert (q, mu, pn) == (Fraction(37, 8), 8, 1)
    assert values[2:7] == [8, 8, Fraction(37, 8), Fraction(37, 8), 1]
    assert (pair.h(0), pair.g(0)) == (1, Fraction(37, 8))


# ---------------------------------------------------------------------------
# the printed columns are the exact values, rounded once
# ---------------------------------------------------------------------------


@given(
    qb=st.floats(-2, 2).map(lambda e: 10.0**e),
    pb=st.floats(-2, 2).map(lambda e: 10.0**e),
    p=st.floats(-2, 2).map(lambda e: 10.0**e),
    n_max=st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_every_printed_column_is_the_rounded_exact_value(qb, pb, p, n_max):
    try:
        rows = link_table(qb, pb, p, n_max)
    except EvaluationOverflowError:  # a column or the recipe leaves double range
        return
    assert [row["n"] for row in rows] == list(range(n_max + 1))
    assert_rows_are_rounded_exact_values(qb, pb, p, rows)


def test_mild_parameters_print_exact_columns_to_level_64():
    # a float route prints p_pow_n off by 41 % at level 40 here, and at
    # level 42 divides by cancellation noise into a false PoleError
    rows = link_table(1.1, 0.9, 1.1, 64)
    assert len(rows) == 65
    assert all(row["consistent"] for row in rows)
    assert_rows_are_rounded_exact_values(1.1, 0.9, 1.1, rows)


# ---------------------------------------------------------------------------
# float powers past double range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qb, level, depth", [(2.05, 28, 8), (2.0, 40, 6)])
def test_recipe_depth_trim_survives_overflowing_powers(qb, level, depth):
    report = check_link_consistency(qb, 1.0, 1.0, level)
    assert report.passed
    assert report.dim == depth


@pytest.mark.parametrize(
    "qb, pb, p, level, depth", [(0.1, 0.01, 10.0, 40, 1), (0.5, 0.1, 10.0, 80, 0)]
)
def test_recipe_depth_trim_goes_below_two(qb, pb, p, level, depth):
    # q = 5.0e200 at the first point: q**2 leaves double range while q and
    # the exact gaps 0-6 do not; at the second q itself exceeds 1e300, and
    # depth 0 leaves gap 7 out
    report = check_link_consistency(qb, pb, p, level)
    assert report.passed
    assert report.dim == depth
    assert report.per_state == [(k, 0.0) for k in range(7 + (depth > 0))]
    assert all(row["consistent"] for row in link_table(qb, pb, p, level))


@pytest.mark.parametrize(
    "qb, p, level, message",
    [
        (2.0, 1.0, 600, "linkage value leaves the double range at level=600"),
        # the recipe's own typed error keeps its message
        (1.0, 1e-30, 0, "structure function oscillator-target overflowed at n=12"),
    ],
)
def test_float_overflow_in_the_link_check_is_typed(qb, p, level, message):
    with pytest.raises(EvaluationOverflowError, match=f"^{message}$"):
        check_link_consistency(qb, 1.0, p, level)


@given(
    qb=st.floats(1e-3, 1e3),
    pb=st.floats(1e-3, 1e3),
    p=st.floats(1e-3, 1e3),
    level=st.integers(0, 64),
)
@settings(max_examples=100, deadline=None)
def test_link_check_reports_or_raises_a_typed_error(qb, pb, p, level):
    try:
        report = check_link_consistency(qb, pb, p, level)
    except DeformedAlgebraError:
        return
    assert len(report.per_state) in (7, 8)


def test_exact_certificate_never_prints_its_fractions():
    # mu has about 6,600 digits here, past the int-to-str limit of 4,300
    with pytest.raises(EvaluationOverflowError, match="level=64"):
        check_link_consistency(999.9, 0.0011, 0.0013, 64)


@pytest.mark.parametrize(
    "formula, call",
    [
        ("mu_from_h_match", lambda level: mu_from_h_match(2.0, 1.0, 1.0, level)),
        ("mu_from_g_match", lambda level: mu_from_g_match(2.0, 1.0, 3.0, 1.0, level)),
        ("mu_from_q", lambda level: mu_from_q(2.0, 1.0, 3.0, level)),
        ("q_from_p", lambda level: q_from_p(2.0, 1.0, 1.0, level)),
        ("q_from_mu", lambda level: q_from_mu(2.0, 1.0, 1.0, 0.5, level)),
        ("q_and_pn_from_mu", lambda level: q_and_pn_from_mu(2.0, 1.0, 0.5, level)),
        ("mu_for_arik_coon_target", lambda level: mu_for_arik_coon_target(2.0, 1.0, level)),
    ],
)
def test_each_float_formula_types_its_overflow(formula, call):
    assert np.isfinite(call(250)).all()  # Q**(4N + 2) = 2**1002 is still a double
    message = f"^{formula} leaves the double range at level=600$"
    with pytest.raises(EvaluationOverflowError, match=message) as exc:
        call(600)
    assert type(exc.value.__cause__) is OverflowError


def test_float_formulas_type_inf_products_and_underflowed_divisors():
    # finite powers whose product passes the largest double
    match = "^mu_for_arik_coon_target leaves .* at level=0$"
    with pytest.raises(EvaluationOverflowError, match=match) as exc:
        mu_for_arik_coon_target(1e300, 1e150, 0)
    assert type(exc.value.__cause__) is OverflowError
    # Q = 1e-300 / 1e300 underflows to 0.0, and Q**(2N - 2) divides by it
    match = "^mu_from_q leaves .* at level=0$"
    with pytest.raises(EvaluationOverflowError, match=match) as exc:
        mu_from_q(1e-300, 1e300, 3.0, 0)
    assert type(exc.value.__cause__) is ZeroDivisionError


def test_fraction_formulas_stay_exact_past_double_range():
    qb, pb, p = Fraction(2), Fraction(1), Fraction(1, 16)
    mu = mu_from_h_match(qb, pb, p, 600)
    assert mu == 2 * 4**600 * (1 + 4**601) - 2 * 16**600
    q = q_from_p(qb, pb, p, 600)
    assert q == -1 + Fraction(3 + 33 * 4**599, 2) * 4**600 / 16**600
