import hashlib
import re
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import defosc
from defosc import (
    DeformedAlgebraError,
    DomainError,
    EvaluationOverflowError,
    HGPair,
    PoleError,
    ResidualReport,
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
from link_oracle import assert_rows_are_rounded_exact_values, exact_row, matching

GRID = (0.5, 0.9, 1.1, 2.0)
# small positive rationals: exact rows stay a few hundred digits long
RATIONAL = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)


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
    # per_state is (level, recipe gap) for levels 0..dim; q = 37/8 runs it
    # to the full depth
    report = check_link_consistency(2.0, 1.0, 1.0, 0)
    assert report.passed
    assert report.dim == linkage.SF_LEVELS
    assert [n for n, _ in report.per_state] == list(range(report.dim + 1))
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


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL)
@example(qb=Fraction(2), pb=Fraction(2), p=Fraction(1, 2))  # Q = 1 alone
@example(qb=Fraction(1, 2), pb=Fraction(1, 4), p=Fraction(1))  # p = 1 alone
@example(qb=Fraction(2), pb=Fraction(1), p=Fraction(1, 4))  # 1/p = Q**2
@settings(max_examples=200, deadline=None)
def test_mu_depends_on_the_level_unless_undeformed(qb, pb, p):
    # the paper's headline, exactly: mu(N) = qb X + qb Q**2 X**2 - 2/P with
    # X = Q**(2N), P = p**N is a sum of at most 4 exponentials in N (bases
    # Q**2, Q**4 and 1/p, and 1); unless it is constant it takes one value
    # at no more than 3 levels, and it is constant only at Q = 1, p = 1
    assume((qb / pb, p) != (1, 1))
    assert len({mu_from_h_match(qb, pb, p, level) for level in range(4)}) >= 2


@given(qb=RATIONAL)
@settings(max_examples=20, deadline=None)
def test_mu_is_constant_at_the_undeformed_point(qb):
    for level in range(65):
        assert mu_from_h_match(qb, qb, Fraction(1), level) == 2 * qb - 2


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
    # finiteness is checked first, so a nan reads as it does for the formulas
    params = [2.0, 1.0, 1.0]
    params[slot] = bad
    message = f"^parameter {('qb', 'pb', 'p')[slot]} must be finite, got {bad!r}$"
    with pytest.raises(DomainError, match=message):
        check_link_consistency(*params, 0)
    with pytest.raises(DomainError, match=message):
        link_table(*params, 3)


# the arguments of each formula besides the level, and a value in its domain
FORMULA_ARGS = {
    "mu_from_h_match": dict(qb=2.0, pb=1.0, p=1.0),
    "mu_from_g_match": dict(qb=2.0, pb=1.0, q=3.0, p=1.0),
    "mu_from_q": dict(qb=2.0, pb=1.0, q=3.0),
    "q_from_p": dict(qb=2.0, pb=1.0, p=1.0),
    "q_from_mu": dict(qb=2.0, pb=1.0, p=1.0, mu=0.5),
    "q_and_pn_from_mu": dict(qb=2.0, pb=1.0, mu=0.5),
    "mu_for_arik_coon_target": dict(qb=2.0, pb=1.0),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "formula, arg", [(formula, arg) for formula, args in FORMULA_ARGS.items() for arg in args]
)
def test_non_finite_formula_arguments_are_refused(formula, arg, bad):
    params = {**FORMULA_ARGS[formula], arg: bad}
    message = f"^parameter {arg} must be finite, got {re.escape(repr(bad))}$"
    with pytest.raises(DomainError, match=message):
        getattr(linkage, formula)(**params, level=1)


def test_q_and_mu_may_take_either_sign():
    assert mu_from_q(2.0, 1.0, -0.5, 0) < 0 < mu_from_q(2.0, 1.0, 0.5, 0)
    assert q_from_mu(2.0, 1.0, 1.0, -30.0, 0) < 0 < q_from_mu(2.0, 1.0, 1.0, 30.0, 0)
    assert q_and_pn_from_mu(2.0, 1.0, -8.0, 0) == (-0.375, 2 / 18)


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


def test_link_check_depth_is_trimmed_for_small_p():
    # h(n) = p**-n = 1e30**n leaves 1e300 past level 10, before any
    # max(q, p, 2)**n does: the check stops at depth 10 instead of
    # overflowing at 12, and every printed column is in range
    rows = link_table(1.0, 1.0, 1e-30, 2)
    assert [row["consistent"] for row in rows] == [True, True, True]
    report = check_link_consistency(1.0, 1.0, 1e-30, 0)
    assert (report.dim, report.passed) == (10, True)
    # here p**-2 = 1e400 already leaves double range: depth 1 at level 0,
    # where q = 4.625
    assert link_table(2.0, 1.0, 1e-200, 1)[-1]["consistent"]
    assert check_link_consistency(2.0, 1.0, 1e-200, 0).dim == 1
    # q = 2e20 at level 0: q**12 and p**-12 stay below 1e300; g(n) Phi(n)
    # ~ (q / p)**n would pass the largest double at n = 9, but the recipe
    # forms (g/h) Phi + 1/h = q [n] + p**n, so the check keeps depth 12
    report = check_link_consistency(1e20, 1e20, 1e-20, 0)
    assert (report.dim, report.passed) == (12, True)


@given(
    q=st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
    p=st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
)
@settings(max_examples=300, deadline=None)
def test_recipe_check_stays_in_double_range(q, p):
    # the depth trim keeps every value the recipe forms in range
    assert max(linkage._recipe_gaps(q, p), default=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# the matching routes close exactly: a proof on Fractions
# ---------------------------------------------------------------------------


def assert_routes_close(qb, pb, p, level):
    """q and mu are the transcribed matching values, and every other route
    reproduces them exactly.  The public formulas are looked up on the
    package, so a typo planted there shows."""
    q = defosc.q_from_p(qb, pb, p, level)
    mu = defosc.mu_from_h_match(qb, pb, p, level)
    exact = exact_row(qb, pb, p, level)
    assert (q, mu) == (exact["q"], exact["mu_h_match"])
    assert defosc.mu_from_g_match(qb, pb, q, p, level) == mu
    assert defosc.mu_from_q(qb, pb, q, level) == mu
    assert defosc.q_from_mu(qb, pb, p, mu, level) == q
    assert defosc.q_and_pn_from_mu(qb, pb, mu, level) == (q, p**level)
    # a per-level mu keeps the label from printing mu
    pair = defosc.hg_for_two_sided(qb, pb, lambda n: mu)
    assert (pair.h(level), pair.g(level)) == (p**-level, q * p**-level)


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_matching_routes_close_exactly(qb, pb, p, level):
    # each former runtime gap is a rational function of (qb, pb, p) at a
    # fixed level; a nonzero one survives random rational points with
    # negligible probability (Schwartz-Zippel), so exact zeros are a proof
    assert_routes_close(qb, pb, p, level)


def free_routes(qb, pb, X, P):
    """Each route with Q**(2N) = X and p**N = P as free rationals,
    transcribed from the formulas' docstrings, Q = qb/pb."""
    Q = qb / pb
    q, mu = matching(qb, pb, X, P)
    denominator = pb * Q * X * (1 + Q**2 * X) - mu
    return dict(
        q_from_p=q,
        mu_from_h_match=mu,
        mu_from_g_match=2 * q / P - pb * X * (1 + X / Q**2),
        mu_from_q=pb * X * (X / Q**2 * (q * Q**5 - 1) + q * Q - 1) / (1 + q),
        q_from_mu=P / 2 * (mu + pb * X * (1 + X / Q**2)),
        q_and_pn_from_mu=((pb * X * (1 + X / Q**2) + mu) / denominator, 2 / denominator),
        hg_for_two_sided=(qb * X * (1 + Q**2 * X) / 2 - mu / 2, pb * X * (1 + X / Q**2) / 2 + mu / 2),
    )


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_free_transcription_is_the_public_formula(qb, pb, p, level):
    free = free_routes(qb, pb, (qb / pb) ** (2 * level), p**level)
    q, mu = free["q_from_p"], free["mu_from_h_match"]
    pair = hg_for_two_sided(qb, pb, lambda n: mu)
    assert free == dict(
        q_from_p=q_from_p(qb, pb, p, level),
        mu_from_h_match=mu_from_h_match(qb, pb, p, level),
        mu_from_g_match=mu_from_g_match(qb, pb, q, p, level),
        mu_from_q=mu_from_q(qb, pb, q, level),
        q_from_mu=q_from_mu(qb, pb, p, mu, level),
        q_and_pn_from_mu=q_and_pn_from_mu(qb, pb, mu, level),
        hg_for_two_sided=(pair.h(level), pair.g(level)),
    )


@given(qb=RATIONAL, pb=RATIONAL, X=RATIONAL, P=RATIONAL)
@settings(max_examples=150, deadline=None)
def test_matching_routes_close_at_every_level(qb, pb, X, P):
    # the routes depend on N only through X and P, so closing in free
    # (X, P) closes them at every level, not just at levels 0-64
    free = free_routes(qb, pb, X, P)
    q, mu = free["q_from_p"], free["mu_from_h_match"]
    assert free["mu_from_g_match"] == free["mu_from_q"] == mu
    assert free["q_from_mu"] == q
    assert free["q_and_pn_from_mu"] == (q, P)
    assert free["hg_for_two_sided"] == (1 / P, q / P)


def assert_kernel_is_the_formula(qb, pb, p, level):
    """The integer kernel's exact q, mu and p**N are q_from_p,
    mu_from_h_match and p**N on Fractions, both from direct powers at the
    level and carried from level 0, and its q alone is the same q.  The
    formulas are looked up on the package, so a typo planted there shows."""
    direct = next(linkage._exact_columns(qb, pb, p, level))
    carried = next(islice(linkage._exact_columns(qb, pb, p, 0), level, None))
    (q_alone,) = next(linkage._exact_columns(qb, pb, p, level, q_only=True))
    qb, pb, p = Fraction(qb), Fraction(pb), Fraction(p)
    want = [defosc.q_from_p(qb, pb, p, level), defosc.mu_from_h_match(qb, pb, p, level), p**level]
    for columns in (direct, carried):
        assert [Fraction(*pair) for pair in columns] == want
    assert Fraction(*q_alone) == want[0]


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 64))
@example(qb=5e-324, pb=1.7e308, p=5e-324, level=64)  # the double-range corners
@example(qb=1.7e308, pb=5e-324, p=1.7e308, level=64)
@example(qb=5e-324, pb=5e-324, p=1.0, level=64)  # Q = 1 and p = 1
@example(qb=Fraction(3, 2), pb=Fraction(3, 2), p=Fraction(5, 4), level=64)  # Q = 1
@example(qb=Fraction(1, 3), pb=Fraction(7, 4), p=Fraction(1), level=64)  # p = 1
@example(qb=1.1, pb=0.9, p=1.1, level=0)
@settings(max_examples=100, deadline=None)
def test_kernel_is_the_proven_formula(qb, pb, p, level):
    assert_kernel_is_the_formula(qb, pb, p, level)


@pytest.mark.parametrize(
    "qb, pb, p",
    [(5e-324, 5e-324, 1.0), (1.7e308, 1.7e308, 0.5), (5e-324, 1.7e308, 5e-324), (1.1, 0.9, 1.1)],
)
def test_kernel_integers_grow_with_the_reduced_ratio(qb, pb, p):
    # with Q = A/B in lowest terms, the integers at level N stay within
    # about 4N (bits of A and B) plus N (bits of p) and the parameters'
    # own bits; unreduced, Q = 1 at the first two points is a ratio of two
    # 1,075- or 1,024-bit integers and grows them by thousands of bits per
    # level
    def bits(value):
        return sum(part.bit_length() for part in Fraction(value).as_integer_ratio())

    ratio_bits, p_bits, own_bits = bits(Fraction(qb) / Fraction(pb)), bits(p), bits(qb) + bits(pb)
    for level, columns in zip(range(65), linkage._exact_columns(qb, pb, p, 0)):
        biggest = max(abs(part).bit_length() for pair in columns for part in pair)
        assert biggest <= 2 * (4 * level + 6) * ratio_bits + level * p_bits + own_bits + 8


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


MILD = (Fraction(11, 10), Fraction(9, 10), Fraction(11, 10))


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
    typo = _planted_typo(getattr(defosc, name))
    monkeypatch.setattr(defosc, name, typo)
    with pytest.raises(AssertionError):
        assert_routes_close(*MILD, 3)
    if name in ("q_from_p", "mu_from_h_match"):  # the two columns the kernel computes
        with pytest.raises(AssertionError):
            assert_kernel_is_the_formula(*MILD, 3)


def test_link_check_computes_only_what_it_prints(monkeypatch):
    # the integer kernel alone computes the printed columns: no formula,
    # not even the two it is proven equal to, runs in the link check
    table = link_table(1.1, 0.9, 1.1, 8)
    report = check_link_consistency(1.1, 0.9, 1.1, 8)

    def refuse(*args):
        raise AssertionError("the link check runs a matching formula")

    for name in FORMULA_ARGS:
        monkeypatch.setattr(linkage, name, refuse)
    monkeypatch.setattr(linkage, "hg_for_two_sided", refuse, raising=False)
    assert link_table(1.1, 0.9, 1.1, 8) == table
    assert check_link_consistency(1.1, 0.9, 1.1, 8) == report


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
# the interval fast path prints what the exact kernel rounds to
# ---------------------------------------------------------------------------

# log-uniform over the positive doubles, 2**-1074 = 5e-324 to 1.7e308
WHOLE_RANGE = st.floats(-1074, 1023.9).map(lambda k: 2.0**k)
COLUMNS = ("q", "mu_h_match", "p_pow_n")
EXACT_COLUMNS = linkage._exact_columns  # the oracle, whatever a test patches


def exact_levels(qb, pb, p, n_max):
    """repr of each level's columns, top / bottom of _exact_columns, up to
    the first level where one leaves double range (returned, else None)."""
    levels = []
    for level, columns in zip(range(n_max + 1), EXACT_COLUMNS(qb, pb, p, 0)):
        try:
            levels.append([repr(top / bottom) for top, bottom in columns])
        except OverflowError:
            return levels, level
    return levels, None


def exact_q(qb, pb, p, level):
    ((top, bottom),) = next(EXACT_COLUMNS(qb, pb, p, level, q_only=True))
    return repr(top / bottom)


def check_q(qb, pb, p, level):
    """The q check_link_consistency hands to its recipe check."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linkage, "_recipe_gaps", lambda q, p: seen.append(q) or [])
        check_link_consistency(qb, pb, p, level)
    return repr(seen[0])


def assert_fast_path_is_exact(qb, pb, p, n_max):
    want, overflow = exact_levels(qb, pb, p, n_max)
    message = f"^linkage value leaves the double range at level={overflow}$"
    if overflow is None:
        rows = link_table(qb, pb, p, n_max)
        assert [[repr(row[key]) for key in COLUMNS] for row in rows] == want
        assert all(row["mu_g_match"] == row["mu_from_q"] == row["mu_h_match"] for row in rows)
    else:
        with pytest.raises(EvaluationOverflowError, match=message):
            link_table(qb, pb, p, n_max)
        columns = linkage._columns(qb, pb, p, 0)
        assert [[repr(value) for value in next(columns)] for _ in range(overflow)] == want
    try:
        want_q = exact_q(qb, pb, p, n_max)
    except OverflowError:
        with pytest.raises(EvaluationOverflowError, match=f"level={n_max}$"):
            check_link_consistency(qb, pb, p, n_max)
    else:
        assert check_q(qb, pb, p, n_max) == want_q


@given(qb=WHOLE_RANGE, pb=WHOLE_RANGE, p=WHOLE_RANGE, n_max=st.integers(0, 200))
@example(qb=5e-324, pb=1.7e308, p=5e-324, n_max=200)
@example(qb=1.7e308, pb=5e-324, p=1.7e308, n_max=0)
@example(qb=5e-324, pb=5e-324, p=1.0, n_max=200)  # Q = 1 and p = 1
@example(qb=1.7e308, pb=1.7e308, p=0.5, n_max=200)  # mu = 2 qb - 2 passes it at 0
@example(qb=0.5, pb=0.5, p=1.0, n_max=3)  # q = 0 exactly at level 0
@example(qb=2.0, pb=1.0, p=0.0625, n_max=200)
@settings(max_examples=150, deadline=None)
def test_every_column_is_the_exact_kernels_double(qb, pb, p, n_max):
    # bit for bit (repr, so -0.0 counts) against top / bottom of the exact
    # kernel, and an overflow at the same level
    assert_fast_path_is_exact(qb, pb, p, n_max)


@pytest.mark.parametrize(
    "qb, pb, p, n_max",
    [(1.1, 0.9, 1.1, 40), (2.0, 1.0, 0.0625, 260), (999.9, 0.0011, 0.0013, 16),
     (5e-324, 1.7e308, 5e-324, 3), (0.5, 0.5, 1.0, 6), (1e-300, 1.1e-300, 0.99, 24)],
)
def test_a_narrow_interval_falls_back_to_the_same_table(monkeypatch, qb, pb, p, n_max):
    # a few bits decide almost nothing, so nearly every level is rounded by
    # the exact kernel at direct powers, and the table must not change
    fallbacks = []

    def counted(*args):
        fallbacks.append(args)
        return EXACT_COLUMNS(*args)

    monkeypatch.setattr(linkage, "_exact_columns", counted)
    monkeypatch.setattr(linkage, "_WIDTH", 4)
    assert_fast_path_is_exact(qb, pb, p, n_max)
    levels = len(exact_levels(qb, pb, p, n_max)[0]) + 1  # the table's, and the check's level
    assert len(fallbacks) >= levels


def test_the_benchmarks_linkage_never_falls_back(monkeypatch):
    # every linkage operation of the link-limits cycle, nominal and range,
    # is decided by its intervals alone
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    pytest.importorskip("mpmath")
    sys.path.insert(0, perfbench)  # ops imports its sibling oracle
    try:
        import ops
    finally:
        sys.path.remove(perfbench)
    fallbacks = []
    monkeypatch.setattr(linkage, "_exact_columns", lambda *args: fallbacks.append(args))
    linked = 0
    for seed in (1, 2, 3):
        for op in ops.build("link-limits", seed):
            if op.entry == "linkage" and op.stratum != "domain":
                op.run()
                linked += 1
    assert linked == 3 * (5 + 24 + 4)  # tables, checks, range operations
    assert fallbacks == []


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
    # q = 5.0e200 at the first point: q**2 leaves double range while q does
    # not; at the second q itself exceeds 1e300, and depth 0 leaves the
    # recipe out
    report = check_link_consistency(qb, pb, p, level)
    assert report.passed
    assert report.dim == depth
    assert report.per_state == ([(n, 0.0) for n in range(depth + 1)] if depth else [])
    assert all(row["consistent"] for row in link_table(qb, pb, p, level))


@pytest.mark.parametrize(
    "qb, p, level, message",
    [
        (2.0, 1.0, 600, "linkage value leaves the double range at level=600"),
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
    levels = [n for n, _ in report.per_state]
    assert levels == (list(range(report.dim + 1)) if report.dim else [])
    assert report.max_abs_residual == max((gap for _, gap in report.per_state), default=0.0)


CORNER = (5e-324, 1.7e308, 5e-324)


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_link_rows_at_the_double_range_corner():
    # a column leaves double range at level 0, whatever n_max; above it
    # q rounds to -1.0, no oscillator, so the recipe does not run, and the
    # check at level 200 computes its exact q in milliseconds
    for n_max in (0, 3, 40):
        with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=0$"):
            link_table(*CORNER, n_max)
    with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=0$"):
        check_link_consistency(*CORNER, 0)
    for level in (1, 40, 200):
        report = check_link_consistency(*CORNER, level)
        relation = f"link-consistency(qb=5e-324,pb=1.7e+308,p=5e-324,level={level})"
        assert report == ResidualReport(relation, 0, 0, 0.0, 1e-10, True, [])


def test_link_rows_at_the_last_level_before_overflow():
    # p**-N = 16**256 leaves double range at level 256; the rows before
    # it and the check past it are the values the Fraction rows printed
    rows = link_table(2.0, 1.0, 0.0625, 255)
    assert rows[-1] == dict(
        n=255, q=3.125, mu_h_match=6.741349255733685e307, mu_g_match=6.741349255733685e307,
        mu_from_q=6.741349255733685e307, p_pow_n=8.900295434028806e-308, consistent=True,
    )
    assert digest(rows) == "5675d383fd90ed59e743391080be4259751693e4bf919ea16dadc80f001c8bbe"
    gaps = [0.0] * 5 + [1.4603138016700745e-16, 0.0, 1.1962890625015312e-16, 0.0,
                        1.960000000000001e-16, 0.0, 0.0, 0.0]
    for level in (255, 256, 260):
        report = check_link_consistency(2.0, 1.0, 0.0625, level)
        assert (report.dim, report.passed) == (12, True)
        assert report.per_state == list(enumerate(gaps))


def test_link_rows_far_from_the_undeformed_point():
    with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=13$"):
        link_table(999.9, 0.0011, 0.0013, 64)
    rows = link_table(999.9, 0.0011, 0.0013, 12)
    assert (rows[-1]["q"], rows[-1]["mu_h_match"], rows[-1]["p_pow_n"]) == (
        9.872814144256842e265, 8.475215102317814e300, 2.3298085122480986e-35
    )
    assert digest(rows) == "e5d518fec45c229fdba99e55e37e267e0c08b7d007be8ae7881aeafb2a4ad489"
    assert check_link_consistency(999.9, 0.0011, 0.0013, 12).per_state == [(0, 0.0), (1, 0.0)]
    report = check_link_consistency(999.9, 0.0011, 0.0013, 0)
    assert (report.dim, report.max_abs_residual) == (12, 2.0886235920602915e-16)


def test_exact_certificate_never_prints_its_fractions():
    # q has about 5,900 digits here, past the int-to-str limit of 4,300
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
