import hashlib
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
    ResidualReport,
    check_link_consistency,
    custom_hg,
    hg_for_two_sided,
    link_table,
    run_limit_suite,
    sf_table,
)
from defosc import linkage
from link_oracle import (
    assert_rows_are_rounded_exact_values, deformed_integer, free_routes, matching, routes_at,
    routes_at_q, target_recipe,
)

GRID = (0.5, 0.9, 1.1, 2.0)
# small positive rationals: exact rows stay a few hundred digits long
RATIONAL = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)
MU_COLUMNS = ("mu_h_match", "mu_g_match", "mu_from_q")


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# the worked point: qb=2, pb=1, p=1, level 0
# ---------------------------------------------------------------------------


def test_worked_point_q():
    assert routes_at(2, 1, 1, 0)["q_from_p"] == Fraction(37, 8)
    assert link_table(2.0, 1.0, 1.0, 0)[0]["q"] == 4.625


def test_worked_point_mu_along_every_route():
    free = routes_at(2, 1, 1, 0)
    assert free["mu_from_h_match"] == free["mu_from_g_match"] == free["mu_from_q"] == 8
    assert free["q_from_mu"] == Fraction(37, 8)
    (row,) = link_table(2.0, 1.0, 1.0, 0)
    assert [row[key] for key in MU_COLUMNS] == [8.0, 8.0, 8.0]


def test_worked_point_inversion():
    assert routes_at(2, 1, 1, 0)["q_and_pn_from_mu"] == (Fraction(37, 8), 1)
    assert link_table(2.0, 1.0, 1.0, 0)[0]["p_pow_n"] == 1.0


def test_worked_point_reaches_the_oscillator_target():
    pair = hg_for_two_sided(2.0, 1.0, 8.0)
    assert pair.h(0) == 1.0
    assert pair.g(0) == 4.625


def test_undeformed_point_gives_zero_mu():
    assert [row[key] for row in link_table(1.0, 1.0, 1.0, 3) for key in MU_COLUMNS] == [0.0] * 12
    assert routes_at(1, 1, 1, 0)["q_and_pn_from_mu"] == (1, 1)


# ---------------------------------------------------------------------------
# loop closure
# ---------------------------------------------------------------------------


def test_loop_closes_on_the_parameter_grid():
    for qb in GRID:
        for pb in GRID:
            for p in GRID:
                for level in range(0, 9, 2):
                    report = check_link_consistency(qb, pb, p, level)
                    assert report.passed, (qb, pb, p, level)


def test_consistency_report_shape():
    # nothing is compared, so the report is a pass with no states, and it
    # echoes the tolerance it read, 0 and inf included
    for tol in (1e-10, 0.0, float("inf")):
        report = check_link_consistency(2.0, 1.0, 1.0, 0, tol=tol)
        relation = "link-consistency(qb=2.0,pb=1.0,p=1.0,level=0)"
        assert report == ResidualReport(relation, 0, 0, 0.0, tol, True, [])


def assert_every_route_rounds_to_the_row(qb, pb, p, row):
    """Each route at the row's level, on Fractions and rounded once, is the
    printed column it computes."""
    free = routes_at(qb, pb, p, row["n"])
    q, p_pow_n = free["q_and_pn_from_mu"]
    for value in (free["q_from_p"], free["q_from_mu"], q):
        assert float(value) == row["q"], (row, value)
    for key, route in zip(MU_COLUMNS, ("mu_from_h_match", "mu_from_g_match", "mu_from_q")):
        assert float(free[route]) == row[key], (row, route)
    assert float(p_pow_n) == row["p_pow_n"]


@pytest.mark.parametrize("qb", GRID)
@pytest.mark.parametrize("pb", GRID)
@pytest.mark.parametrize("p", GRID)
def test_every_route_rounds_to_the_printed_row(qb, pb, p):
    # every route between q and mu, exact, is the printed table at each of
    # the grid's points: the package prints one value per column, and no
    # route rounds to another
    for row in link_table(qb, pb, p, 8):
        assert_every_route_rounds_to_the_row(qb, pb, p, row)


def test_n_dependence_witness():
    # with the ratio away from one, the printed mu genuinely moves with
    # the level: the constant-mu reading of the two-sided relation cannot
    # reproduce the symmetric oscillator
    for qb in GRID:
        for pb in GRID:
            if qb == pb:
                continue
            for p in GRID:
                row0, row1 = link_table(qb, pb, p, 1)
                for key in MU_COLUMNS:
                    assert abs(row1[key] - row0[key]) > 1e-6


def mu_at(qb, pb, p, level):
    return matching(qb, pb, (qb / pb) ** (2 * level), p**level)[1]


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
    assert len({mu_at(qb, pb, p, level) for level in range(4)}) >= 2


@given(qb=RATIONAL)
@settings(max_examples=20, deadline=None)
def test_mu_is_constant_at_the_undeformed_point(qb):
    for level in range(65):
        assert mu_at(qb, qb, Fraction(1), level) == 2 * qb - 2


def test_q_also_depends_on_the_level():
    for qb, pb in [(2.0, 1.0), (0.5, 2.0)]:
        row0, row1 = link_table(qb, pb, 1.0, 1)
        assert abs(row1["q"] - row0["q"]) > 1e-6


# ---------------------------------------------------------------------------
# reduced cases, on Fractions
# ---------------------------------------------------------------------------

QB = Fraction(14, 10)
NEAR_ONE = (1 + Fraction(1, 10**8), 1 - Fraction(1, 10**8))  # ratios next to Q = 1


def test_ratio_one_limit_of_mu_from_q():
    # mu -> 2 qb (q - 1)/(q + 1)
    for q in (Fraction(7, 10), Fraction(13, 10), Fraction(2)):
        for ratio in NEAR_ONE:
            want = 2 * QB * (q - 1) / (q + 1)
            assert rel_gap(routes_at_q(QB, QB / ratio, 3, q)["mu_from_q"], want) <= 1e-6


def test_ratio_one_limit_of_q_from_p():
    # q -> -1 + 2 qb p**N
    for p in (Fraction(1, 2), Fraction(2)):
        for level in (0, 2, 5):
            want = -1 + 2 * QB * p**level
            assert rel_gap(routes_at(QB, QB / NEAR_ONE[0], p, level)["q_from_p"], want) <= 1e-6


def test_ratio_one_mu_through_p_alone():
    # combining both ratio-one limits: mu = 2 (qb - p**-N), exactly
    qb = Fraction(13, 10)
    for p in (Fraction(1, 2), Fraction(2)):
        for level in range(4):
            assert routes_at(qb, qb, p, level)["mu_from_h_match"] == 2 * (qb - p**-level)


def test_mu_vanishes_when_the_target_is_undeformed():
    # p**-N = qb together with ratio one sends mu to zero and q to one;
    # P = p**N is free, so no irrational p = qb**(-1/N) is formed
    qb = Fraction(13, 10)
    free = free_routes(qb, qb, 1, 1 / qb)
    assert (free["mu_from_h_match"], free["q_from_p"]) == (0, 1)


def test_reciprocal_ratio_simplification():
    # q = 1/ratio collapses mu to qb (ratio - 1)(ratio**2 + 1) ratio**(4N-2)
    for qb, pb in [(2, 1), (Fraction(1, 2), 2), (Fraction(11, 10), Fraction(9, 10))]:
        ratio = Fraction(qb) / pb
        for level in range(4):
            got = routes_at_q(qb, pb, level, 1 / ratio)["mu_from_q"]
            assert got == qb * (ratio - 1) * (ratio**2 + 1) * ratio ** (4 * level - 2)


def test_arik_coon_target():
    assert routes_at(2, 1, 1, 0)["mu_for_arik_coon_target"] == 8
    assert routes_at(1, 1, 1, 5)["mu_for_arik_coon_target"] == 0
    # the matching mu really flattens h to one
    for qb, pb in [(2, 1), (Fraction(1, 2), 2), (Fraction(11, 10), Fraction(9, 10))]:
        for level in range(5):
            mu = routes_at(qb, pb, 1, level)["mu_for_arik_coon_target"]
            assert hg_for_two_sided(Fraction(qb), Fraction(pb), mu).h(level) == 1


# ---------------------------------------------------------------------------
# poles and signs
# ---------------------------------------------------------------------------


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_mu_from_q_pole(qb, pb, p, level):
    # mu_from_q divides by 1 + q, and the matching q stays above -1 by
    # pb p**N Q**(2N) (1 + Q + ...)/2 > 0: the pole is never reached
    q = routes_at(qb, pb, p, level)["q_from_p"]
    Q, X = qb / pb, (qb / pb) ** (2 * level)
    assert q + 1 == pb * p**level * X * (1 + Q + X / Q**2 * (1 + Q**5)) / 2 > 0


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_inversion_pole(qb, pb, p, level):
    # the inversion to (q, p**N) divides by pb Q X (1 + Q**2 X) - mu, which
    # is 2 / p**N at the matching mu: positive, never the pole
    mu = routes_at(qb, pb, p, level)["mu_from_h_match"]
    Q, X = qb / pb, (qb / pb) ** (2 * level)
    assert pb * Q * X * (1 + Q**2 * X) - mu == 2 / p**level > 0


def test_q_and_mu_may_take_either_sign():
    # q ranges over (-1, inf) and mu over the reals: the table prints both
    # signs, and the printed q stays above the pole at -1
    (below,) = link_table(0.25, 0.25, 1.0, 0)
    (above,) = link_table(2.0, 1.0, 1.0, 0)
    assert (below["q"], below["mu_h_match"]) == (-0.5, -1.5)
    assert (above["q"], above["mu_h_match"]) == (4.625, 8.0)
    assert below["consistent"] and above["consistent"]
    assert routes_at(0.25, 0.25, 1, 0)["q_and_pn_from_mu"] == (Fraction(-1, 2), 1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_link_input_validation():
    for qb, pb, p, level in [(0.0, 1.0, 1.0, 0), (1.0, 1.0, 0.0, 0), (1.0, 1.0, 1.0, -1)]:
        with pytest.raises(DomainError):
            check_link_consistency(qb, pb, p, level)
        with pytest.raises(DomainError):
            link_table(qb, pb, p, level)
    with pytest.raises(DomainError):
        check_link_consistency(1.0, 1.0, 1.0, -2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_link_parameters_are_refused(bad, slot):
    # finiteness is checked first, so a nan is named as not finite rather
    # than as not positive
    params = [2.0, 1.0, 1.0]
    params[slot] = bad
    message = f"^parameter {('qb', 'pb', 'p')[slot]} must be finite, got {bad!r}$"
    with pytest.raises(DomainError, match=message):
        check_link_consistency(*params, 0)
    with pytest.raises(DomainError, match=message):
        link_table(*params, 3)


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_impossible_link_tolerance_is_a_domain_error(tol):
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        check_link_consistency(1.1, 1.0, 1.0, 3, tol=tol)
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        link_table(1.1, 1.0, 1.0, 3, tol=tol)
    with pytest.raises(DomainError, match=r"^tolerance must be >= 0"):
        run_limit_suite(tolerance=tol)


def test_limit_suite_checks_carry_the_read_tolerance():
    # a numpy tolerance is read as its float, so each verdict is a bool
    checks = run_limit_suite(tolerance=np.float32(1e-6))
    assert len(checks) == 5
    for check in checks:
        assert type(check.tolerance) is float and type(check.passed) is bool
        assert check.tolerance == float(np.float32(1e-6))


def test_link_levels_are_integers():
    with pytest.raises(DomainError, match=r"^level must be an integer, got 2.5$"):
        check_link_consistency(1.1, 1.0, 1.0, 2.5)
    with pytest.raises(DomainError, match=r"^n_max must be an integer, got 2.5$"):
        link_table(1.1, 1.0, 1.0, 2.5)
    with pytest.raises(DomainError, match=r"^level must be an integer, got 1.0$"):
        check_link_consistency(1.1, 1.0, 1.0, 1.0)
    assert link_table(1.1, 1.0, 1.0, np.int64(3)) == link_table(1.1, 1.0, 1.0, 3)
    # the level is a Python int in the kernel: an int raised to a numpy
    # integer computes in wrapping int64
    for level in (3, 30):
        report = check_link_consistency(1.1, 1.0, 1.0, np.int64(level))
        assert report == check_link_consistency(1.1, 1.0, 1.0, level)
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
    # p**(-n) = 16**256 leaves the double range in the mu columns
    with pytest.raises(EvaluationOverflowError, match=r"level=256$") as exc:
        link_table(2.0, 1.0, 0.0625, 260)
    assert isinstance(exc.value, DeformedAlgebraError)
    assert type(exc.value.__cause__) is OverflowError
    rows = link_table(2.0, 1.0, 0.0625, 250)
    assert len(rows) == 251
    assert all(row["consistent"] for row in rows)


def test_link_check_passes_for_small_p():
    # h(n) = p**-n = 1e30**n would leave 1e300 past level 10, and p**-2 =
    # 1e400 leaves double range: no float power of the target is formed,
    # so each point passes with its printed columns in range
    rows = link_table(1.0, 1.0, 1e-30, 2)
    assert [row["consistent"] for row in rows] == [True, True, True]
    assert check_link_consistency(1.0, 1.0, 1e-30, 0).passed
    assert link_table(2.0, 1.0, 1e-200, 1)[-1]["consistent"]
    assert check_link_consistency(2.0, 1.0, 1e-200, 0).passed
    # q = 2e20 at level 0, where g(n) Phi(n) ~ (q / p)**n would pass the
    # largest double at n = 9
    assert check_link_consistency(1e20, 1e20, 1e-20, 0).passed


LINK_TOLERANCES = (0.0, 2.0**-52, 1e-13, 1e-12, 1e-10, float("inf"))


@given(
    qbpbp=st.one_of(
        st.tuples(*[st.floats(-1074, 1023.9).map(lambda k: 2.0**k)] * 3),
        st.tuples(*[st.floats(1e-3, 1e3)] * 3),
        st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.45, 1.0)),
    ),
    n_max=st.integers(0, 40),
    tol=st.sampled_from(LINK_TOLERANCES),
)
@example(qbpbp=(0.1, 0.1, 0.1), n_max=4, tol=0.0)  # q <= 0
@example(qbpbp=(1.05, 0.95, 1.05), n_max=12, tol=0.0)
@settings(max_examples=300, deadline=None)
def test_the_tolerance_decides_nothing(qbpbp, n_max, tol):
    # every tolerance prints the default's table, or raises its error, and
    # every row reads consistent
    try:
        rows = link_table(*qbpbp, n_max)
    except EvaluationOverflowError as exc:
        with pytest.raises(EvaluationOverflowError, match=f"^{exc}$"):
            link_table(*qbpbp, n_max, tol=tol)
        return
    assert link_table(*qbpbp, n_max, tol=tol) == rows
    assert all(row["consistent"] is True for row in rows)


def test_link_table_forms_one_table_at_every_tolerance(monkeypatch):
    # a tolerance below the default forms no more than the table's levels
    formed = []
    columns = linkage._columns
    monkeypatch.setattr(linkage, "_columns", lambda *args: formed.append(args) or columns(*args))
    for tol in (0.0, 1e-13, 1e-10, float("inf")):
        assert all(row["consistent"] for row in link_table(1.05, 0.95, 1.05, 8, tol=tol))
    assert formed == [(1.05, 0.95, 1.05, 0)] * 4


# ---------------------------------------------------------------------------
# the target is the oscillator of the deformed integers: a proof on Fractions
# ---------------------------------------------------------------------------

# the matching's range: rational q > -1 (q <= 0 included) and p > 0
TARGET_Q = st.fractions(min_value=-1, max_value=8, max_denominator=64).filter(lambda q: q > -1)
TARGET_P = st.fractions(min_value=0, max_value=8, max_denominator=64).filter(lambda p: p > 0)


def target_pair(q, p) -> HGPair:
    def lists(m):
        h = [p**-n for n in range(m)]
        return h, [q * value for value in h]

    return HGPair(lambda n: p**-n, lambda n: q * p**-n, "oscillator-target", lists)


@given(q=TARGET_Q, p=TARGET_P)
@example(q=Fraction(0), p=Fraction(1))
@example(q=Fraction(-63, 64), p=Fraction(1, 64))  # q + p < 0: no oscillator, same identity
@example(q=Fraction(3, 2), p=Fraction(3, 2))  # q = p
@example(q=Fraction(-1, 2), p=Fraction(1, 2))  # q = -p
@settings(max_examples=200, deadline=None)
def test_the_target_recipe_is_the_deformed_integers(q, p):
    # Phi(n+1) = p**n + q Phi(n) = [n+1] for every q and p, so the recipe
    # over the target pair can only tell roundoff: link_table prints no such
    # check.  The package's recipe, from the pair's lists or level by level,
    # is the same exact table.
    want = [deformed_integer(q, p, n) for n in range(25)]
    assert target_recipe(q, p, 24) == want
    pair = target_pair(q, p)
    assert sf_table(custom_hg(pair), 24) == want
    unlisted = HGPair(pair.h, pair.g, pair.label)
    assert sf_table(custom_hg(unlisted), 24) == want


# ---------------------------------------------------------------------------
# the matching routes close exactly: a proof on Fractions
# ---------------------------------------------------------------------------


def assert_routes_close(qb, pb, p, level):
    """Every route reproduces the matching q and mu exactly at the level,
    and the package's two-sided pair at that mu is the oscillator target.
    hg_for_two_sided is looked up on the package, so a typo planted there
    shows."""
    qb, pb, p = Fraction(qb), Fraction(pb), Fraction(p)
    X, P = (qb / pb) ** (2 * level), p**level
    q, mu = matching(qb, pb, X, P)
    free = free_routes(qb, pb, X, P)
    assert (free["q_from_p"], free["mu_from_h_match"]) == (q, mu)
    assert free["mu_from_g_match"] == free["mu_from_q"] == mu
    assert free["q_from_mu"] == q
    assert free["q_and_pn_from_mu"] == (q, P)
    assert free["hg_for_two_sided"] == (1 / P, q / P)
    # a per-level mu keeps the label from printing mu
    pair = defosc.hg_for_two_sided(qb, pb, lambda n: mu)
    assert (pair.h(level), pair.g(level)) == (1 / P, q / P)
    # the one-parameter target's mu flattens the package's h to one; it is
    # passed per level, as an exact constant mu past double range is refused
    target_mu = free["mu_for_arik_coon_target"]
    assert defosc.hg_for_two_sided(qb, pb, lambda n: target_mu).h(level) == 1


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_matching_routes_close_exactly(qb, pb, p, level):
    # each former runtime gap is a rational function of (qb, pb, p) at a
    # fixed level; a nonzero one survives random rational points with
    # negligible probability (Schwartz-Zippel), so exact zeros are a proof
    assert_routes_close(qb, pb, p, level)


@given(qb=RATIONAL, pb=RATIONAL, p=RATIONAL, level=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_free_transcription_is_the_public_formula(qb, pb, p, level):
    free = routes_at(qb, pb, p, level)
    pair = hg_for_two_sided(qb, pb, lambda n: free["mu_from_h_match"])
    assert free["hg_for_two_sided"] == (pair.h(level), pair.g(level))
    # the one-parameter target's mu flattens the public h to one
    assert hg_for_two_sided(qb, pb, free["mu_for_arik_coon_target"]).h(level) == 1


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
    """The integer kernel's exact q, mu and p**N are the matching q and mu
    and p**N on Fractions, both from direct powers at the level and carried
    from level 0, and its q alone is the same q.  The kernel is looked up
    on the module, so a typo planted there shows."""
    direct = next(linkage._exact_columns(qb, pb, p, level))
    carried = next(islice(linkage._exact_columns(qb, pb, p, 0), level, None))
    (q_alone,) = next(linkage._exact_columns(qb, pb, p, level, q_only=True))
    qb, pb, p = Fraction(qb), Fraction(pb), Fraction(p)
    want = [*matching(qb, pb, (qb / pb) ** (2 * level), p**level), p**level]
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


def _planted_pair(formula):
    # scale h and g of the pair by 1 + 1e-6, as a typo would
    def wrapper(*args):
        out = formula(*args)
        h, g = out.h, out.g
        return HGPair(lambda n: h(n) * PLANTED, lambda n: g(n) * PLANTED, out.label)

    return wrapper


def _planted_columns(kernel):
    # scale every exact value the kernel yields by 1 + 1e-6, as a typo would
    def wrapper(*args, **kwargs):
        for columns in kernel(*args, **kwargs):
            yield tuple((top * PLANTED.numerator, bottom * PLANTED.denominator)
                        for top, bottom in columns)

    return wrapper


def _planted_term(table):
    # scale the first term of q + 1 in the kernel's table by 1 + 1e-6, as a
    # typo would: the column's other terms and its bottom keep their value
    def wrapper(*args):
        ((k, f), *others), *columns = table(*args)
        return [((k * PLANTED.numerator, f), *((top * PLANTED.denominator, g) for top, g in others)),
                *columns]

    return wrapper


def _planted_route(route):
    # scale one route of the oracle by 1 + 1e-6, as a transcription typo would
    def plant(routes):
        def wrapper(*args):
            free = routes(*args)
            value = free[route]
            if isinstance(value, tuple):
                free[route] = tuple(part * PLANTED for part in value)
            else:
                free[route] = value * PLANTED
            return free

        return wrapper

    return plant


def _planted_matching(formula):
    # scale the matching q and mu by 1 + 1e-6
    def wrapper(*args):
        q, mu = formula(*args)
        return q * PLANTED, mu * PLANTED

    return wrapper


MILD = (Fraction(11, 10), Fraction(9, 10), Fraction(11, 10))
HERE = sys.modules[__name__]
ROUTES = tuple(routes_at(*MILD, 0))

# what a typo is planted in (module, name), how, and the certificates that
# must each catch it: the package's pair and kernel, the matching both are
# proved against, and each route of the oracle's one transcription.  The
# exact kernel and the intervals read one table, so a typo in it moves both
# and only the oracle catches it; interval against exact checks the
# interval arithmetic alone
PLANTS = {
    "hg_for_two_sided": ((defosc, "hg_for_two_sided"), _planted_pair, [assert_routes_close]),
    "_exact_columns": ((linkage, "_exact_columns"), _planted_columns, [assert_kernel_is_the_formula]),
    "_table": ((linkage, "_table"), _planted_term, [assert_kernel_is_the_formula]),
    "matching": (
        (HERE, "matching"), _planted_matching, [assert_routes_close, assert_kernel_is_the_formula]
    ),
    **{
        route if route != "hg_for_two_sided" else "hg_for_two_sided_route": (
            (HERE, "free_routes"), _planted_route(route), [assert_routes_close]
        )
        for route in ROUTES
    },
}


@pytest.mark.parametrize("name", PLANTS)
def test_planted_typo_fails_the_certificate(monkeypatch, name):
    (module, attribute), plant, certificates = PLANTS[name]
    for certificate in certificates:
        certificate(*MILD, 3)
    monkeypatch.setattr(module, attribute, plant(getattr(module, attribute)))
    for certificate in certificates:
        with pytest.raises(AssertionError):
            certificate(*MILD, 3)


def test_link_check_computes_only_what_it_prints(monkeypatch):
    # the integer kernel alone computes the printed columns: the two-sided
    # pair, which the proofs read, never runs in the link check
    table = link_table(1.1, 0.9, 1.1, 8)
    report = check_link_consistency(1.1, 0.9, 1.1, 8)

    def refuse(*args):
        raise AssertionError("the link check builds the two-sided pair")

    monkeypatch.setattr(linkage, "hg_for_two_sided", refuse, raising=False)
    assert link_table(1.1, 0.9, 1.1, 8) == table
    assert check_link_consistency(1.1, 0.9, 1.1, 8) == report


def test_formulas_stay_exact_on_fractions():
    # the oracle's routes and the package's two-sided pair, on Fractions
    free = routes_at(2, 1, 1, 0)
    q, mu = free["q_from_p"], free["mu_from_h_match"]
    pair = hg_for_two_sided(Fraction(2), Fraction(1), mu)
    values = [
        q,
        mu,
        free["mu_from_g_match"],
        free["mu_from_q"],
        free["q_from_mu"],
        *free["q_and_pn_from_mu"],
        free["mu_for_arik_coon_target"],
        pair.h(0),
        pair.g(0),
    ]
    assert all(type(value) is Fraction for value in values)
    assert (q, mu) == (Fraction(37, 8), 8)
    assert values[2:8] == [8, 8, Fraction(37, 8), Fraction(37, 8), 1, 8]
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
    except EvaluationOverflowError:  # a column leaves double range
        return
    assert [row["n"] for row in rows] == list(range(n_max + 1))
    assert_rows_are_rounded_exact_values(qb, pb, p, rows)


def test_mild_parameters_print_exact_columns_to_level_64():
    # a float route prints p_pow_n off by 41 % at level 40 here, and at
    # level 42 divides by cancellation noise into a false pole
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
    """The q check_link_consistency decides at the level, before it passes."""
    seen = []
    columns = linkage._columns

    def spied(*args, **kwargs):
        for value in columns(*args, **kwargs):
            seen.append(value)
            yield value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linkage, "_columns", spied)
        assert check_link_consistency(qb, pb, p, level).passed
    ((q,),) = seen
    return repr(q)


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


@pytest.mark.parametrize("qb, level", [(2.05, 28), (2.0, 40)])
def test_link_check_passes_where_powers_of_q_overflow(qb, level):
    # q**9 and q**7 pass the largest double here; no power of q is formed
    report = check_link_consistency(qb, 1.0, 1.0, level)
    assert (report.passed, report.dim, report.per_state) == (True, 0, [])


@pytest.mark.parametrize("qb, pb, p, level", [(0.1, 0.01, 10.0, 40), (0.5, 0.1, 10.0, 80)])
def test_link_check_passes_where_q_nears_the_largest_double(qb, pb, p, level):
    # q = 5.0e200 at the first point, where q**2 leaves double range while
    # q does not; at the second q itself exceeds 1e300
    report = check_link_consistency(qb, pb, p, level)
    assert (report.passed, report.dim, report.per_state) == (True, 0, [])
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
    relation = f"link-consistency(qb={qb},pb={pb},p={p},level={level})"
    assert report == ResidualReport(relation, 0, 0, 0.0, 1e-10, True, [])


CORNER = (5e-324, 1.7e308, 5e-324)


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_link_rows_at_the_double_range_corner():
    # a column leaves double range at level 0, whatever n_max; above it
    # q rounds to -1.0, and the check at level 200 computes its exact q in
    # milliseconds
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
    for level in (255, 256, 260):
        report = check_link_consistency(2.0, 1.0, 0.0625, level)
        assert (report.dim, report.passed, report.per_state) == (0, True, [])


def test_link_rows_far_from_the_undeformed_point():
    with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=13$"):
        link_table(999.9, 0.0011, 0.0013, 64)
    rows = link_table(999.9, 0.0011, 0.0013, 12)
    assert (rows[-1]["q"], rows[-1]["mu_h_match"], rows[-1]["p_pow_n"]) == (
        9.872814144256842e265, 8.475215102317814e300, 2.3298085122480986e-35
    )
    assert digest(rows) == "e5d518fec45c229fdba99e55e37e267e0c08b7d007be8ae7881aeafb2a4ad489"
    for level in (0, 12):
        report = check_link_consistency(999.9, 0.0011, 0.0013, level)
        assert (report.dim, report.max_abs_residual, report.per_state) == (0, 0.0, [])


def test_exact_certificate_never_prints_its_fractions():
    # q has about 5,900 digits here, past the int-to-str limit of 4,300
    with pytest.raises(EvaluationOverflowError, match="level=64"):
        check_link_consistency(999.9, 0.0011, 0.0013, 64)


# at qb = 2, pb = 1, p = 1, level 600: X = 4**600, and every mu route is
# qb X (1 + Q**2 X) - 2
Q600 = Fraction(4**600 * (3 + 33 * 4**599), 2) - 1
MU600 = 2 * 4**600 * (1 + 4**601) - 2
AT_600 = dict(
    q_from_p=Q600, mu_from_h_match=MU600, mu_from_g_match=MU600, mu_from_q=MU600,
    q_from_mu=Q600, q_and_pn_from_mu=(Q600, 1), hg_for_two_sided=(1, Q600),
    mu_for_arik_coon_target=MU600,
)
# the link table's column for each route it prints
ROUTE_COLUMNS = dict(
    q_from_p=("q",), mu_from_h_match=("mu_h_match",), mu_from_g_match=("mu_g_match",),
    mu_from_q=("mu_from_q",), q_from_mu=("q",), q_and_pn_from_mu=("q", "p_pow_n"),
)


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_stays_exact_past_double_range(route):
    # Q**(4N + 2) = 2**1002 is a double at level 250, and 2**2402 at level
    # 600 is not: the exact route is its closed value at both, the table
    # prints it rounded at 250 and types the overflow past 255
    assert routes_at(2, 1, 1, 600)[route] == AT_600[route]
    value = routes_at(2, 1, 1, 250)[route]
    if route in ROUTE_COLUMNS:
        row = link_table(2.0, 1.0, 1.0, 250)[-1]
        values = value if isinstance(value, tuple) else (value,)
        assert [float(part) for part in values] == [row[key] for key in ROUTE_COLUMNS[route]]
        with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=256$"):
            link_table(2.0, 1.0, 1.0, 600)
    else:  # the package's two-sided pair, on Fractions
        for level in (250, 600):
            free = routes_at(2, 1, 1, level)
            # per level, as no double holds the level-600 mu
            target_mu = free["mu_for_arik_coon_target"]
            pair = hg_for_two_sided(Fraction(2), Fraction(1), lambda n: target_mu)
            assert pair.h(level) == 1
            pair = hg_for_two_sided(Fraction(2), Fraction(1), lambda n: free["mu_from_h_match"])
            assert (pair.h(level), pair.g(level)) == free["hg_for_two_sided"]


@pytest.mark.parametrize("qb, pb", [(1e300, 1e150), (1e-300, 1e300)])
def test_link_types_inf_products_and_underflowed_ratios(qb, pb):
    # a float Q = 1e150 makes pb Q (1 + Q**2) inf from finite factors, and
    # Q = 1e-300 / 1e300 underflows to 0.0 and divides q; the exact kernel
    # forms both, and the table types the double it cannot print
    q, mu, _ = next(linkage._exact_columns(qb, pb, 1.0, 0))
    Q = Fraction(qb) / Fraction(pb)
    assert Fraction(*mu) == Fraction(qb) * (1 + Q**2) - 2
    assert Fraction(*q) == Fraction(pb) * (1 + Q + (1 + Q**5) / Q**2) / 2 - 1
    for call in (lambda: link_table(qb, pb, 1.0, 3), lambda: check_link_consistency(qb, pb, 1.0, 0)):
        with pytest.raises(EvaluationOverflowError, match="^linkage value .* at level=0$") as exc:
            call()
        assert type(exc.value.__cause__) is OverflowError


def test_fraction_formulas_stay_exact_past_double_range():
    # the exact kernel at level 600, where p**-N = 16**600 is far past double range
    q, mu, p_pow_n = next(linkage._exact_columns(2.0, 1.0, 0.0625, 600))
    assert Fraction(*mu) == 2 * 4**600 * (1 + 4**601) - 2 * 16**600
    assert Fraction(*q) == -1 + Fraction(3 + 33 * 4**599, 2) * 4**600 / 16**600
    assert Fraction(*p_pow_n) == Fraction(1, 16**600)


# ---------------------------------------------------------------------------
# one overflow guard per table, and the interval products
# ---------------------------------------------------------------------------

# points whose columns first leave double range at levels 0, 5, 32 and 256
LEAVING = [
    (1.9914421945390676e-11, 1.3658273962263223e-230, 2.0031343320821813e-120),
    (1.6757861216304183e64, 9.838889158457611e100, 1.2145921232977473e-71),
    (31.106376961891545, 0.23509692477797836, 9.857754453864686),
    (2.0, 1.0, 0.0625),
]


@pytest.mark.parametrize("qbpbp", LEAVING)
def test_link_table_guard_names_the_level_it_leaves_at(qbpbp):
    # the level where an exact column first leaves double range ends a table
    # that asks for it, named by that level, and one level short of it is
    # printed whole: the table never forms a level past n_max
    _, leaves = exact_levels(*qbpbp, 300)
    for n_max in (leaves, leaves + 3):
        with pytest.raises(EvaluationOverflowError,
                           match=f"^linkage value leaves the double range at level={leaves}$") as exc:
            link_table(*qbpbp, n_max)
        assert type(exc.value.__cause__) is OverflowError
    if leaves:
        assert [row["n"] for row in link_table(*qbpbp, leaves - 1)] == list(range(leaves))


def test_link_table_forms_the_levels_it_prints(monkeypatch):
    formed = []
    columns = linkage._columns

    def counted(*args):
        for values in columns(*args):
            formed.append(values)
            yield values

    monkeypatch.setattr(linkage, "_columns", counted)
    for n_max in (0, 1, 8):
        formed.clear()
        assert len(link_table(1.05, 0.97, 0.95, n_max)) == len(formed) == n_max + 1


def _pow_by_every_square(x, n):
    # the squaring loop with its unused last square, as _pow was first written
    power = linkage._ONE
    while n:
        power, x, n = linkage._mul(power, x) if n & 1 else power, linkage._mul(x, x), n >> 1
    return power


def _products(x, n):
    power = linkage._ONE
    for _ in range(n):
        power = linkage._mul(power, x)
    return power


def _encloses(interval, exact: Fraction) -> bool:
    lo, hi, e = interval
    return Fraction(lo) * Fraction(2) ** e <= exact <= Fraction(hi) * Fraction(2) ** e


@given(top=st.integers(1, 2**200), bottom=st.integers(1, 2**200), n=st.integers(0, 64))
@settings(max_examples=200, deadline=None)
def test_pow_is_n_products(top, bottom, n):
    # squaring rounds at other places than n successive _muls, so both
    # enclose (top / bottom)**n; _pow keeps the bits of the loop it replaces
    x = linkage._quotient(top, bottom)
    power = linkage._pow(x, n)
    assert power == _pow_by_every_square(x, n)
    assert _encloses(power, Fraction(top, bottom) ** n)
    assert _encloses(_products(x, n), Fraction(top, bottom) ** n)


@given(lo=st.integers(1, 3), width=st.integers(0, 2), e=st.integers(-60, 60), n=st.integers(0, 64))
def test_pow_is_n_products_where_none_rounds(lo, width, e, n):
    # ends of two bits stay below 2**128 to the 64th power: no product rounds
    x = (lo, min(lo + width, 3), e)
    assert linkage._pow(x, n) == _products(x, n) == (lo**n, x[1] ** n, n * e)
