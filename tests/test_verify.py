import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defosc import (
    DeformedAlgebraError,
    DomainError,
    EvaluationOverflowError,
    HGPair,
    arik_coon,
    build_ladder,
    build_xp,
    custom_hg,
    equal_hg_special_case,
    harmonic,
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
    nonstd_q,
    nonstd_qp,
    sf_table,
    verify_commutator_sf,
    verify_hg,
    verify_q_ha,
    verify_qp_ha,
    verify_two_sided,
)

GRID = (0.5, 0.9, 1.1, 2.0)


def test_report_invariant():
    report = verify_q_ha(1.3, dim=12)
    assert report.passed == (report.max_abs_residual <= report.tolerance)
    assert report.dim == 12
    assert report.margin == 2


def test_classical_commutator():
    report = verify_q_ha(1.0, dim=16)
    assert report.max_abs_residual < 1e-12


@pytest.mark.parametrize("q", GRID)
def test_q_relation_holds(q):
    assert verify_q_ha(q, dim=32).passed


@pytest.mark.parametrize("q", [0.5, 2.0])
@pytest.mark.parametrize("p", [0.9, 2.0])
def test_qp_relation_holds(q, p):
    assert verify_qp_ha(q, p, dim=32).passed


def _log_uniform(low: float, high: float):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@given(
    ratio=_log_uniform(0.3, 4.5),
    p=_log_uniform(0.3, 3.0),
    dim=_log_uniform(4, 3000).map(round),
)
@settings(max_examples=100, deadline=None)
def test_true_constructions_never_fail(ratio, p, dim):
    # each realization is exact, so a FAIL would be false; far from Q = 1 the
    # float Phi may leave double range, which is a typed error, never a FAIL
    checks = (
        lambda: verify_qp_ha(ratio * p, p, dim=dim),
        lambda: verify_q_ha(ratio, dim=dim),
    )
    for check in checks:
        try:
            report = check()
        except DeformedAlgebraError:
            continue
        assert report.passed, (ratio, p, dim, report.max_abs_residual)


def test_qp_relation_reduces_to_q_at_p_one():
    a = verify_qp_ha(1.7, 1.0, dim=24)
    b = verify_q_ha(1.7, dim=24)
    assert a.passed and b.passed


@pytest.mark.parametrize(
    "q,dim", [(3, 32), (58, 16), (Fraction(3, 2), 32), (Fraction(21, 16), 64), (7, 24)]
)
def test_q_relation_takes_an_exact_q_as_its_float(q, dim):
    # the numpy side reads an int or Fraction as its float: every check, and
    # the realization with its dressing, equals the same call on the floats.
    # An int or Fraction q once dressed by exact powers rounded once, which
    # differ in the last bit at these points.  These q and p are floats
    # exactly, so the float call's Q = q / p is the exact Q rounded once, as
    # the exact pair's is; mu = 1/5 is not, and reads as 0.2.
    def outcome(q, p, mu):
        pair, options = hg_for_qp_ha(q, p), {"dim": dim, "margin": 0, "per_state": True}
        reports = [
            verify_q_ha(q, **options),
            verify_qp_ha(q, p, **options),
            verify_two_sided(q, p, mu, **options),
            verify_two_sided(q, p, 0, check_mu=mu, alt_pairing=True, **options),
            verify_hg(build_ladder(custom_hg(pair), dim), pair, margin=0, per_state=True),
        ]
        rep = build_xp(build_ladder(nonstd_qp(q, p), dim), q / p)
        unlabelled = [dataclasses.replace(report, relation="") for report in reports]
        return unlabelled, [array.tobytes() for array in (rep.phi, rep.ladder, rep.x, rep.p)]

    for p in (1, Fraction(3, 4)):
        assert outcome(q, p, Fraction(1, 5)) == outcome(float(q), float(p), 0.2), p


def test_an_exact_number_past_double_range_is_typed():
    # no float holds 10**400, so the pair's entrance refuses it, naming it;
    # Q = 10**600 of two numbers a double holds stays exact in the pair, and
    # every numpy-side reader names its overflow, as it does a float overflow
    big, one = Fraction(10**400), Fraction(1)
    for call in (lambda: hg_for_qp_ha(big, one), lambda: verify_qp_ha(big, one, dim=8),
                 lambda: build_xp(build_ladder(harmonic(), 8), big)):
        with pytest.raises(EvaluationOverflowError, match=r"^parameter (q|ratio) leaves"):
            call()
    large, small = Fraction(10**300), Fraction(1, 10**300)
    pair = hg_for_qp_ha(large, small)
    calls = [
        lambda: build_ladder(custom_hg(pair), 8),
        lambda: verify_hg(build_ladder(harmonic(), 8), pair),
        lambda: verify_qp_ha(large, small, dim=8),
        lambda: verify_two_sided(large, small, Fraction(1, 5), dim=8),
        lambda: build_xp(build_ladder(harmonic(), 8), large / small),
    ]
    for call in calls:
        with pytest.raises(EvaluationOverflowError):
            call()


@pytest.mark.parametrize(
    "mu", [Fraction(1, 5), Decimal("0.2"), np.float32(0.2)], ids=["fraction", "decimal", "float32"]
)
def test_a_constant_mu_is_one_value_in_every_reader(mu):
    # mu enters 1 + mu H, the pair's h and g, sf_table's pure-Python lists
    # and build_ladder's arrays as one value, its float: a Fraction mu no
    # longer meets a float array as an object, a Decimal no longer meets a
    # float in h, and a float32 no longer makes the lists single precision
    value = float(mu)
    expected = verify_two_sided(1.05, 1.0, value, dim=64, per_state=True)
    assert verify_two_sided(1.05, 1.0, value, dim=64, check_mu=mu, per_state=True) == expected
    report = verify_two_sided(1.05, 1.0, mu, dim=64, per_state=True)
    assert dataclasses.replace(report, relation=expected.relation) == expected
    pair, floats = hg_for_two_sided(1.05, 1.0, mu), hg_for_two_sided(1.05, 1.0, value)
    assert [pair.h(n) for n in range(8)] == [floats.h(n) for n in range(8)]
    assert [pair.g(n) for n in range(8)] == [floats.g(n) for n in range(8)]
    table = sf_table(custom_hg(pair), 64)
    assert table == sf_table(custom_hg(floats), 64)
    assert build_ladder(custom_hg(pair), 64).phi.tolist() == table


@pytest.mark.parametrize("d", [1e-5, 1e-7, 1e-8, 2e-9, 1e-12])
def test_qp_relation_holds_next_to_the_undeformed_point(d):
    # [m] near q = p cancels nowhere, so the residual stays at roundoff
    report = verify_qp_ha(1.0 + d, 1.0, dim=64)
    assert report.passed, report
    assert report.max_abs_residual < 1e-14


def test_qp_relation_at_equal_parameters():
    # scaled harmonic oscillator; the relation still holds
    assert verify_qp_ha(2.0, 2.0, dim=32).passed


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5])
def test_two_sided_relation_holds(mu):
    assert verify_two_sided(2.0, 0.5, mu, dim=32).passed


def test_two_sided_relation_holds_where_g_vanishes():
    # g(1) = pb Q**2 (1 + 1) / 2 + mu / 2 = 0 here; the recipe never
    # divides by g, so the construction stands
    assert hg_for_two_sided(0.5, 1.0, -0.5).g(1) == 0.0
    assert verify_two_sided(0.5, 1.0, -0.5, dim=64).passed


def test_two_sided_mu_zero_matches_plain_qp():
    a = verify_two_sided(2.0, 0.5, 0.0, dim=24)
    b = verify_qp_ha(2.0, 0.5, dim=24)
    assert a.passed and b.passed


def test_two_sided_equal_coefficient_case_with_per_level_mu():
    mu_fn, _ = equal_hg_special_case(2.0, 1.0)
    assert verify_two_sided(2.0, 1.0, mu_fn, dim=32).passed
    # the operator entries grow like the fourth power of the ratio per
    # level; with the residual normalized by the participating terms the
    # identity is roundoff-exact at any dimension
    assert verify_two_sided(2.0, 1.0, mu_fn, dim=64).passed


def test_two_sided_alt_pairing_fails_when_deformed():
    for qb, pb, mu in [(2.0, 1.0, 0.3), (0.5, 2.0, -0.3)]:
        good = verify_two_sided(qb, pb, mu, dim=16)
        bad = verify_two_sided(qb, pb, mu, dim=16, alt_pairing=True)
        assert good.passed
        assert not bad.passed
        assert bad.max_abs_residual >= 1e-2


def test_two_sided_alt_pairing_degenerates_at_equal_parameters():
    # both coefficient assignments coincide when qb = pb
    assert verify_two_sided(1.3, 1.3, 0.2, dim=16, alt_pairing=True).passed


def test_hg_relation_holds_for_all_pair_families():
    pairs = [hg_for_q_ha(2.0), hg_for_qp_ha(0.5, 2.0), hg_for_two_sided(2.0, 1.0, 0.5)]
    for pair in pairs:
        rep = build_ladder(custom_hg(pair), 32)
        assert verify_hg(rep, pair).passed


def test_hg_relation_trivial_for_harmonic():
    pair = HGPair(h=lambda n: 1.0, g=lambda n: 1.0, label="harmonic")
    rep = build_ladder(custom_hg(pair), 16)
    assert verify_hg(rep, pair).max_abs_residual < 1e-12


def test_commutator_sf_passes_for_catalog_reps():
    for model in (arik_coon(2.0), arik_coon(0.5)):
        rep = build_ladder(model, 32)
        assert verify_commutator_sf(rep).passed


def test_arik_coon_commutator_is_the_geometric_diagonal():
    # [a-, a+] = q**n level by level
    q = 2.0
    rep = build_ladder(arik_coon(q), 16)
    a_plus, a_minus = np.diag(rep.ladder, -1), np.diag(rep.ladder, 1)
    commutator = a_minus @ a_plus - a_plus @ a_minus
    for n in range(14):
        assert commutator[n, n] == pytest.approx(q**n, rel=1e-13)


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def test_wrong_q_coefficient_fails_loudly():
    report = verify_q_ha(2.0, dim=16, check_q=3.0)
    assert not report.passed
    assert report.max_abs_residual >= 1e-2


def test_wrong_qp_coefficients_fail_loudly():
    report = verify_qp_ha(2.0, 0.5, dim=16, check_q=2.5)
    assert report.max_abs_residual >= 1e-2
    report = verify_qp_ha(2.0, 0.5, dim=16, check_p=1.0)
    assert report.max_abs_residual >= 1e-2


def test_wrong_mu_sign_fails_loudly():
    report = verify_two_sided(2.0, 1.0, 0.5, dim=16, check_mu=-0.5)
    assert not report.passed
    assert report.max_abs_residual >= 1e-2


def test_shifted_g_fails_loudly():
    pair = hg_for_q_ha(2.0)
    rep = build_ladder(custom_hg(pair), 16)
    shifted = HGPair(h=pair.h, g=lambda n: pair.g(n) + 1.0, label="shifted")
    report = verify_hg(rep, shifted)
    assert not report.passed
    assert report.max_abs_residual >= 1e-2


def test_tampered_phi_table_fails_loudly():
    rep = build_ladder(arik_coon(2.0), 16)
    tampered = dataclasses.replace(rep, phi=rep.phi * 1.1)
    report = verify_commutator_sf(tampered)
    assert not report.passed
    assert report.max_abs_residual >= 1e-2


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_per_state_attribution():
    report = verify_q_ha(1.5, dim=12, per_state=True)
    assert len(report.per_state) == 10
    levels, residuals = zip(*report.per_state)
    assert list(levels) == list(range(10))
    assert max(residuals) == report.max_abs_residual


def test_margin_exhausting_the_block_is_rejected():
    with pytest.raises(DomainError):
        verify_q_ha(1.5, dim=8, margin=8)


def _every_check(**bounds):
    # one call per verify function, each on a valid construction
    pair = hg_for_q_ha(1.1)
    return [
        lambda: verify_q_ha(1.1, dim=8, **bounds),
        lambda: verify_qp_ha(1.1, 0.9, dim=8, **bounds),
        lambda: verify_two_sided(1.1, 1.0, 0.2, dim=8, **bounds),
        lambda: verify_hg(build_ladder(custom_hg(pair), 8), pair, **bounds),
        lambda: verify_commutator_sf(build_ladder(arik_coon(1.1), 8), **bounds),
    ]


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"tol": float("nan")}, r"^tolerance must be >= 0, got nan$"),
        ({"tol": -1.0}, r"^tolerance must be >= 0, got -1.0$"),
        ({"margin": -1}, r"^margin must be >= 0, got -1$"),
        ({"margin": 1.5}, r"^margin must be an integer, got 1.5$"),
    ],
)
def test_impossible_tolerance_or_margin_is_a_domain_error(bounds, message):
    for check in _every_check(**bounds):
        with pytest.raises(DomainError, match=message):
            check()


def test_numpy_integer_bounds_and_infinite_tolerance_pass():
    for check in _every_check(margin=np.int64(2), tol=float("inf")):
        assert check().passed


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_control_coefficients_are_domain_errors(bad):
    calls = [
        ("check_q", lambda: verify_q_ha(1.1, dim=8, check_q=bad)),
        ("check_q", lambda: verify_qp_ha(1.1, 0.9, dim=8, check_q=bad)),
        ("check_p", lambda: verify_qp_ha(1.1, 0.9, dim=8, check_p=bad)),
        ("check_mu", lambda: verify_two_sided(1.1, 1.0, 0.2, dim=8, check_mu=bad)),
        ("mu", lambda: verify_two_sided(1.1, 1.0, bad, dim=8)),
    ]
    for name, call in calls:
        with pytest.raises(DomainError, match=rf"^parameter {name} must be finite"):
            call()


@pytest.mark.parametrize("dim", [8.0, 8.5, float("nan")])
def test_dimension_must_be_an_integer(dim):
    with pytest.raises(DomainError, match=r"^dim must be an integer, got "):
        verify_q_ha(1.1, dim=dim)
    with pytest.raises(DomainError, match=r"^dim must be an integer, got "):
        build_ladder(arik_coon(1.1), dim)


def test_dimension_mismatch_is_rejected():
    pair = hg_for_q_ha(1.5)
    rep = build_ladder(custom_hg(pair), 8)
    broken = dataclasses.replace(rep, dim=9)
    with pytest.raises(DomainError):
        verify_hg(broken, pair)


def test_interior_residuals_are_margin_stable():
    # the same 6x6 window must report identical residuals at any dim
    window = 6
    values = [
        verify_q_ha(2.0, dim=dim, margin=dim - window).max_abs_residual
        for dim in (8, 32, 64)
    ]
    assert max(values) - min(values) <= 1e-12
    values = [
        verify_two_sided(2.0, 0.5, 0.5, dim=dim, margin=dim - window).max_abs_residual
        for dim in (8, 32, 64)
    ]
    assert max(values) - min(values) <= 1e-12


def test_verify_hg_types_an_overflowing_coefficient_pair():
    # on a dim-600 ladder q**(2n+1) leaves double range at n = 512, and
    # h(n) ~ q**(4n+3) / 2 already at n = 256, where the pair names it
    message = r"^coefficients of hg\[q-ha\(q=2\.0\)\] overflowed at dim=600$"
    with pytest.raises(EvaluationOverflowError, match=message) as exc:
        verify_hg(build_ladder(harmonic(), 600), hg_for_q_ha(2.0))
    cause = exc.value.__cause__
    assert type(cause) is EvaluationOverflowError
    assert str(cause) == "coefficient h of q-ha(q=2.0) overflowed at n=256"
    # Q = 1e-300 / 1e300 underflows to 0.0, so h(1) underflows to 0 at mu = 0
    # (h is evaluated before g, whose g(0) raises Q to the power -2)
    message = r"^coefficients of hg\[qp-ha\(q=1e-300,p=1e\+300\)\] overflowed at dim=8$"
    with pytest.raises(EvaluationOverflowError, match=message) as exc:
        verify_hg(build_ladder(harmonic(), 8), hg_for_qp_ha(1e-300, 1e300))
    cause = exc.value.__cause__
    assert type(cause) is EvaluationOverflowError
    assert str(cause) == "coefficient h of qp-ha(q=1e-300,p=1e+300) overflowed at n=1"
    # an infinite product raises on no power, and would give a nan residual
    # and a spurious FAIL: Q = 1e200 / 1e-200 is inf, and mu(n) = 1e308 n is
    # inf from n = 2 on; the pair's own h names the level
    rep = build_ladder(nonstd_q(1.05), 8)
    for pair, label, level in [
        (hg_for_qp_ha(1e200, 1e-200), r"qp-ha\(q=1e\+200,p=1e-200\)", 0),
        (hg_for_two_sided(1.1, 0.95, lambda n: 1e308 * n),
         r"two-sided\(qb=1\.1,pb=0\.95,mu\(n\)\)", 2),
    ]:
        message = rf"^coefficients of hg\[{label}\] overflowed at dim=8$"
        with pytest.raises(EvaluationOverflowError, match=message) as exc:
            verify_hg(rep, pair)
        cause = exc.value.__cause__
        assert type(cause) is EvaluationOverflowError
        assert str(cause) == f"coefficient h of {pair.label} overflowed at n={level}"
    # a custom pair's h or g that is not finite raises nothing itself; the
    # check refuses it rather than read a nan residual
    message = r"^coefficients of hg\[custom\] overflowed at dim=8$"
    for h, g in [(lambda n: math.inf, lambda n: 1.0), (lambda n: 1.0, lambda n: math.nan)]:
        with pytest.raises(EvaluationOverflowError, match=message) as exc:
            verify_hg(rep, HGPair(h, g))
        assert type(exc.value.__cause__) is OverflowError


def test_two_sided_reads_each_level_of_mu_once():
    # the pair's Phi and the right side 1 + mu H share one read of each mu(n)
    calls = []

    def mu(n):
        calls.append(n)
        return 0.1

    report = verify_two_sided(1.05, 1.0, mu, dim=64)
    assert sorted(calls) == list(range(64))
    constant = verify_two_sided(1.05, 1.0, 0.1, dim=64)
    assert report == dataclasses.replace(constant, relation=report.relation)


def test_every_check_reads_its_arguments_before_any_work(monkeypatch):
    # a bad dim, margin or tol raises before a realization is built or mu is read
    from defosc import fock, verify

    def refuse(*args):
        raise AssertionError("built before the arguments were read")

    for module in (fock, verify):
        for name in ("_ratio_xp", "build_ladder"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    calls = []

    def mu(n):
        calls.append(n)
        return 0.1

    rep = build_ladder(nonstd_q(1.05), 8)
    bad = [dict(dim=1), dict(dim=10**30), dict(dim=8, margin=-1), dict(dim=8, margin=8),
           dict(dim=2**20, margin=2**20), dict(dim=8, tol=-1.0)]
    for kw in bad:
        for check in (
            lambda: verify_q_ha(1.05, **kw),
            lambda: verify_qp_ha(1.05, 0.95, **kw),
            lambda: verify_two_sided(1.1, 1.0, mu, **kw),
        ):
            with pytest.raises(DomainError):
                check()
        rest = {key: value for key, value in kw.items() if key != "dim"}
        if kw.get("dim") == 8:
            with pytest.raises(DomainError):
                verify_hg(rep, hg_for_two_sided(1.1, 1.0, mu), **rest)
            with pytest.raises(DomainError):
                verify_commutator_sf(rep, **rest)
    assert calls == []
