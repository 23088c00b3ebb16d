import dataclasses

import numpy as np
import pytest

from defosc import (
    DomainError,
    HGPair,
    arik_coon,
    build_ladder,
    custom_hg,
    equal_hg_special_case,
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
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


def test_qp_relation_reduces_to_q_at_p_one():
    a = verify_qp_ha(1.7, 1.0, dim=24)
    b = verify_q_ha(1.7, dim=24)
    assert a.passed and b.passed


def test_qp_relation_at_equal_parameters():
    # scaled harmonic oscillator; the relation still holds
    assert verify_qp_ha(2.0, 2.0, dim=32).passed


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5])
def test_two_sided_relation_holds(mu):
    assert verify_two_sided(2.0, 0.5, mu, dim=32).passed


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
