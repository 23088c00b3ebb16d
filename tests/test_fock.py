import math

import numpy as np
import pytest

from defosc import (
    CoefficientProfile,
    DomainError,
    NegativeStructureFunctionError,
    arik_coon,
    build_ladder,
    build_xp,
    custom_hg,
    hamiltonian,
    harmonic,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    ratio_profile,
    sf_eval,
    spectrum,
    HGPair,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_harmonic_ladder_entries():
    rep = build_ladder(harmonic(), 3)
    assert np.allclose(np.diag(rep.a_plus, -1), [1.0, math.sqrt(2.0)])
    assert np.allclose(np.diag(rep.a_minus, 1), [1.0, math.sqrt(2.0)])
    assert np.count_nonzero(rep.a_plus) == 2
    assert np.count_nonzero(rep.a_minus) == 2


def test_deformed_first_rung():
    rep = build_ladder(nonstd_q(2.0), 2)
    assert rep.a_plus[1, 0] == pytest.approx(math.sqrt(0.2), rel=1e-15)


def test_number_operator_is_the_level_diagonal():
    rep = build_ladder(arik_coon(1.4), 6)
    assert np.array_equal(np.diag(rep.n_op).real, np.arange(6))


@pytest.mark.parametrize("dim", [4, 16])
def test_ladder_products_reproduce_the_phi_table(dim):
    model = nonstd_qp(1.3, 0.7)
    rep = build_ladder(model, dim)
    lowering = np.diag(rep.a_plus @ rep.a_minus).real
    assert np.allclose(lowering, rep.phi[:dim], rtol=1e-14, atol=0.0)
    raising = np.diag(rep.a_minus @ rep.a_plus).real
    # truncated on the topmost level only
    assert np.allclose(raising[:-1], rep.phi[1:dim], rtol=1e-14, atol=0.0)
    assert raising[-1] == 0.0


def test_phi_table_extends_one_past_the_truncation():
    model = arik_coon(1.2)
    rep = build_ladder(model, 5)
    assert rep.phi.shape == (6,)
    assert rep.phi[5] == sf_eval(model, 5)


def test_ladder_rejects_tiny_dimensions_and_negative_phi():
    with pytest.raises(DomainError):
        build_ladder(harmonic(), 1)
    negative = custom_hg(HGPair(h=lambda n: -1.0, g=lambda n: 1.0))
    with pytest.raises(NegativeStructureFunctionError, match=r"Phi\(1\)"):
        build_ladder(negative, 4)


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------


def test_profile_q_is_constant_at_q_one():
    profile = ratio_profile(1.0)
    for n in range(8):
        for fn in (profile.f, profile.g, profile.h, profile.k):
            assert fn(n) == INV_SQRT2


def test_profile_q_values():
    profile = ratio_profile(2.0)
    assert profile.f(1) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert profile.g(1) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert profile.k(1) == profile.f(1)
    assert profile.h(1) == profile.g(1)


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
def test_profile_q_geometric_ratios(q):
    profile = ratio_profile(q)
    for n in range(1, 8):
        assert profile.f(n + 1) / profile.f(n) == pytest.approx(q, rel=1e-14)
        assert profile.g(n) / profile.g(n - 1) == pytest.approx(q * q, rel=1e-14)


@pytest.mark.parametrize(
    "profile,ratio",
    [
        (ratio_profile(1.6), 1.6),
        (ratio_profile(2.0 / 0.5), 4.0),
        (ratio_profile(0.9 / 1.2), 0.75),
    ],
)
def test_profile_ratio_constraints(profile, ratio):
    # f(n+1)/f(n) = h(n+1)/h(n) / ratio and g(n-1)/g(n) = k(n-1)/k(n) / ratio
    for n in range(1, 10):
        left = profile.f(n + 1) / profile.f(n)
        right = profile.h(n + 1) / profile.h(n) / ratio
        assert left == pytest.approx(right, rel=1e-13)
        left = profile.g(n - 1) / profile.g(n)
        right = profile.k(n - 1) / profile.k(n) / ratio
        assert left == pytest.approx(right, rel=1e-13)


def test_two_sided_profile_equals_ratio_profile_pointwise():
    a = ratio_profile(2.0 / 1.0)
    b = ratio_profile(1.0 / 0.5)
    for n in range(10):
        assert a.f(n) == b.f(n)
        assert a.g(n) == b.g(n)


def test_profiles_validate_their_parameters():
    with pytest.raises(DomainError):
        ratio_profile(0.0)
    with pytest.raises(DomainError):
        ratio_profile(1.0 / -2.0)


# ---------------------------------------------------------------------------
# position and momentum
# ---------------------------------------------------------------------------


def test_classical_position_momentum_forms():
    rep = build_xp(build_ladder(harmonic(), 8), ratio_profile(1.0))
    x_want = (rep.a_plus + rep.a_minus) * INV_SQRT2
    p_want = 1j * (rep.a_plus - rep.a_minus) * INV_SQRT2
    assert np.array_equal(rep.x_op, x_want)
    assert np.array_equal(rep.p_op, p_want)


def test_first_position_matrix_element():
    rep = build_xp(build_ladder(harmonic(), 2), ratio_profile(1.0))
    assert rep.x_op[1, 0] == pytest.approx(INV_SQRT2, rel=1e-15)


def test_zero_profile_gives_zero_operators():
    zero = CoefficientProfile(
        f=lambda n: 0.0, g=lambda n: 0.0, h=lambda n: 0.0, k=lambda n: 0.0
    )
    rep = build_xp(build_ladder(harmonic(), 4), zero)
    assert not np.any(rep.x_op)
    assert not np.any(rep.p_op)


def test_build_xp_returns_a_new_rep():
    bare = build_ladder(harmonic(), 4)
    dressed = build_xp(bare, ratio_profile(1.0))
    assert bare.x_op is None
    assert dressed.x_op is not None
    assert np.array_equal(dressed.a_plus, bare.a_plus)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_harmonic_hamiltonian_diagonal():
    rep = build_ladder(harmonic(), 6)
    ham = hamiltonian(rep)
    assert np.allclose(np.diag(ham).real, np.arange(6) + 0.5)


def test_hamiltonian_matches_spectrum_exactly():
    model = nonstd_qp(1.4, 0.8)
    rep = build_ladder(model, 10)
    ham = np.diag(hamiltonian(rep)).real
    energies = spectrum(model, 9)
    assert list(ham) == energies


def test_scaled_harmonic_hamiltonian():
    # equal parameters in the nonstandard two-parameter oscillator:
    # entries (n + 1/2)/q
    q = 2.0
    rep = build_ladder(nonstd_qp(q, q), 6)
    ham = np.diag(hamiltonian(rep)).real
    assert np.allclose(ham, (np.arange(6) + 0.5) / q, rtol=1e-14)


def test_hamiltonian_uses_the_table_not_the_truncated_product():
    rep = build_ladder(harmonic(), 4)
    product = 0.5 * (rep.a_minus @ rep.a_plus + rep.a_plus @ rep.a_minus)
    ham = hamiltonian(rep)
    assert ham[3, 3].real == 3.5
    assert product[3, 3].real != ham[3, 3].real


def test_mu_oscillator_commutator_formula():
    # [a-, a+] = (N+1)/(1 + mt(N+1)) - N/(1 + mt N) on the interior
    mt = 0.3
    dim = 16
    rep = build_ladder(jannussis_mu(mt), dim)
    commutator = rep.a_minus @ rep.a_plus - rep.a_plus @ rep.a_minus
    for n in range(dim - 2):
        want = (n + 1) / (1.0 + mt * (n + 1)) - n / (1.0 + mt * n)
        assert abs(commutator[n, n].real - want) <= 1e-12
        assert abs(commutator[n, n].imag) == 0.0
