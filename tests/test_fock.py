import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
from defosc import (
    DomainError,
    EvaluationOverflowError,
    FockRep,
    NegativeStructureFunctionError,
    arik_coon,
    build_ladder,
    build_xp,
    custom_hg,
    hamiltonian,
    harmonic,
    hg_for_two_sided,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    sf_eval,
    spectrum,
    verify_commutator_sf,
    verify_hg,
    HGPair,
)
from defosc import fock

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _ladder_matrices(rep):
    """Dense (a+, a-) with rep.ladder on their off-diagonals."""
    return np.diag(rep.ladder, -1), np.diag(rep.ladder, 1)


def test_harmonic_ladder_entries():
    rep = build_ladder(harmonic(), 3)
    assert np.allclose(rep.ladder, [1.0, math.sqrt(2.0)])
    assert rep.ladder.shape == (2,)
    assert np.count_nonzero(rep.ladder) == 2


def test_deformed_first_rung():
    rep = build_ladder(nonstd_q(2.0), 2)
    assert rep.ladder[0] == pytest.approx(math.sqrt(0.2), rel=1e-15)


def test_number_operator_is_the_level_diagonal():
    # the package's number operator is the row index n of its bands
    model = arik_coon(1.4)
    oracle = dense_oracle.build_ladder(model, 6)
    assert np.array_equal(np.diag(oracle.n_op).real, np.arange(6))
    a_plus, a_minus = _ladder_matrices(build_ladder(model, 6))
    assert np.array_equal(a_plus, oracle.a_plus)
    assert np.array_equal(a_minus, oracle.a_minus)


@pytest.mark.parametrize("dim", [4, 16])
def test_ladder_products_reproduce_the_phi_table(dim):
    model = nonstd_qp(1.3, 0.7)
    rep = build_ladder(model, dim)
    a_plus, a_minus = _ladder_matrices(rep)
    lowering = np.diag(a_plus @ a_minus)
    assert np.allclose(lowering, rep.phi[:dim], rtol=1e-14, atol=0.0)
    raising = np.diag(a_minus @ a_plus)
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


MALFORMED = {  # dim 4 wants phi of 5 entries and a ladder of 3
    "phi short": FockRep(4, np.zeros(2), np.zeros(3)),  # once a spurious PASS, residual 0
    "phi long": FockRep(4, np.zeros(6), np.zeros(3)),  # once a 5-entry Hamiltonian diagonal
    "ladder short": FockRep(4, np.zeros(5), np.zeros(2)),  # once a bare numpy ValueError
    "ladder long": FockRep(4, np.zeros(5), np.zeros(4)),
}


@pytest.mark.parametrize("rep", MALFORMED.values(), ids=MALFORMED)
def test_a_malformed_rep_is_refused_by_every_reader(rep):
    for call in (
        lambda: verify_commutator_sf(rep),
        lambda: verify_hg(rep, hg_for_two_sided(1.1, 1.0, 0.1)),
        lambda: build_xp(rep, 1.1),
        lambda: hamiltonian(rep),
    ):
        with pytest.raises(DomainError, match="^ladder matrices do not match the declared dim"):
            call()


# ---------------------------------------------------------------------------
# the dressing of X and P
# ---------------------------------------------------------------------------

# h(0) = 1 and h(n) = 1 + g(n) give Phi(n) = 1 for n >= 1: every ladder
# entry is 1, so X and P hold the bare dressing coefficients
UNIT_LADDER = custom_hg(
    HGPair(h=lambda n: 1.0 if n == 0 else 2.0, g=lambda n: 1.0, label="unit")
)


def _profile(ratio, dim=12):
    """f, g, h, k of X = f(N) a- + g(N) a+, P = i (k(N) a+ - h(N) a-).

    Indexed by n; f(dim-1), h(dim-1), g(0) and k(0) multiply no stored
    entry and read NaN.
    """
    rep = build_xp(build_ladder(UNIT_LADDER, dim), ratio)
    assert np.array_equal(rep.ladder, np.ones(dim - 1))
    (x_below, x_above), (p_below, p_above) = rep.x, rep.p
    nan = [np.nan]
    return SimpleNamespace(
        f=np.concatenate([x_above, nan]),
        g=np.concatenate([nan, x_below]),
        h=np.concatenate([-p_above, nan]),
        k=np.concatenate([nan, p_below]),
    )


def test_profile_q_is_constant_at_q_one():
    profile = _profile(1.0)
    for n in range(8):
        assert profile.f[n] == profile.h[n] == INV_SQRT2
    for n in range(1, 8):
        assert profile.g[n] == profile.k[n] == INV_SQRT2


def test_profile_q_values():
    profile = _profile(2.0)
    assert profile.f[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert profile.g[1] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert profile.k[1] == profile.f[1]
    assert profile.h[1] == profile.g[1]


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
def test_profile_q_geometric_ratios(q):
    profile = _profile(q)
    for n in range(1, 8):
        assert profile.f[n + 1] / profile.f[n] == pytest.approx(q, rel=1e-14)
    for n in range(2, 9):
        assert profile.g[n] / profile.g[n - 1] == pytest.approx(q * q, rel=1e-14)


@pytest.mark.parametrize(
    "profile,ratio",
    [
        (_profile(1.6), 1.6),
        (_profile(2.0 / 0.5), 4.0),
        (_profile(0.9 / 1.2), 0.75),
    ],
)
def test_profile_ratio_constraints(profile, ratio):
    # f(n+1)/f(n) = h(n+1)/h(n) / ratio and g(n-1)/g(n) = k(n-1)/k(n) / ratio
    for n in range(1, 10):
        left = profile.f[n + 1] / profile.f[n]
        right = profile.h[n + 1] / profile.h[n] / ratio
        assert left == pytest.approx(right, rel=1e-13)
    for n in range(2, 11):
        left = profile.g[n - 1] / profile.g[n]
        right = profile.k[n - 1] / profile.k[n] / ratio
        assert left == pytest.approx(right, rel=1e-13)


def test_two_sided_profile_equals_ratio_profile_pointwise():
    rep = build_ladder(UNIT_LADDER, 10)
    a = build_xp(rep, 2.0 / 1.0)
    b = build_xp(rep, 1.0 / 0.5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.p, b.p)


def test_profiles_validate_their_parameters():
    rep = build_ladder(harmonic(), 4)
    with pytest.raises(DomainError, match="ratio"):
        build_xp(rep, 0.0)
    with pytest.raises(DomainError, match="ratio"):
        build_xp(rep, 1.0 / -2.0)


# ---------------------------------------------------------------------------
# position and momentum
# ---------------------------------------------------------------------------


def test_classical_position_momentum_forms():
    rep = build_xp(build_ladder(harmonic(), 8), 1.0)
    entry = rep.ladder * INV_SQRT2
    assert np.array_equal(rep.x, [entry, entry])
    assert np.array_equal(rep.p, [entry, -entry])


def test_first_position_matrix_element():
    rep = build_xp(build_ladder(harmonic(), 2), 1.0)
    assert rep.x[0, 0] == pytest.approx(INV_SQRT2, rel=1e-15)


def test_build_xp_types_an_overflowing_dressing():
    # 5.0**k leaves double range from k = 442, below 2 dim - 1 = 2999
    with pytest.raises(EvaluationOverflowError, match=r"ratio=5.0, dim=1500$"):
        build_xp(build_ladder(harmonic(), 1500), 5.0)


def _pow_or_inf(ratio: float, k: int) -> float:
    try:
        return ratio**k
    except OverflowError:
        return math.inf


_DRAWS = random.Random(21)
POWER_RATIOS = (
    0.5, 2.0, 4.0, 1 + 1e-7, 1 - 1e-7, 0.9999, 1e3, 1e-3,
    *(_DRAWS.uniform(0.2, 5.0) for _ in range(8)),
)


@pytest.mark.parametrize("ratio", POWER_RATIOS)
def test_float_power_is_pythons_pow_bit_for_bit(ratio):
    # build_xp and the X/P checks take their powers from np.float_power,
    # and print them; it must equal Python's pow in every bit, with inf
    # where pow raises (np.power's SIMD path differs in the last bit, on
    # hundreds of these values at 1 +- 1e-7).  A numpy or libm change that
    # breaks this must fail here, not move CLI bytes.
    expected = np.array([_pow_or_inf(ratio, k) for k in range(-2, 20001)])
    with np.errstate(over="ignore"):
        powers = np.float_power(ratio, np.arange(-2, 20001))
    assert powers.tobytes() == expected.tobytes()
    assert fock._powers(ratio, -2, 20001).tobytes() == expected.tobytes()


@pytest.mark.parametrize("ratio", POWER_RATIOS)
def test_a_ratio_pairs_arrays_are_its_lists_bit_for_bit(ratio):
    # build_ladder and verify_hg read a float ratio pair as the arrays
    # fock._ratio_arrays forms, so those must be its lists in every bit, up
    # to levels where a power of the ratio nears the largest double
    m = min(10_000, int(150 / abs(math.log10(ratio))) - 2)
    for mu in (0.1, lambda n: 0.2 / (1 + n)):
        pair = hg_for_two_sided(ratio, 1.0, mu)
        arrays = np.stack(fock._ratio_arrays(fock._ratio_args(pair), m))
        assert arrays.tobytes() == np.array(pair.lists(m)).tobytes()


def test_build_xp_returns_a_new_rep():
    bare = build_ladder(harmonic(), 4)
    dressed = build_xp(bare, 1.0)
    assert bare.x is None and bare.p is None
    assert dressed.x is not None and dressed.p is not None
    assert np.array_equal(dressed.ladder, bare.ladder)
    assert np.array_equal(dressed.phi, bare.phi)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_harmonic_hamiltonian_diagonal():
    rep = build_ladder(harmonic(), 6)
    ham = hamiltonian(rep)
    assert ham.shape == (6,)
    assert np.allclose(ham, np.arange(6) + 0.5)


def test_hamiltonian_matches_spectrum_exactly():
    model = nonstd_qp(1.4, 0.8)
    rep = build_ladder(model, 10)
    energies = spectrum(model, 9)
    assert hamiltonian(rep).tolist() == energies


def test_scaled_harmonic_hamiltonian():
    # equal parameters in the nonstandard two-parameter oscillator:
    # entries (n + 1/2)/q
    q = 2.0
    rep = build_ladder(nonstd_qp(q, q), 6)
    ham = hamiltonian(rep)
    assert np.allclose(ham, (np.arange(6) + 0.5) / q, rtol=1e-14)


def test_hamiltonian_uses_the_table_not_the_truncated_product():
    rep = build_ladder(harmonic(), 4)
    a_plus, a_minus = _ladder_matrices(rep)
    product = 0.5 * (a_minus @ a_plus + a_plus @ a_minus)
    ham = hamiltonian(rep)
    assert ham[3] == 3.5
    assert product[3, 3] != ham[3]


def test_mu_oscillator_commutator_formula():
    # [a-, a+] = (N+1)/(1 + mt(N+1)) - N/(1 + mt N) on the interior
    mt = 0.3
    dim = 16
    a_plus, a_minus = _ladder_matrices(build_ladder(jannussis_mu(mt), dim))
    commutator = a_minus @ a_plus - a_plus @ a_minus
    assert np.isrealobj(commutator)
    for n in range(dim - 2):
        want = (n + 1) / (1.0 + mt * (n + 1)) - n / (1.0 + mt * n)
        assert abs(commutator[n, n] - want) <= 1e-12
