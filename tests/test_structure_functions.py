import math
from fractions import Fraction

import numpy as np
import pytest

from defosc import (
    DomainError,
    EvaluationOverflowError,
    HGPair,
    RecipeDivisionError,
    arik_coon,
    biedenharn_macfarlane,
    chakrabarti_jagannathan,
    custom_hg,
    equal_hg_special_case,
    harmonic,
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    qp_number,
    sf_eval,
    sf_from_hg,
    sf_table,
    spectrum,
    two_sided_equal_hg,
    two_sided_equal_sf,
)
from sf_oracle import nonstd_qp_sf_explicit

GRID = (0.5, 0.9, 1.1, 2.0)


def sf_by_recursion(pair: HGPair, n: int) -> float:
    # independent oracle: h(j) Phi(j+1) - g(j) Phi(j) = 1 solved upward from 0
    phi = 0.0
    for j in range(n):
        phi = (1.0 + pair.g(j) * phi) / pair.h(j)
    return phi


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def all_catalog_models(q: float, p: float):
    return [
        harmonic(),
        arik_coon(q),
        biedenharn_macfarlane(q),
        chakrabarti_jagannathan(q, p),
        jannussis_mu(0.3),
        nonstd_q(q),
        nonstd_qp(q, p),
        two_sided_equal_hg(q, p),
        custom_hg(hg_for_qp_ha(q, p)),
    ]


# ---------------------------------------------------------------------------
# catalog closed forms
# ---------------------------------------------------------------------------


def test_phi_zero_is_zero_for_every_variant():
    for q in GRID:
        for p in GRID:
            for model in all_catalog_models(q, p):
                assert sf_eval(model, 0) == 0.0


def test_harmonic_is_the_identity():
    for n in range(12):
        assert sf_eval(harmonic(), n) == float(n)


def test_arik_coon_values():
    q = 2.0
    for n in range(1, 10):
        assert rel_gap(sf_eval(arik_coon(q), n), (q**n - 1) / (q - 1)) <= 1e-14


def test_biedenharn_macfarlane_values():
    q = 1.7
    for n in range(1, 10):
        want = (q**n - q**-n) / (q - 1.0 / q)
        assert rel_gap(sf_eval(biedenharn_macfarlane(q), n), want) <= 1e-13


def test_chakrabarti_jagannathan_second_level_is_q_plus_p():
    for q in GRID:
        for p in GRID:
            if q == p:
                continue
            got = sf_eval(chakrabarti_jagannathan(q, p), 2)
            assert rel_gap(got, q + p) <= 1e-14


def test_chakrabarti_jagannathan_equal_parameters():
    # [n] at q = p is n q**(n-1), not n/q; the n/q law belongs to nonstd-qp
    q = 2.0
    model = chakrabarti_jagannathan(q, q)
    for n in range(1, 8):
        assert rel_gap(sf_eval(model, n), n * q ** (n - 1)) <= 1e-14


def test_jannussis_mu_values_and_pole():
    model = jannussis_mu(0.3)
    for n in range(1, 10):
        assert sf_eval(model, n) == n / (1.0 + 0.3 * n)
    with pytest.raises(DomainError):
        sf_eval(jannussis_mu(-0.5), 2)


def test_nonstd_q_first_level():
    # Phi(1) = 1/h(0) with h(0) = q(1 + q**2)/2
    assert sf_eval(nonstd_q(2.0), 1) == pytest.approx(0.2, rel=1e-15)
    for q in GRID:
        assert rel_gap(sf_eval(nonstd_q(q), 1), 1.0 / hg_for_q_ha(q).h(0)) <= 1e-14


def test_positivity_on_parameter_grid():
    for q in GRID:
        for p in GRID:
            for model in all_catalog_models(q, p):
                for n in range(1, 31):
                    assert sf_eval(model, n) > 0.0, (model.label, n)


def test_overflow_is_reported():
    with pytest.raises(EvaluationOverflowError):
        sf_eval(arik_coon(2.0), 5000)
    with pytest.raises(EvaluationOverflowError):
        nonstd_qp_sf_explicit(600, 2.0, 0.5)


def test_nonstd_qp_underflowing_power_is_a_typed_overflow():
    # (q/p)**2 = 1e-600 underflows to 0.0 in the denominator p (q/p)**n
    model = nonstd_qp(1e-300, 1.0)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=2$"):
        sf_table(model, 3)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=2$"):
        sf_eval(model, 2)
    assert sf_table(model, 1) == [0.0, sf_eval(model, 1)]


def test_equal_case_overflow_is_typed():
    with pytest.raises(EvaluationOverflowError, match=r"closed form overflowed at n=2000"):
        two_sided_equal_sf(0.5, 1.0, 2000)
    mu_fn, hg_fn = equal_hg_special_case(1e3, 1e-3)
    for fn in (mu_fn, hg_fn):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=40,"):
            fn(40)


def test_equal_case_types_an_underflowed_divisor_and_an_infinite_limit():
    # Q = 1e-300 / 1e300 underflows to 0.0, which Q**(2 - 2n) divides by
    message = r"^equal-coefficient closed form overflowed at n=3, qb=1e-300, pb=1e\+300$"
    with pytest.raises(EvaluationOverflowError, match=message) as exc:
        two_sided_equal_sf(1e-300, 1e300, 3)
    assert type(exc.value.__cause__) is ZeroDivisionError
    # the ratio-one limit n / qb passes the largest double
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=180, qb=1e-306,"):
        two_sided_equal_sf(1e-306, 1e-306, 180)
    assert two_sided_equal_sf(1e-306, 1e-306, 179) == 179 / 1e-306
    mu_fn, _ = equal_hg_special_case(1e-300, 1e300)
    with pytest.raises(EvaluationOverflowError, match=r"^equal-coefficient special case"):
        mu_fn(0)


def test_the_outermost_block_names_the_failure():
    # the per-level mu raises its own typed error at n = 13, which Phi(14)
    # consults; the table names the structure function and its level instead
    mu_fn, _ = equal_hg_special_case(1e3, 1e-3)
    model = custom_hg(hg_for_two_sided(1e3, 1e-3, mu_fn))
    message = r"^structure function two-sided\(qb=1000\.0,pb=0\.001,mu\(n\)\) overflowed"
    with pytest.raises(EvaluationOverflowError, match=message + " at n=14$") as exc:
        sf_table(model, 60)
    cause = str(exc.value.__cause__)
    assert cause.startswith("equal-coefficient special case overflowed at n=13,")


def test_equal_case_functions_never_return_inf():
    # from n = 13 a product of finite powers passes the largest double,
    # which a float product turns into inf where a power would raise
    for fn in equal_hg_special_case(1e3, 1e-3):
        assert math.isfinite(fn(12))
        for n in (13, 25):
            message = rf"^equal-coefficient special case overflowed at n={n}, qb=1000\.0,"
            with pytest.raises(EvaluationOverflowError, match=message):
                fn(n)


def test_negative_level_rejected():
    with pytest.raises(DomainError):
        sf_eval(harmonic(), -1)


# ---------------------------------------------------------------------------
# reconstruction recipe
# ---------------------------------------------------------------------------


def test_recipe_conventions():
    pair = hg_for_q_ha(1.3)
    assert sf_from_hg(pair, 0) == 0.0
    assert sf_from_hg(pair, 1) == 1.0 / pair.h(0)


def test_recipe_matches_recursion_oracle():
    pairs = [hg_for_q_ha(q) for q in GRID]
    pairs += [hg_for_qp_ha(q, p) for q in GRID for p in GRID]
    pairs += [hg_for_two_sided(2.0, 1.0, 0.5), hg_for_two_sided(0.9, 1.1, -0.2)]
    for pair in pairs:
        for n in range(31):
            assert rel_gap(sf_from_hg(pair, n), sf_by_recursion(pair, n)) <= 1e-12


def test_recipe_recovers_symmetric_deformed_integers():
    for q in GRID:
        for p in GRID:
            pair = HGPair(h=lambda n: p**-n, g=lambda n: q * p**-n)
            for n in range(31):
                assert rel_gap(sf_from_hg(pair, n), qp_number(n, q, p)) <= 1e-10


def test_recipe_second_level_example():
    q, p = 1.7, 0.6
    pair = HGPair(h=lambda n: p**-n, g=lambda n: q * p**-n)
    assert rel_gap(sf_from_hg(pair, 2), q + p) <= 1e-14


def test_recipe_division_errors_name_the_coefficient():
    bad_h = HGPair(h=lambda n: 0.0, g=lambda n: 1.0)
    with pytest.raises(RecipeDivisionError, match=r"h\(0\)"):
        sf_from_hg(bad_h, 1)
    bad_g = HGPair(h=lambda n: 1.0, g=lambda n: 0.0 if n == 2 else 1.0)
    with pytest.raises(RecipeDivisionError, match=r"g\(2\)"):
        sf_from_hg(bad_g, 5)
    bad_h_inner = HGPair(h=lambda n: 0.0 if n == 3 else 1.0, g=lambda n: 1.0)
    with pytest.raises(RecipeDivisionError, match=r"h\(3\)"):
        sf_from_hg(bad_h_inner, 5)


def test_recipe_overflow_at_the_first_level_is_typed():
    # h(0) = qb (1 + qb**2) / 2 overflows before any level is formed
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=1"):
        sf_from_hg(hg_for_two_sided(1e200, 1.0, 0.0), 1)


CATCHING_UP = [
    nonstd_q(1.3),
    nonstd_q(0.7),
    custom_hg(hg_for_two_sided(1.1, 0.95, 0.3)),
    custom_hg(hg_for_two_sided(1.05, 1.0, equal_hg_special_case(1.05, 1.0)[0])),
]


@pytest.mark.parametrize("model", CATCHING_UP, ids=lambda model: model.label)
def test_each_level_builder_catches_up(model):
    # a level function carrying running values takes any n, not only n + 1
    table = [value.hex() for value in sf_table(model, 19)]
    level = model.levels()
    assert [level(7).hex(), level(19).hex()] == [table[7], table[19]]
    assert model.levels()(19).hex() == table[19]


def test_recipe_range_checks_the_levels_it_passes_over():
    # q-ha at q = 0.1 leaves double range at level 155, and g(162)
    # underflows to 0.0 later: sf_eval stops where the table stops
    model = custom_hg(hg_for_q_ha(0.1))
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=155$"):
        sf_table(model, 400)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=400$"):
        sf_eval(model, 400)
    with pytest.raises(OverflowError):
        model.levels()(400)
    # Phi(1) = 1/h(0) is already inf here, before g(1) = 0 is reached
    tiny = custom_hg(HGPair(lambda n: 1e-320, lambda n: 0.0 if n == 1 else 1.0))
    for call in (lambda: sf_table(tiny, 5), lambda: sf_eval(tiny, 1)):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=1$"):
            call()
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=5$"):
        sf_eval(tiny, 5)


def test_recipe_stays_in_range_far_from_the_undeformed_point():
    pair = hg_for_q_ha(2.0)
    value = sf_from_hg(pair, 100)
    assert 0.0 < value < 1.0


# ---------------------------------------------------------------------------
# coefficient pairs
# ---------------------------------------------------------------------------


def test_q_pair_is_trivial_at_q_one():
    pair = hg_for_q_ha(1.0)
    for n in range(11):
        assert pair.h(n) == 1.0
        assert pair.g(n) == 1.0


def test_q_pair_values():
    pair = hg_for_q_ha(2.0)
    assert pair.h(0) == 5.0  # 0.5 * 2 * (1 + 4)
    assert pair.g(1) == 4.0  # 0.5 * 4 * (1 + 1)
    assert pair.g(0) == 0.625  # 0.5 * 1 * (1 + 1/4)


def test_qp_pair_reduces_to_q_pair_at_p_one():
    for q in GRID:
        single = hg_for_q_ha(q)
        double = hg_for_qp_ha(q, 1.0)
        for n in range(16):
            assert rel_gap(double.h(n), single.h(n)) <= 1e-14
            assert rel_gap(double.g(n), single.g(n)) <= 1e-14


def test_qp_pair_is_constant_at_equal_parameters():
    for q in GRID:
        pair = hg_for_qp_ha(q, q)
        for n in range(10):
            assert pair.h(n) == q
            assert pair.g(n) == q


def test_qp_pair_first_value():
    assert hg_for_qp_ha(2.0, 1.0).h(0) == 5.0


def test_two_sided_pair_at_mu_zero_matches_qp_pair():
    for qb in GRID:
        for pb in GRID:
            plain = hg_for_qp_ha(qb, pb)
            two = hg_for_two_sided(qb, pb, 0.0)
            for n in range(12):
                assert two.h(n) == plain.h(n)
                assert two.g(n) == plain.g(n)


def test_two_sided_pair_direct_value():
    # h(0) = 2 * (1 + 4) / 2 - 8/2 = 1
    assert hg_for_two_sided(2.0, 1.0, 8.0).h(0) == 1.0


def test_equal_case_functions():
    mu_fn, hg_fn = equal_hg_special_case(2.0, 1.0)
    assert mu_fn(0) == 4.375
    assert hg_fn(0) == 2.8125
    # per-level mu really makes the two coefficients coincide
    pair = hg_for_two_sided(2.0, 1.0, mu_fn)
    for n in range(12):
        assert rel_gap(pair.h(n), hg_fn(n)) <= 1e-14
        assert rel_gap(pair.g(n), hg_fn(n)) <= 1e-14
    with pytest.raises(DomainError):
        equal_hg_special_case(1.5, 1.5)


# ---------------------------------------------------------------------------
# the equal-coefficient closed form
# ---------------------------------------------------------------------------


def test_equal_case_closed_form_matches_recipe():
    for qb in GRID:
        for pb in GRID:
            if qb == pb:
                continue
            _, hg_fn = equal_hg_special_case(qb, pb)
            pair = HGPair(h=hg_fn, g=hg_fn)
            for n in range(31):
                got = two_sided_equal_sf(qb, pb, n)
                assert rel_gap(got, sf_from_hg(pair, n)) <= 1e-10


def test_equal_case_first_level_is_reciprocal_h():
    _, hg_fn = equal_hg_special_case(2.0, 1.0)
    got = two_sided_equal_sf(2.0, 1.0, 1)
    assert rel_gap(got, 1.0 / hg_fn(0)) <= 1e-14
    assert got == pytest.approx(16.0 / 45.0, rel=1e-15)


def test_equal_case_limit_branch_is_exact():
    for q in GRID:
        for n in range(31):
            assert two_sided_equal_sf(q, q, n) == n / q


def test_equal_case_zero_level():
    assert two_sided_equal_sf(1.7, 0.3, 0) == 0.0


# ---------------------------------------------------------------------------
# the two nonstandard closed forms
# ---------------------------------------------------------------------------


def test_nonstd_q_matches_recipe_over_its_pair():
    for q in GRID:
        pair = hg_for_q_ha(q)
        model = nonstd_q(q)
        for n in range(31):
            assert rel_gap(sf_eval(model, n), sf_from_hg(pair, n)) <= 1e-10


def test_nonstd_qp_matches_recipe_over_its_pair():
    for q in GRID:
        for p in GRID:
            if q == p:
                continue
            pair = hg_for_qp_ha(q, p)
            model = nonstd_qp(q, p)
            for n in range(31):
                assert rel_gap(sf_eval(model, n), sf_from_hg(pair, n)) <= 1e-10


def test_nonstd_qp_two_printed_forms_agree():
    for q in GRID:
        for p in GRID:
            if q == p:
                continue
            model = nonstd_qp(q, p)
            for n in range(31):
                assert rel_gap(sf_eval(model, n), nonstd_qp_sf_explicit(n, q, p)) <= 1e-10


def test_nonstd_qp_reduces_to_nonstd_q_at_p_one():
    # two independent formulas compared numerically
    for q in GRID:
        for n in range(31):
            assert rel_gap(sf_eval(nonstd_qp(q, 1.0), n), sf_eval(nonstd_q(q), n)) <= 1e-12


def test_nonstd_qp_equal_parameters_is_n_over_q():
    for q in GRID:
        for n in range(31):
            assert rel_gap(sf_eval(nonstd_qp(q, q), n), n / q) <= 1e-14


def test_classical_limits_of_the_catalog():
    eps = 1e-8
    q = 1.0 + eps
    models = [
        arik_coon(q),
        biedenharn_macfarlane(q),
        chakrabarti_jagannathan(q, 1.0),
        jannussis_mu(eps),
        nonstd_q(q),
        nonstd_qp(q, 1.0),
        two_sided_equal_hg(q, 1.0),
    ]
    for model in models:
        for n in range(31):
            assert rel_gap(sf_eval(model, n), float(n)) <= 1e-6, model.label


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_harmonic_spectrum():
    energies = spectrum(harmonic(), 5)
    assert energies[0] == 0.5
    for n, e in enumerate(energies):
        assert e == n + 0.5


def test_nonstd_q_ground_energy():
    assert spectrum(nonstd_q(2.0), 0)[0] == pytest.approx(0.1, rel=1e-15)


def test_scaled_harmonic_spectrum_spacing():
    # equal parameters in the nonstandard two-parameter oscillator: the
    # spectrum is linear with spacing 1/q
    for q in GRID:
        energies = spectrum(nonstd_qp(q, q), 10)
        for n in range(10):
            assert rel_gap(energies[n + 1] - energies[n], 1.0 / q) <= 1e-13


def test_spectrum_validates_n_max():
    with pytest.raises(DomainError):
        spectrum(harmonic(), -1)


# ---------------------------------------------------------------------------
# levels are integers, mu and mu_tilde finite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [2.5, 3.0, float("nan")])
def test_levels_are_integers(level):
    recipe = custom_hg(hg_for_q_ha(1.1))
    calls = [
        ("n", lambda: sf_eval(recipe, level)),
        ("n", lambda: sf_eval(arik_coon(1.1), level)),
        ("n_max", lambda: sf_table(recipe, level)),
        ("n_max", lambda: spectrum(harmonic(), level)),
        ("n", lambda: sf_from_hg(hg_for_q_ha(1.1), level)),
        ("n", lambda: two_sided_equal_sf(1.1, 0.9, level)),
    ]
    for name, call in calls:
        with pytest.raises(DomainError, match=rf"^{name} must be an integer, got {level!r}$"):
            call()


def test_numpy_integer_levels_pass():
    model = custom_hg(hg_for_q_ha(1.1))
    assert sf_table(model, np.int64(6)) == sf_table(model, 6)
    assert sf_eval(model, np.int64(6)) == sf_eval(model, 6)
    assert spectrum(model, np.int32(4)) == spectrum(model, 4)
    assert two_sided_equal_sf(1.1, 0.9, np.int64(3)) == two_sided_equal_sf(1.1, 0.9, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_mu_and_mu_tilde_are_domain_errors(bad):
    with pytest.raises(DomainError, match=r"^parameter mu must be finite"):
        hg_for_two_sided(1.1, 1.0, bad)
    with pytest.raises(DomainError, match=r"^parameter mu_tilde must be finite"):
        jannussis_mu(bad)


def test_a_huge_exact_mu_is_finite():
    # math.isfinite() would overflow converting this Fraction to a double
    mu = Fraction(10) ** 400
    pair = hg_for_two_sided(Fraction(2), Fraction(1), mu)
    assert pair.h(0) == 1 + 4 - mu / 2
