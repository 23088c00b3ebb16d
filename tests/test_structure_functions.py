import math
import re
import sys
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
    build_ladder,
    chakrabarti_jagannathan,
    custom_hg,
    equal_hg_special_case,
    harmonic,
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
    jannussis_mu,
    link_table,
    nonstd_q,
    nonstd_qp,
    qp_number,
    sf_eval,
    sf_from_hg,
    sf_table,
    spectrum,
    two_sided_equal_hg,
    verify_q_ha,
)
from defosc import limits, linkage
from defosc.qp import deformed_integers
from sf_oracle import (
    exact_two_sided_equal,
    nonstd_qp_sf_explicit,
    two_sided_equal_sf_closed_form,
)

GRID = (0.5, 0.9, 1.1, 2.0)


def sf_by_recursion(pair: HGPair, n: int) -> float:
    # independent oracle: h(j) Phi(j+1) - g(j) Phi(j) = 1 solved upward
    # from 0 exactly on the float coefficients, rounded once
    phi = Fraction(0)
    for j in range(n):
        phi = (1 + Fraction(pair.g(j)) * phi) / Fraction(pair.h(j))
    return float(phi)


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
    # so the limit suite's catalog, whose reference this is, does not build it
    assert sf_table(harmonic(), 20) == [float(n) for n in range(21)]


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
    # h(1) = q Q**2 (1 + Q**4) / 2 underflows to 0.0 (Q**2 = 1e-600), which
    # the recipe reports as an overflow of the level it was forming
    model = nonstd_qp(1e-300, 1.0)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=2$"):
        sf_table(model, 3)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=2$"):
        sf_eval(model, 2)
    assert sf_table(model, 1) == [0.0, sf_eval(model, 1)]


def test_arik_coon_far_from_one_overflows_where_its_value_does():
    # [2] = q + 1 is 1e300 in doubles; no q**2 is formed on the way
    assert sf_table(arik_coon(1e300), 2)[2] == 1e300
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=3$"):
        sf_table(arik_coon(1e300), 3)


def test_deformed_integers_with_a_negligible_smaller_parameter():
    # min/max below 2**-53 rounds e to 1, where log1p(-e) has its pole:
    # [m] = big**(m-1) (1 - (min/max)**m) / (1 - min/max) is big**(m-1)
    for q, p in ((1.0, 1e-20), (2.0, 2.0**-54), (1e-300, 1e10), (5e-324, 1.0)):
        integers = deformed_integers(q, p)
        big = max(q, p)
        assert integers(0) == 0.0
        for m in (1, 2, 3, 7):
            assert integers(m) == big ** (m - 1)


def test_equal_case_overflow_is_typed():
    model = two_sided_equal_hg(0.5, 1.0)
    message = r"^structure function two-sided-equal\(qb=0\.5,pb=1\.0\) overflowed at n=2000$"
    with pytest.raises(EvaluationOverflowError, match=message):
        sf_eval(model, 2000)
    mu_fn, hg_fn = equal_hg_special_case(1e3, 1e-3)
    for fn in (mu_fn, hg_fn):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=40,"):
            fn(40)


@pytest.mark.parametrize("qb, pb, n", [(2.0, 1.0, 600), (1e3, 1e-3, 40)])
def test_equal_case_sum_converges_past_the_largest_power(qb, pb, n):
    # for Q > 1 the terms fall like Q**-4k; once a power of Q passes the
    # largest double, the term is below 4 / 1.8e308 and adds nothing
    table = sf_table(two_sided_equal_hg(qb, pb), n)
    exact = exact_two_sided_equal(n, qb, pb)
    assert abs(table[n] - exact) / exact <= 4 * n * 2.0**-52
    assert table[n] == table[n - 1]


def test_equal_case_carries_phi_where_the_scaled_sum_passes_the_largest_double():
    # at pb > 1 the running sum S = pb Phi passes the largest double at
    # n = 1185, where Phi ~ 3e129; from there the sum carries Phi itself
    qb, pb = 6.902575343100492e178, 9.310462553417841e178
    table = sf_table(two_sided_equal_hg(qb, pb), 1300)
    ratio, total = qb / pb, 0.0

    def term(k):  # pb / h(k)
        tail = ratio ** (2 * k - 2) * (ratio**5 + 1.0)
        return 1.0 / (0.25 * ratio ** (2 * k) * ((ratio + 1.0) + tail))

    for k in range(1184):  # below, the entries are S / pb as before, bit for bit
        total += term(k)
        assert table[k + 1] == total / pb
    assert total + term(1184) == math.inf
    for n in (1184, 1185, 1186, 1250, 1300):
        exact = exact_two_sided_equal(n, qb, pb)
        assert abs(table[n] - exact) / exact <= 4 * n * 2.0**-52


def test_equal_case_carried_phi_overflows_where_its_exact_value_does():
    qb, pb = 0.5e10, 1e10  # S passes the largest double near n = 512, Phi near 530
    model = two_sided_equal_hg(qb, pb)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=(\d+)$") as exc:
        sf_table(model, 600)
    stop = int(str(exc.value).rsplit("=", 1)[1])
    assert exact_two_sided_equal(stop - 1, qb, pb) <= sys.float_info.max
    assert exact_two_sided_equal(stop, qb, pb) > sys.float_info.max
    assert sf_table(model, stop - 1)[-1] == sf_eval(model, stop - 1)


def test_equal_case_first_term_keeps_its_overflow():
    # h(0) ~ Q**3 / 4 is in range at Q = 1e100 although Q**5 is not, so
    # Phi(1) ~ 4e-300 is not a negligible term: the overflow stays typed
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=1$"):
        sf_eval(two_sided_equal_hg(1e100, 1.0), 1)


def test_equal_case_types_an_underflowed_divisor_and_an_infinite_limit():
    # Q = 1e-300 / 1e300 underflows to 0.0, which Q**(2k - 2) divides by
    message = r"^structure function two-sided-equal\(qb=1e-300,pb=1e\+300\) overflowed at n=3$"
    with pytest.raises(EvaluationOverflowError, match=message) as exc:
        sf_eval(two_sided_equal_hg(1e-300, 1e300), 3)
    assert type(exc.value.__cause__) is ZeroDivisionError
    # at ratio one Phi(n) = n / qb passes the largest double
    message = r"\(qb=1e-306,pb=1e-306\) overflowed at n=180$"
    with pytest.raises(EvaluationOverflowError, match=message):
        sf_eval(two_sided_equal_hg(1e-306, 1e-306), 180)
    assert sf_eval(two_sided_equal_hg(1e-306, 1e-306), 179) == 179 / 1e-306
    mu_fn, _ = equal_hg_special_case(1e-300, 1e300)
    with pytest.raises(EvaluationOverflowError, match=r"^equal-coefficient special case"):
        mu_fn(0)


def test_the_equal_case_functions_read_n_as_a_level():
    # "3" and None once raised a bare TypeError; 2.5 once returned a value
    for fn in equal_hg_special_case(1.1, 1.0):
        for n in ("3", None, 2.5, 3.0, -1):
            with pytest.raises(DomainError, match=r"^n must be "):
                fn(n)
        assert fn(np.int64(3)) == fn(3)


def test_a_size_no_list_can_hold_is_refused():
    # 10**400 once made a table append until memory ran out, and a link check
    # at that level raised ints to its powers without end; -10**5000 once
    # escaped as a bare ValueError, as str() of an int past 4,300 digits does,
    # and so did a Fraction of that size, whose repr() raises it.  Each integer
    # read names the int by its bit count, and the Fraction by its type.
    level_fns = equal_hg_special_case(1.1, 1.0)
    for call, name in [
        (lambda n: sf_table(harmonic(), n), "n_max"),
        (lambda n: sf_eval(arik_coon(1.05), n), "n"),
        (lambda n: spectrum(harmonic(), n), "n_max"),
        (lambda n: sf_from_hg(hg_for_q_ha(1.05), n), "n"),
        (lambda n: build_ladder(harmonic(), n), "dim"),
        (lambda n: verify_q_ha(1.05, dim=n), "dim"),
        (lambda n: link_table(1.05, 0.95, 1.05, n), "n_max"),
        (lambda n: linkage.check_link_consistency(1.05, 0.95, 1.05, n), "level"),
        (level_fns[0], "n"),
        (level_fns[1], "n"),
    ]:
        with pytest.raises(DomainError, match=rf"^{name} must be <= sys\.maxsize, got a 1329-"):
            call(10**400)
        with pytest.raises(DomainError, match=rf"^{name} must be >= 0, got a negative 16610-"):
            call(-(10**5000))
        for huge in (Fraction(10**5000), Fraction(-(10**5000))):  # a repr() that raises
            with pytest.raises(DomainError, match=rf"^{name} must be an integer, got a Fraction$"):
                call(huge)


def test_a_closed_form_does_no_model_work_for_an_empty_table():
    # 1/q is inf at q = 1e-310, which the model refuses at its first level;
    # Phi(0) = 0 asks nothing of the model
    model = biedenharn_macfarlane(1e-310)
    assert sf_table(model, 0) == [0.0] and sf_eval(model, 0) == 0.0
    with pytest.raises(DomainError, match="^parameter p must be finite"):
        sf_table(model, 1)


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
    # the recursion never divides by g: g(2) = 0 restarts it at Phi(3) = 1
    zero_g = HGPair(h=lambda n: 1.0, g=lambda n: 0.0 if n == 2 else 1.0)
    assert sf_table(custom_hg(zero_g), 5) == [0.0, 1.0, 2.0, 1.0, 2.0, 3.0]
    bad_h_inner = HGPair(h=lambda n: 0.0 if n == 3 else 1.0, g=lambda n: 1.0)
    with pytest.raises(RecipeDivisionError, match=r"h\(3\)"):
        sf_from_hg(bad_h_inner, 5)


def test_recipe_overflow_at_the_first_level_is_typed():
    # h(0) = qb (1 + qb**2) / 2 overflows before any level is formed
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=1"):
        sf_from_hg(hg_for_two_sided(1e200, 1.0, 0.0), 1)


TABLE_PREFIX = [
    two_sided_equal_hg(1.3, 1.0),
    two_sided_equal_hg(0.7, 1.0),
    custom_hg(hg_for_two_sided(1.1, 0.95, 0.3)),
    custom_hg(hg_for_two_sided(1.05, 1.0, equal_hg_special_case(1.05, 1.0)[0])),
]


@pytest.mark.parametrize("model", TABLE_PREFIX, ids=lambda model: model.label)
def test_each_table_is_a_prefix_of_a_longer_one(model):
    # a table carrying running values (a sum, a recurrence) stops at any n
    # with the entries a longer table holds there, bit for bit
    table = [value.hex() for value in sf_table(model, 19)]
    assert [sf_eval(model, 7).hex(), sf_eval(model, 19).hex()] == [table[7], table[19]]
    assert [value.hex() for value in model.table(7, [0.0])] == table[:8]


def test_recipe_range_checks_the_levels_it_passes_over():
    # q-ha at q = 0.1 leaves double range at level 155: sf_eval stops
    # where the table stops
    model = custom_hg(hg_for_q_ha(0.1))
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=155$"):
        sf_table(model, 400)
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=400$"):
        sf_eval(model, 400)
    with pytest.raises(OverflowError):
        model.table(400, [0.0])
    # Phi(1) = 1/h(0) is already inf here
    tiny = custom_hg(HGPair(lambda n: 1e-320, lambda n: 0.0 if n == 1 else 1.0))
    for call in (lambda: sf_table(tiny, 5), lambda: sf_eval(tiny, 1)):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=1$"):
            call()
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=5$"):
        sf_eval(tiny, 5)
    # an exact Phi(2) ~ 1e400 is no double: sf_eval refuses it where the
    # table does, with the same cause
    pair = HGPair(lambda n: Fraction(1, 10**200), lambda n: Fraction(1))
    for call in (lambda: sf_table(custom_hg(pair), 2), lambda: sf_eval(custom_hg(pair), 2),
                 lambda: sf_from_hg(pair, 2)):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=2$") as caught:
            call()
        assert str(caught.value.__cause__) == "integer division result too large for a float"
    assert sf_eval(custom_hg(pair), 1) == 10**200
    # so does a closed form over exact numbers, whose sf_eval once returned the
    # Fraction: [n] = n 3**(n-1) at q = p = 3 leaves double range at n = 642
    exact = chakrabarti_jagannathan(Fraction(3), Fraction(3))
    for call in (lambda: sf_table(exact, 700), lambda: sf_eval(exact, 642)):
        with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=642$") as caught:
            call()
        assert str(caught.value.__cause__) == "integer division result too large for a float"
    assert sf_eval(exact, 641) == 641 * Fraction(3) ** 640


def test_recipe_stays_in_range_far_from_the_undeformed_point():
    pair = hg_for_q_ha(2.0)
    value = sf_from_hg(pair, 100)
    assert 0.0 < value < 1.0


def test_recipe_stays_in_range_while_its_coefficients_do():
    # two-sided(2, 1, mu=0): Phi(256) = 4.45e-308 is still a normal double;
    # h(256) ~ 2**1026 is not, and would round Phi(257) to 0.0 (the
    # factorial-ratio products this recursion replaced overflowed at 208)
    model = custom_hg(hg_for_two_sided(2.0, 1.0, 0.0))
    table = sf_table(model, 256)
    assert all(0.0 < value < math.inf for value in table[1:])
    assert table[256] == 4.450147717014403e-308
    with pytest.raises(EvaluationOverflowError, match=r"overflowed at n=257$"):
        sf_table(model, 257)


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
    # bit-equal by construction (one shared pair builder), so this replaces
    # the limit check that measured their deviation
    for qb in GRID:
        for pb in GRID:
            plain = hg_for_qp_ha(qb, pb)
            two = hg_for_two_sided(qb, pb, 0.0)
            for n in range(21):
                assert two.h(n) == plain.h(n)
                assert two.g(n) == plain.g(n)
            # so the limit suite measures the table at pb = qb once, as nonstd_qp's
            assert sf_table(custom_hg(two), 20) == sf_table(nonstd_qp(qb, pb), 20)


def test_two_sided_pair_direct_value():
    # h(0) = 2 * (1 + 4) / 2 - 8/2 = 1
    assert hg_for_two_sided(2.0, 1.0, 8.0).h(0) == 1.0


# the pairs' one-pass lists against h and g, out to the edges of double range
EDGES = (
    5e-324, 1e-300, 1e-154, 0.5, 1.0 - 1e-12, 1.0, 1.03, 2.0, 1e154, 1e300,
    1.7976931348623157e308,
)
EDGE_MU = (0.0, -0.0, -0.75, 1e-300, -1.7976931348623157e308)


def _ratio_pairs(qb, pb, mu):
    yield hg_for_q_ha(qb)
    yield hg_for_qp_ha(qb, pb)
    yield hg_for_two_sided(qb, pb, mu)
    yield hg_for_two_sided(qb, pb, lambda n: mu / (1 + n))


def _per_level(pair, m):
    # h(0..m-1) and g(0..m-1) evaluated one by one, or None where one raises
    try:
        return [pair.h(n) for n in range(m)], [pair.g(n) for n in range(m)]
    except (OverflowError, ZeroDivisionError):
        return None


def assert_lists_are_h_and_g(pair, m):
    # repr tells -0.0 from 0.0, nan from nan, and a Fraction from a float
    expected = _per_level(pair, m)
    try:
        h, g = pair.lists(m)
    except (OverflowError, ZeroDivisionError):
        assert expected is None, pair.label
        return
    if expected is None:  # h(n) or g(n) refuses a zero h or a value the lists keep
        assert 0 in h or not all(-math.inf < value < math.inf for value in h + g), pair.label
        return
    assert (list(map(repr, h)), list(map(repr, g))) == tuple(
        list(map(repr, values)) for values in expected
    ), pair.label


@pytest.mark.parametrize("qb", EDGES)
@pytest.mark.parametrize("pb", EDGES)
def test_pair_lists_are_h_and_g_bit_for_bit(qb, pb):
    for mu in EDGE_MU:
        for pair in _ratio_pairs(qb, pb, mu):
            for m in (1, 2, 7, 300):
                assert_lists_are_h_and_g(pair, m)


def test_pair_lists_are_h_and_g_on_fractions():
    huge = Fraction(10) ** 400  # as in test_a_huge_exact_mu_is_finite
    ratios = ((Fraction(2), Fraction(1)), (Fraction(3, 7), Fraction(5, 4)), (Fraction(1), 1))
    for qb, pb in ratios:
        for mu in (Fraction(0), Fraction(-1, 3)):
            for pair in _ratio_pairs(qb, pb, mu):
                assert_lists_are_h_and_g(pair, 40)
        for mu in (huge, -huge):  # no double holds it, so it is passed per level
            assert_lists_are_h_and_g(hg_for_two_sided(qb, pb, lambda n: mu), 40)
            assert_lists_are_h_and_g(hg_for_two_sided(qb, pb, lambda n: mu / (1 + n)), 40)
        assert_lists_are_h_and_g(hg_for_two_sided(qb, pb, lambda n: huge * n), 40)
    pair = hg_for_two_sided(Fraction(2), Fraction(1), lambda n: huge)
    assert pair.lists(3)[0][0] == 1 + 4 - huge / 2
    # sf_table reads the lists, sf_eval the level loop
    model = custom_hg(hg_for_two_sided(Fraction(2), Fraction(1), Fraction(1, 3)))
    assert sf_table(model, 5) == [sf_eval(model, n) for n in range(6)]


def test_pair_coefficients_are_typed():
    # Q = 1e-300/1e300 underflows to 0.0, which g(0) raises to the power -2;
    # 2**1202 passes the largest double; Q = 1e300/1e-300 is inf
    cases = [
        ((1e-300, 1e300, 1.0), "g", 0),
        ((2.0, 1.0, 1.0), "h", 600),
        ((1e300, 1e-300, 1.0), "h", 0),
    ]
    for (qb, pb, mu), name, n in cases:
        pair = hg_for_two_sided(qb, pb, mu)
        message = rf"^coefficient {name} of {re.escape(pair.label)} overflowed at n={n}$"
        with pytest.raises(EvaluationOverflowError, match=message):
            getattr(pair, name)(n)
    # a zero h at mu = 0 is an underflow, at mu != 0 a plain value
    with pytest.raises(EvaluationOverflowError, match=r"^coefficient h of q-ha\(q=1e-150\)"):
        hg_for_q_ha(1e-150).h(1)
    assert hg_for_two_sided(2.0, 1.0, 10.0).h(0) == 0.0


def test_the_recipe_is_exact_on_a_fraction_pair():
    # h(j) = q Q**(2j) (1 + Q**(2j+2)) / 2, g(j) = p Q**(2j) (1 + Q**(2j-2)) / 2
    # at q = 3/2, p = 1, and Phi(j+1) = (1 + g(j) Phi(j)) / h(j), all exact
    ratio = Fraction(3, 2)
    exact = [Fraction(0)]
    for j in range(12):
        h = ratio / 2 * ratio ** (2 * j) * (1 + ratio ** (2 * j + 2))
        g = ratio ** (2 * j) * (1 + ratio ** (2 * j - 2)) / 2
        exact.append((1 + g * exact[j]) / h)
    model = custom_hg(hg_for_qp_ha(Fraction(3, 2), Fraction(1)))
    table = sf_table(model, 12)
    assert table == exact
    assert [sf_eval(model, n) for n in range(13)] == exact
    assert all(type(value) is Fraction for value in table[1:])
    assert all(type(sf_eval(model, n)) is Fraction for n in range(1, 13))


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
# the equal-coefficient two-sided oscillator
# ---------------------------------------------------------------------------


def test_equal_case_matches_recipe_and_closed_form():
    for qb in GRID:
        for pb in GRID:
            if qb == pb:
                continue
            _, hg_fn = equal_hg_special_case(qb, pb)
            pair = HGPair(h=hg_fn, g=hg_fn)
            table = sf_table(two_sided_equal_hg(qb, pb), 30)
            for n in range(31):
                assert rel_gap(table[n], sf_from_hg(pair, n)) <= 1e-10
                assert rel_gap(table[n], two_sided_equal_sf_closed_form(n, qb, pb)) <= 1e-10


def test_equal_case_first_level_is_reciprocal_h():
    _, hg_fn = equal_hg_special_case(2.0, 1.0)
    got = sf_eval(two_sided_equal_hg(2.0, 1.0), 1)
    assert rel_gap(got, 1.0 / hg_fn(0)) <= 1e-14
    assert got == pytest.approx(16.0 / 45.0, rel=1e-15)


def test_equal_case_at_ratio_one_is_exact():
    # every term of the defining sum is exactly 1/qb there
    for q in GRID:
        table = sf_table(two_sided_equal_hg(q, q), 30)
        for n in range(31):
            assert sf_eval(two_sided_equal_hg(q, q), n) == n / q
            assert table[n] == n / q


def test_equal_case_zero_level():
    assert sf_eval(two_sided_equal_hg(1.7, 0.3), 0) == 0.0


# ---------------------------------------------------------------------------
# the two nonstandard oscillators: the recipe over the qp-ha pair
# ---------------------------------------------------------------------------


def test_nonstd_q_matches_its_printed_form():
    # the paper's printed two-parameter form at p = 1
    for q in GRID:
        model = nonstd_q(q)
        for n in range(31):
            assert rel_gap(sf_eval(model, n), nonstd_qp_sf_explicit(n, q, 1.0)) <= 1e-10


def test_nonstd_qp_matches_its_printed_form():
    for q in GRID:
        for p in GRID:
            if q == p:
                continue
            model = nonstd_qp(q, p)
            for n in range(31):
                assert rel_gap(sf_eval(model, n), nonstd_qp_sf_explicit(n, q, p)) <= 1e-10


def test_nonstd_qp_reduces_to_nonstd_q_at_p_one():
    # both are the recipe over one pair, so each is measured against the
    # paper's printed form at p = 1 instead of against the other
    for q in (*GRID, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.7):
        for model in (nonstd_q(q), nonstd_qp(q, 1.0)):
            table = sf_table(model, 40)
            for n in range(41):
                assert rel_gap(table[n], nonstd_qp_sf_explicit(n, q, 1.0)) <= 1e-10


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


@pytest.mark.parametrize("q", [1.0, 1.0 + 1e-8, 1.0 - 1e-8])
def test_cj_at_p_one_and_one_over_q_is_ac_and_bm_bit_for_bit(q):
    # so the limit suite's catalog measures these tables once, as ac's and bm's
    assert sf_table(chakrabarti_jagannathan(q, 1.0), 20) == sf_table(arik_coon(q), 20)
    bm = sf_table(biedenharn_macfarlane(q), 20)
    assert sf_table(chakrabarti_jagannathan(q, 1.0 / q), 20) == bm


@pytest.mark.parametrize("offset", [limits.PARAMETER_OFFSET, -limits.PARAMETER_OFFSET])
def test_the_limit_catalog_builds_no_table_twice(offset):
    # at offset 0 every table is n itself, which is what the catalog measures
    tables = [tuple(sf_table(model, 20)) for model in limits._classical_models(offset)]
    assert len(set(tables)) == len(tables)


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
        ("n", lambda: sf_eval(two_sided_equal_hg(1.1, 0.9), level)),
    ]
    for name, call in calls:
        with pytest.raises(DomainError, match=rf"^{name} must be an integer, got {level!r}$"):
            call()


def test_numpy_integer_levels_pass():
    model = custom_hg(hg_for_q_ha(1.1))
    assert sf_table(model, np.int64(6)) == sf_table(model, 6)
    assert sf_eval(model, np.int64(6)) == sf_eval(model, 6)
    assert spectrum(model, np.int32(4)) == spectrum(model, 4)
    equal = two_sided_equal_hg(1.1, 0.9)
    assert sf_eval(equal, np.int64(3)) == sf_eval(equal, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_mu_and_mu_tilde_are_domain_errors(bad):
    with pytest.raises(DomainError, match=r"^parameter mu must be finite"):
        hg_for_two_sided(1.1, 1.0, bad)
    with pytest.raises(DomainError, match=r"^parameter mu_tilde must be finite"):
        jannussis_mu(bad)


# each constructor that takes a positive parameter, with the name its
# DomainError gives each slot
POSITIVE_SLOTS = [
    (arik_coon, ["q"]),
    (biedenharn_macfarlane, ["q"]),
    (chakrabarti_jagannathan, ["q", "p"]),
    (nonstd_q, ["q"]),
    (nonstd_qp, ["q", "p"]),
    (two_sided_equal_hg, ["qb", "pb"]),
    (hg_for_q_ha, ["q"]),
    (hg_for_qp_ha, ["q", "p"]),
    (lambda qb, pb: hg_for_two_sided(qb, pb, 0.0), ["qb", "pb"]),
    (equal_hg_special_case, ["qb", "pb"]),
]


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), float("-inf")])
@pytest.mark.parametrize(
    "build, names, slot",
    [(build, names, slot) for build, names in POSITIVE_SLOTS for slot in range(len(names))],
)
def test_non_finite_model_parameters_are_domain_errors(build, names, slot, bad):
    # unchecked, an infinite q overflows inside the table or gives
    # h(1) = inf; a nan reads as it does for the linkage formulas
    params = [1.5, 1.25][: len(names)]
    params[slot] = bad
    message = rf"^parameter {names[slot]} must be finite, got {bad!r}$"
    with pytest.raises(DomainError, match=message):
        build(*params)


def test_a_huge_exact_mu_is_finite():
    # math.isfinite() would overflow converting this Fraction to a double; a
    # constant this large is refused, so it is passed per level
    mu = Fraction(10) ** 400
    pair = hg_for_two_sided(Fraction(2), Fraction(1), lambda n: mu)
    assert pair.h(0) == 1 + 4 - mu / 2
