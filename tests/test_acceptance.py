"""End-to-end acceptance suite.

Each test implements one gate criterion at its stated tolerance and
prints a single pass line on success (visible under ``pytest -s``).
The module also runs standalone::

    python tests/test_acceptance.py

printing one PASS/FAIL line per criterion and exiting nonzero if any
criterion fails.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

from defosc import (
    HGPair,
    NegativeStructureFunctionError,
    RecipeDivisionError,
    arik_coon,
    biedenharn_macfarlane,
    build_ladder,
    chakrabarti_jagannathan,
    check_link_consistency,
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
    run_limit_suite,
    sf_eval,
    sf_from_hg,
    two_sided_equal_hg,
    verify_commutator_sf,
    verify_hg,
    verify_q_ha,
    verify_qp_ha,
    verify_two_sided,
)
from defosc.cli import main as cli_main
from link_oracle import assert_rows_are_rounded_exact_values, free_routes, routes_at, routes_at_q
from sf_oracle import nonstd_qp_sf_explicit, two_sided_equal_sf_closed_form

GRID = (0.5, 0.9, 1.1, 2.0)
DIMS = (8, 32, 64)
N_MAX = 30


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_recipe_matches_single_parameter_closed_form():
    # nonstd-q is the recipe over its pair; the paper's printed form at p = 1
    worst = 0.0
    for q in GRID:
        model = nonstd_q(q)
        for n in range(N_MAX + 1):
            worst = max(worst, rel_gap(sf_eval(model, n), nonstd_qp_sf_explicit(n, q, 1.0)))
    assert worst <= 1e-10
    announce("C1", f"recipe vs printed form, single parameter: worst {worst:.2e}")


def test_c02_recipe_matches_two_parameter_closed_forms():
    # nonstd-qp is the recipe over its pair; the paper's printed form
    worst = 0.0
    for q in GRID:
        for p in GRID:
            if q == p:
                continue
            model = nonstd_qp(q, p)
            for n in range(N_MAX + 1):
                worst = max(worst, rel_gap(sf_eval(model, n), nonstd_qp_sf_explicit(n, q, p)))
    assert worst <= 1e-10
    announce("C2", f"recipe vs printed form, two parameters: worst {worst:.2e}")


def test_c03_two_sided_equal_coefficient_closed_form():
    # the model's running sum, the paper's closed form and the recipe
    worst = 0.0
    for qb in GRID:
        for pb in GRID:
            model = two_sided_equal_hg(qb, pb)
            if qb == pb:
                for n in range(N_MAX + 1):
                    assert sf_eval(model, n) == n / qb
                continue
            _, hg_value = equal_hg_special_case(qb, pb)
            pair = HGPair(h=hg_value, g=hg_value)
            for n in range(N_MAX + 1):
                values = (
                    sf_eval(model, n),
                    two_sided_equal_sf_closed_form(n, qb, pb),
                    sf_from_hg(pair, n),
                )
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    worst = max(worst, rel_gap(values[a], values[b]))
    assert worst <= 1e-10
    announce("C3", f"equal-coefficient model vs closed form vs recipe: worst {worst:.2e}")


def test_c04_symmetric_oscillator_recovery():
    worst = 0.0
    for q in GRID:
        for p in GRID:
            pair = HGPair(h=lambda n: p**-n, g=lambda n: q * p**-n)
            for n in range(N_MAX + 1):
                worst = max(worst, rel_gap(sf_from_hg(pair, n), qp_number(n, q, p)))
    assert worst <= 1e-10
    announce("C4", f"target pair recovers the deformed integers: worst {worst:.2e}")


def test_c05_relation_residuals_and_negative_controls():
    worst = 0.0
    ran = 0
    for q in GRID:
        for dim in DIMS:
            report = verify_q_ha(q, dim=dim)
            assert report.passed, report
            worst = max(worst, report.max_abs_residual)
            ran += 1
    for q in GRID:
        for p in GRID:
            for dim in DIMS:
                report = verify_qp_ha(q, p, dim=dim)
                assert report.passed, report
                worst = max(worst, report.max_abs_residual)
                ran += 1
    two_sided_ran = 0
    for qb in GRID:
        for pb in GRID:
            for mu in (-0.5, 0.0, 0.5):
                for dim in DIMS:
                    try:
                        report = verify_two_sided(qb, pb, mu, dim=dim)
                    except (NegativeStructureFunctionError, RecipeDivisionError):
                        continue  # structure function not positive here
                    assert report.passed, report
                    worst = max(worst, report.max_abs_residual)
                    two_sided_ran += 1
    assert two_sided_ran >= 100
    ran += two_sided_ran

    pairs = [hg_for_q_ha(q) for q in GRID]
    pairs += [hg_for_qp_ha(q, p) for q in GRID for p in GRID]
    pairs += [
        hg_for_two_sided(qb, pb, mu)
        for qb in GRID
        for pb in GRID
        for mu in (-0.5, 0.0, 0.5)
    ]
    for pair in pairs:
        for dim in DIMS:
            try:
                rep = build_ladder(custom_hg(pair), dim)
            except (NegativeStructureFunctionError, RecipeDivisionError):
                continue
            report = verify_hg(rep, pair)
            assert report.passed, report
            worst = max(worst, report.max_abs_residual)
            ran += 1

    models = [harmonic()]
    models += [arik_coon(q) for q in GRID]
    models += [biedenharn_macfarlane(q) for q in GRID]
    models += [chakrabarti_jagannathan(q, p) for q in GRID for p in GRID]
    models += [jannussis_mu(mt) for mt in (0.0, 0.3, 0.5)]
    models += [nonstd_q(q) for q in GRID]
    models += [nonstd_qp(q, p) for q in GRID for p in GRID]
    models += [two_sided_equal_hg(qb, pb) for qb in GRID for pb in GRID]
    for model in models:
        for dim in DIMS:
            report = verify_commutator_sf(build_ladder(model, dim))
            assert report.passed, (model.label, report)
            worst = max(worst, report.max_abs_residual)
            ran += 1

    # negative controls: perturbed relation constants stay loud
    controls = [
        verify_q_ha(2.0, dim=16, check_q=3.0),
        verify_qp_ha(2.0, 0.5, dim=16, check_q=3.0),
        verify_two_sided(2.0, 1.0, 0.5, dim=16, check_mu=-0.5),
    ]
    pair = hg_for_q_ha(2.0)
    rep = build_ladder(custom_hg(pair), 16)
    controls.append(
        verify_hg(rep, HGPair(h=pair.h, g=lambda n: pair.g(n) + 1.0))
    )
    tampered = dataclasses.replace(rep, phi=rep.phi * 1.1)
    controls.append(verify_commutator_sf(tampered))
    for control in controls:
        assert not control.passed
        assert control.max_abs_residual >= 1e-2
    announce(
        "C5",
        f"{ran} relation checks pass at 1e-10 (worst {worst:.2e}); "
        f"{len(controls)} negative controls >= 1e-2",
    )


def test_c06_limit_suite():
    checks = run_limit_suite(tolerance=1e-6)
    for check in checks:
        assert check.passed, (check.name, check.max_deviation)
    worst = max(check.max_deviation for check in checks)
    announce("C6", f"{len(checks)} reduction checks pass at 1e-6 (worst {worst:.2e})")


def test_c07_linkage_loop_closure():
    # each printed column is its exact value rounded once, checked against
    # the matching conditions on Fractions; the consistency check passes
    # wherever its level's q is in double range
    tables = 0
    for qb in GRID:
        for pb in GRID:
            for p in GRID:
                for level in range(9):
                    report = check_link_consistency(qb, pb, p, level, tol=1e-10)
                    assert report.passed, (qb, pb, p, level)
                assert_rows_are_rounded_exact_values(qb, pb, p, link_table(qb, pb, p, 8))
                tables += 1
    # the worked point: q = 37/8 and mu = 8 close the loop exactly
    free = free_routes(Fraction(2), Fraction(1), 1, 1)
    assert free["q_from_p"] == Fraction(37, 8)
    assert free["mu_from_h_match"] == free["mu_from_q"] == 8
    (row,) = link_table(2.0, 1.0, 1.0, 0)
    assert (row["q"], row["mu_h_match"], row["mu_from_q"]) == (37.0 / 8.0, 8.0, 8.0)
    announce("C7", f"{tables} tables of levels 0-8 print their exact values rounded once; "
                   "576 consistency checks pass; worked point exact")


def test_c08_n_dependence_witness():
    smallest = float("inf")
    for qb in GRID:
        for pb in GRID:
            if qb == pb:
                continue
            for p in GRID:
                row0, row1 = link_table(qb, pb, p, 1)
                gap = abs(row1["mu_h_match"] - row0["mu_h_match"])
                smallest = min(smallest, gap)
                assert gap > 1e-6
    announce("C8", f"mu moves with the level at every deformed point (min {smallest:.2e})")


def test_c09_reduced_cases():
    # the matching routes on Fractions
    worst = 0.0
    qb = Fraction(14, 10)
    near_one = (1 + Fraction(1, 10**8), 1 - Fraction(1, 10**8))
    # ratio -> 1 of the mu-through-q route: mu = 2 qb (q - 1)/(q + 1)
    for q in (Fraction(7, 10), Fraction(13, 10), Fraction(2)):
        for ratio in near_one:
            want = 2 * qb * (q - 1) / (q + 1)
            worst = max(worst, rel_gap(routes_at_q(qb, qb / ratio, 3, q)["mu_from_q"], want))
    # ratio -> 1 of the q-through-p route: q = -1 + 2 qb p**N
    for p in (Fraction(1, 2), Fraction(2)):
        for level in (0, 2, 5):
            want = -1 + 2 * qb * p**level
            got = routes_at(qb, qb / near_one[0], p, level)["q_from_p"]
            worst = max(worst, rel_gap(got, want))
    # combining both at ratio one: mu = 2 (qb - p**-N), exactly
    qb = Fraction(13, 10)
    for p in (Fraction(1, 2), Fraction(2)):
        for level in range(4):
            assert routes_at(qb, qb, p, level)["mu_from_h_match"] == 2 * (qb - p**-level)
    grid = [(Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(2)),
            (Fraction(11, 10), Fraction(9, 10))]
    # q equal to the reciprocal ratio, exactly
    for qb, pb in grid:
        ratio = qb / pb
        for level in range(4):
            want = qb * (ratio - 1) * (ratio**2 + 1) * ratio ** (4 * level - 2)
            assert routes_at_q(qb, pb, level, 1 / ratio)["mu_from_q"] == want
    # the one-parameter oscillator target, exactly: its mu flattens h to one
    for qb, pb in grid:
        ratio = qb / pb
        for level in range(4):
            got = routes_at(qb, pb, 1, level)["mu_for_arik_coon_target"]
            assert got == -2 + pb * ratio ** (2 * level + 1) * (1 + ratio ** (2 * level + 2))
            assert hg_for_two_sided(qb, pb, got).h(level) == 1
    assert worst <= 1e-6
    announce(
        "C9", f"reduced-case formulas agree at 1e-6 (worst {float(worst):.2e}), the rest exactly"
    )


def test_c10_cli_determinism():
    def run(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(argv)
        return code, buffer.getvalue()

    commands = [
        ["sf", "--model", "harmonic", "--n-max", "3"],
        ["sf", "--model", "nonstd-qp", "--q", "1.7", "--p", "0.6", "--format", "json"],
        ["spectrum", "--model", "cj", "--q", "1.3", "--p", "0.7", "--n-max", "8"],
        ["verify", "--relation", "two-sided", "--qb", "2", "--pb", "0.5",
         "--mu", "0", "--dim", "32", "--format", "json"],
        ["link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max", "4"],
        ["limits", "--format", "json"],
    ]
    for argv in commands:
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        assert code_a == code_b == 0, argv
        assert out_a == out_b, argv
        assert out_a.encode() == out_b.encode()
    # spot-check golden rows stay pinned
    _, out = run(["sf", "--model", "harmonic", "--n-max", "3"])
    assert out.splitlines()[-1] == "3,3"
    _, out = run(["link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max", "0"])
    assert out.splitlines()[-1] == "0,4.625,8,8,8,1,true"
    _, out = run(["verify", "--relation", "two-sided", "--qb", "2", "--pb", "0.5",
                  "--mu", "0", "--dim", "32", "--format", "json"])
    assert json.loads(out)["rows"][0]["pass"] is True
    announce("C10", f"{len(commands)} commands byte-identical across repeated runs")


if __name__ == "__main__":
    import sys

    criteria = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_c") and callable(fn)
    ]
    failures = 0
    for name, fn in criteria:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            label = name.split("_")[1].upper()
            print(f"ACCEPTANCE {label}: FAIL ({exc})")
    sys.exit(1 if failures else 0)
