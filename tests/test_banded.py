"""The banded Fock core checked against the dense oracle it replaced.

Every relation and every negative control is run through the package
(offset-indexed vectors, O(dim)) and through tests/dense_oracle.py
(dense complex matrices, O(dim**3)); verdicts, labels and errors must be
identical and residuals equal to roundoff.  Phi tables must be identical
bit for bit.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import defosc
import dense_oracle
from defosc import fock, structure, verify
from defosc import (
    HGPair,
    arik_coon,
    biedenharn_macfarlane,
    build_ladder,
    build_xp,
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
    sf_eval,
    sf_from_hg,
    sf_table,
    two_sided_equal_hg,
    verify_two_sided,
)
from defosc.cli import main as cli_main

PAIR = hg_for_qp_ha(1.2, 0.9)
MU_LEVELS = equal_hg_special_case(1.05, 1.0)[0]


def _hg(m, dim, margin, pair):
    rep = m.build_ladder(custom_hg(PAIR), dim)
    return m.verify_hg(rep, pair, margin=margin, per_state=True)


def _commutator(m, dim, margin, model, phi_scale=1.0):
    rep = m.build_ladder(model, dim)
    rep = dataclasses.replace(rep, phi=rep.phi * phi_scale)
    return m.verify_commutator_sf(rep, margin=margin, per_state=True)


# name -> (check run through module m, whether it is a true construction)
CASES = {
    "q-ha": (lambda m, d, g: m.verify_q_ha(1.3, dim=d, margin=g, per_state=True), True),
    "q-ha check_q": (
        lambda m, d, g: m.verify_q_ha(1.3, dim=d, margin=g, check_q=1.31, per_state=True),
        False,
    ),
    "q-ha q=2 check_q": (
        lambda m, d, g: m.verify_q_ha(2.0, dim=d, margin=g, check_q=2.02, per_state=True),
        False,
    ),
    "qp-ha": (
        lambda m, d, g: m.verify_qp_ha(1.2, 0.9, dim=d, margin=g, per_state=True),
        True,
    ),
    "qp-ha check_q": (
        lambda m, d, g: m.verify_qp_ha(
            1.2, 0.9, dim=d, margin=g, check_q=1.21, per_state=True
        ),
        False,
    ),
    "qp-ha check_p": (
        lambda m, d, g: m.verify_qp_ha(
            1.2, 0.9, dim=d, margin=g, check_p=0.91, per_state=True
        ),
        False,
    ),
    "two-sided": (
        lambda m, d, g: m.verify_two_sided(
            1.1, 0.95, 0.3, dim=d, margin=g, per_state=True
        ),
        True,
    ),
    "two-sided check_mu": (
        lambda m, d, g: m.verify_two_sided(
            1.1, 0.95, 0.3, dim=d, margin=g, check_mu=0.35, per_state=True
        ),
        False,
    ),
    # 1 + mu H outgrows X P and P X here, so it sets the normalization
    "two-sided mu=0.9 check_mu": (
        lambda m, d, g: m.verify_two_sided(
            1.0, 1.0, 0.9, dim=d, margin=g, check_mu=1.0, per_state=True
        ),
        False,
    ),
    "two-sided alt_pairing": (
        lambda m, d, g: m.verify_two_sided(
            1.1, 0.95, 0.3, dim=d, margin=g, alt_pairing=True, per_state=True
        ),
        False,
    ),
    "two-sided mu(n)": (
        lambda m, d, g: m.verify_two_sided(
            1.05, 1.0, MU_LEVELS, dim=d, margin=g, per_state=True
        ),
        True,
    ),
    "two-sided mu(n) alt_pairing": (
        lambda m, d, g: m.verify_two_sided(
            1.05, 1.0, MU_LEVELS, dim=d, margin=g, alt_pairing=True, per_state=True
        ),
        False,
    ),
    "hg": (lambda m, d, g: _hg(m, d, g, PAIR), True),
    "hg mismatched pair": (lambda m, d, g: _hg(m, d, g, hg_for_qp_ha(1.21, 0.9)), False),
    "commutator-sf arik-coon": (
        lambda m, d, g: _commutator(m, d, g, arik_coon(1.1)),
        True,
    ),
    "commutator-sf nonstd-q": (
        lambda m, d, g: _commutator(m, d, g, nonstd_q(1.05)),
        True,
    ),
    "commutator-sf rescaled phi": (
        lambda m, d, g: _commutator(m, d, g, arik_coon(1.1), phi_scale=1.001),
        False,
    ),
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-12 * abs(b), 1e-15)


@pytest.mark.parametrize("margin", [0, 2, 5])
@pytest.mark.parametrize("dim", [32, 64, 256])
@pytest.mark.parametrize("case", sorted(CASES))
def test_residuals_match_the_dense_oracle(case, dim, margin):
    check, true_construction = CASES[case]
    banded = check(defosc, dim, margin)
    dense = check(dense_oracle, dim, margin)
    assert (banded.relation, banded.dim, banded.margin, banded.tolerance) == (
        dense.relation,
        dense.dim,
        dense.margin,
        dense.tolerance,
    )
    assert banded.passed == dense.passed
    if margin:
        # margin 0 keeps the truncation leakage in, and everything fails
        assert banded.passed == true_construction
    assert _close(banded.max_abs_residual, dense.max_abs_residual)
    assert [n for n, _ in banded.per_state] == [n for n, _ in dense.per_state]
    for (_, a), (_, b) in zip(banded.per_state, dense.per_state):
        assert _close(a, b)


def _dense_of(bands):
    # bands[0, n] = (n, n-2), bands[1, n] = (n, n), bands[2, n] = (n, n+2)
    return np.diag(bands[1]) + np.diag(bands[0, 2:], -2) + np.diag(bands[2, :-2], 2)


@pytest.mark.parametrize("margin", [0, 1, 2, 3, 5, 11])
def test_interior_block_of_bands_is_the_dense_block(margin):
    # order-one entries everywhere, so every entry the block takes in or
    # leaves out can move the report
    rng = np.random.default_rng(margin)
    bands = [rng.standard_normal((3, 12)) * 4.0 for _ in range(3)]
    for array in bands:
        array[0, :2] = array[2, -2:] = 0.0  # no such matrix entries
    banded = verify._interior_report("r", bands[0], bands[1:], margin, 1e-10, True)
    dense = dense_oracle._interior_report(
        "r", _dense_of(bands[0]), [_dense_of(b) for b in bands[1:]], margin, 1e-10, True
    )
    assert banded == dense


MODELS = [
    harmonic(),
    arik_coon(1.1),
    biedenharn_macfarlane(1.2),
    chakrabarti_jagannathan(1.3, 0.8),
    jannussis_mu(0.2),
    nonstd_q(1.3),
    nonstd_q(1.0),
    nonstd_q(0.7),
    nonstd_qp(1.2, 0.9),
    two_sided_equal_hg(1.1, 1.0),
]
PAIRS = [
    hg_for_q_ha(0.9),
    hg_for_two_sided(1.1, 0.95, 0.3),
    hg_for_two_sided(1.05, 1.0, MU_LEVELS),
]


@pytest.mark.parametrize("dim", [32, 64, 256])
def test_phi_tables_are_bit_identical_to_per_level_evaluation(dim):
    for model in MODELS + [custom_hg(pair) for pair in PAIRS]:
        table = sf_table(model, dim)
        assert table == [sf_eval(model, n) for n in range(dim + 1)], model.label
        assert build_ladder(model, dim).phi.tolist() == table
    for pair in PAIRS:
        assert sf_from_hg(pair, dim) == sf_table(custom_hg(pair), dim)[-1]


# every variant, over q, p log-uniform in [1e-3, 1e3] and mu in [-1, 1]
SWEPT = {
    "harmonic": lambda q, p, mu: harmonic(),
    "arik-coon": lambda q, p, mu: arik_coon(q),
    "biedenharn-macfarlane": lambda q, p, mu: biedenharn_macfarlane(q),
    "cj": lambda q, p, mu: chakrabarti_jagannathan(q, p),
    "jannussis-mu": lambda q, p, mu: jannussis_mu(mu),
    "nonstd-q": lambda q, p, mu: nonstd_q(q),
    "nonstd-qp": lambda q, p, mu: nonstd_qp(q, p),
    "two-sided-equal": lambda q, p, mu: two_sided_equal_hg(q, p),
    "two-sided": lambda q, p, mu: custom_hg(hg_for_two_sided(q, p, mu)),
    "two-sided-mu(n)": lambda q, p, mu: custom_hg(
        hg_for_two_sided(q, p, lambda n: mu / (1 + n))
    ),
}
LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent)


def _value_or_error(call):
    try:
        return call()
    except defosc.DeformedAlgebraError as exc:
        return type(exc), str(exc)


@given(
    name=st.sampled_from(sorted(SWEPT)),
    q=LOG_UNIFORM,
    p=st.one_of(LOG_UNIFORM, st.just(None)),
    gap=st.floats(-1e-9, 1e-9),
    mu=st.floats(-1.0, 1.0),
    n_max=st.integers(0, 600),
)
@settings(max_examples=100, deadline=None)
def test_sf_table_entries_are_sf_eval_over_the_parameter_domain(
    name, q, p, gap, mu, n_max
):
    # p = None puts p inside the singular band |q - p| < 1e-9 max(q, p)
    model = SWEPT[name](q, q * (1.0 + gap) if p is None else p, mu)
    table = _value_or_error(lambda: sf_table(model, n_max))
    if isinstance(table, list):
        assert table == [sf_eval(model, n) for n in range(n_max + 1)]
        return
    # sf_table(model, k) raises exactly for k >= the first failing level
    ok, failing = 0, n_max
    while failing - ok > 1:
        mid = (ok + failing) // 2
        if isinstance(_value_or_error(lambda: sf_table(model, mid)), list):
            ok = mid
        else:
            failing = mid
    assert sf_table(model, ok) == [sf_eval(model, n) for n in range(ok + 1)]
    assert _value_or_error(lambda: sf_eval(model, failing)) == table
    assert _value_or_error(lambda: sf_table(model, failing)) == table


def test_sf_table_consults_h_and_g_below_n_max_only():
    seen = []

    def one(n):
        seen.append(n)
        return 1.0

    sf_table(custom_hg(HGPair(h=one, g=one)), 10)
    assert sorted(seen) == [0] + sorted(2 * list(range(1, 10)))
    assert sf_table(harmonic(), 0) == [0.0]
    with pytest.raises(defosc.DomainError):
        sf_table(harmonic(), -1)


def test_sf_table_reads_a_per_level_mu_below_n_max_once_per_level():
    seen = []

    def mu(n):
        seen.append(n)
        return 0.25 / (1 + n)

    pair = hg_for_two_sided(1.1, 0.95, mu)
    table = sf_table(custom_hg(pair), 10)
    assert seen == list(range(10))
    seen.clear()
    verify.verify_hg(build_ladder(harmonic(), 10), pair)
    assert seen == list(range(10))
    assert table == [sf_eval(custom_hg(pair), n) for n in range(11)]


VERIFY_HG_PAIRS = [
    *PAIRS,
    PAIR,
    hg_for_q_ha(1e-150),  # h(1) underflows to 0.0 at mu = 0: a typed overflow
    hg_for_q_ha(1e-300),  # ratio**-2 in g(0) passes the largest double
    hg_for_q_ha(4.0),  # a power passes the largest double below dim 600
    hg_for_two_sided(2.0, 1.0, 10.0),  # h(0) = 0 at mu != 0: a plain value
    hg_for_two_sided(1e3, 1e-3, equal_hg_special_case(1e3, 1e-3)[0]),  # mu raises at 13
    hg_for_two_sided(1.1, 0.95, lambda n: 1e308 * n),  # mu(n) = inf from n = 2
    hg_for_qp_ha(1e200, 1e-200),  # an infinite ratio
]


@pytest.mark.parametrize("dim", [2, 5, 32, 600])
@pytest.mark.parametrize("pair", VERIFY_HG_PAIRS, ids=lambda pair: pair.label)
def test_verify_hg_reads_its_lists_as_h_and_g_one_by_one(pair, dim):
    # the reference maps h and g over the levels, as verify_hg did
    rep = build_ladder(nonstd_q(1.05), dim)
    reference = dataclasses.replace(pair, lists=None)

    def report(hg):  # repr, so that a nan residual equals itself
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                return repr(verify.verify_hg(rep, hg, margin=0, per_state=True))
        except defosc.DeformedAlgebraError as exc:
            return type(exc), str(exc)

    assert report(pair) == report(reference)


def _raises_at_five(n):
    if n == 5:
        raise ValueError("mu(5) is undefined")
    return 0.1


ROUTE_MU = (None, 0.0, 0.3, -0.5, 10.0, 3, lambda n: 0.2 / (1 + n / 64),
            lambda n: 1e308 * n, _raises_at_five)


def _realization(build):
    # the four arrays of a realization bit for bit, or its error
    try:
        rep = build()
    except (defosc.DeformedAlgebraError, ValueError) as exc:
        return type(exc), str(exc)
    return [array.tobytes() for array in (rep.phi, rep.ladder, rep.x, rep.p)]


@pytest.mark.parametrize("dim", [2, 9, 300, 1024])
@pytest.mark.parametrize("pb", [1.0, 0.95, 1e-300])
@pytest.mark.parametrize("qb", [0.5, 1.05, 2.0, 4.0, 1e-300, 1e300])
def test_the_xp_checks_one_array_of_powers_is_the_two_calls(qb, pb, dim):
    # the X/P checks build their realization from one array of powers;
    # it is build_xp(build_ladder(...)) bit for bit, or the same error
    for mu in ROUTE_MU:  # None: the qp-ha pair
        pair = hg_for_qp_ha(qb, pb) if mu is None else hg_for_two_sided(qb, pb, mu)
        model = custom_hg(pair)
        expected = _realization(lambda: build_xp(build_ladder(model, dim), qb / pb))
        route = _realization(lambda: fock._ratio_xp(model, dim))
        assert route == expected, mu


def _listed(pair):
    # pair read as before the array route: build_ladder and verify_hg form
    # only a ratio pair's own lists as arrays, so build_ladder reads these
    # pure-Python lists and verify_hg reads h and g level by level
    return dataclasses.replace(pair, lists=lambda m: pair.lists(m))


def _outcome(call):
    # repr of a result (so that a nan residual equals itself), or the error
    # with its cause
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return repr(call())
    except (defosc.DeformedAlgebraError, ValueError) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)


@pytest.mark.parametrize("dim", [2, 9, 300, 1024])
@pytest.mark.parametrize("pb", [1.0, 0.95, 1e-300])
@pytest.mark.parametrize("qb", [0.5, 1.05, 2.0, 4.0, 1e-300, 1e300])
def test_ladder_and_hg_check_read_a_ratio_pair_as_its_lists(qb, pb, dim):
    # on the X/P route's grid, build_ladder and verify_hg over a ratio
    # pair's arrays give what they give over its lists, or its h and g,
    # bit for bit, or the same error and cause
    rep = build_ladder(nonstd_q(1.05), dim)
    for mu in ROUTE_MU:  # None: the qp-ha pair
        pair = hg_for_qp_ha(qb, pb) if mu is None else hg_for_two_sided(qb, pb, mu)
        ladders, checks = [], []
        for hg in (pair, _listed(pair)):
            ladders.append(_outcome(lambda: build_ladder(custom_hg(hg), dim).phi.tobytes()))
            checks.append(_outcome(lambda: verify.verify_hg(rep, hg, margin=0, per_state=True)))
        assert ladders[0] == ladders[1], mu
        assert checks[0] == checks[1], mu


def test_an_hg_check_in_range_builds_no_python_lists(monkeypatch):
    # a float ratio pair reaches build_ladder, verify_hg and the X/P checks
    # as arrays: its pure-Python lists are never built
    built = []

    def refuse(*args):
        built.append(args)
        raise AssertionError("a ratio pair's lists were built in Python")

    monkeypatch.setattr(structure, "_ratio_lists", refuse)
    monkeypatch.setattr(fock, "_ratio_lists", refuse)
    pairs = [
        hg_for_q_ha(0.9),
        hg_for_qp_ha(1.05, 1.0),
        hg_for_two_sided(1.1, 0.95, 0.3),
        hg_for_two_sided(1.1, 0.95, lambda n: 0.2 / (1 + n)),
    ]
    for pair in pairs:
        assert pair.lists.func is refuse
        assert verify.verify_hg(build_ladder(custom_hg(pair), 256), pair).passed
        assert verify.verify_hg(build_ladder(harmonic(), 32), pair).dim == 32
    assert defosc.verify_qp_ha(1.05, 1.0, dim=256).passed
    assert verify_two_sided(1.1, 0.95, lambda n: 0.2 / (1 + n), dim=256).passed
    assert built == []


def test_the_xp_checks_read_no_ladder_or_dressing_in_range(monkeypatch):
    # in range the one array decides alone, and reads a per-level mu once
    def refuse(*args):
        raise AssertionError("the two calls ran")

    monkeypatch.setattr(fock, "build_ladder", refuse)
    monkeypatch.setattr(fock, "build_xp", refuse)
    seen = []

    def mu(n):
        seen.append(n)
        return 0.2 / (1 + n)

    assert verify_two_sided(1.05, 0.95, mu, dim=512).passed
    assert seen == list(range(512))
    assert defosc.verify_q_ha(0.9, dim=1024).passed
    assert defosc.verify_qp_ha(2.0, 1.5, dim=300).passed


def test_a_failing_xp_check_reads_its_pair_once_at_the_failing_level(monkeypatch):
    # the recipe forms Phi once over the route's lists, and reads the
    # pair's own h and g only at the level it cannot form, to name it
    calls = []

    def counted(make):
        def build(*args):
            pair = make(*args)

            def h(n):
                calls.append(("h", n))
                return pair.h(n)

            def g(n):
                calls.append(("g", n))
                return pair.g(n)

            return dataclasses.replace(pair, h=h, g=g)

        return build

    monkeypatch.setattr(structure, "hg_for_qp_ha", counted(structure.hg_for_qp_ha))
    monkeypatch.setattr(verify, "hg_for_two_sided", counted(verify.hg_for_two_sided))
    cases = [
        (lambda: defosc.verify_qp_ha(2.05, 0.5, dim=128),
         "structure function nonstd-qp(q=2.05,p=0.5) overflowed at n=127", 126),
        (lambda: verify_two_sided(2.05, 1.0, 0.2, dim=256),
         "structure function two-sided(qb=2.05,pb=1.0,mu=0.2) overflowed at n=248", 247),
    ]
    for check, message, level in cases:
        calls.clear()
        with pytest.raises(defosc.EvaluationOverflowError) as caught:
            check()
        assert str(caught.value) == message
        assert str(caught.value.__cause__).endswith(f"overflowed at n={level}")
        assert calls == [("h", level)]  # h(level) raises, so g(level) is not read


@pytest.mark.parametrize(
    "model,ratio",
    [
        (harmonic(), 1.0),
        (nonstd_qp(1.2, 0.9), 1.2 / 0.9),
        (custom_hg(hg_for_two_sided(1.1, 0.95, 0.3)), 1.1 / 0.95),
    ],
    ids=["harmonic", "nonstd-qp", "two-sided"],
)
def test_bands_are_the_oracle_off_diagonals(model, ratio):
    rep = build_xp(build_ladder(model, 32), ratio)
    oracle = dense_oracle.build_xp(dense_oracle.build_ladder(model, 32), ratio)
    zero = np.zeros_like(rep.ladder)
    for name, (below, above) in (
        ("a_plus", (rep.ladder, zero)),
        ("a_minus", (zero, rep.ladder)),
        ("x_op", rep.x),
        ("p_op", 1j * rep.p),
    ):
        matrix = np.diag(below, -1) + np.diag(above, 1)
        assert np.array_equal(matrix, getattr(oracle, name)), name


def _outcome(run):
    try:
        run()
    except Exception as exc:  # the outcome itself is under test
        return type(exc), str(exc)
    return None


DIM = 16


def _ladder(m, h=lambda n: 1.0, g=lambda n: 1.0):
    return m.build_ladder(custom_hg(HGPair(h=h, g=g)), DIM)


def _mismatched_dimension(m):
    rep = m.build_ladder(custom_hg(PAIR), 8)
    return m.verify_hg(dataclasses.replace(rep, dim=9), PAIR)


ERRORS = {
    "h(0) = 0": lambda m: _ladder(m, h=lambda n: 0.0 if n == 0 else 1.0),
    "h(dim-1) = 0": lambda m: _ladder(m, h=lambda n: 0.0 if n == DIM - 1 else 1.0),
    "negative phi": lambda m: _ladder(m, h=lambda n: -1.0),
    "recipe overflow": lambda m: m.verify_two_sided(2.0, 1.0, 0.3, dim=300),
    "closed-form overflow": lambda m: m.verify_qp_ha(2.05, 0.5, dim=256),
    "dimension mismatch": _mismatched_dimension,
    "margin = dim": lambda m: m.verify_q_ha(1.5, dim=8, margin=8),
    "margin > dim": lambda m: m.verify_two_sided(1.1, 0.95, 0.3, dim=8, margin=9),
    "dim < 2": lambda m: m.verify_two_sided(1.1, 1.0, 0.3, dim=1),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_errors_match_the_dense_oracle(case):
    banded = _outcome(lambda: ERRORS[case](defosc))
    assert banded is not None
    assert issubclass(banded[0], defosc.DeformedAlgebraError)
    assert banded == _outcome(lambda: ERRORS[case](dense_oracle))


def test_zero_g_is_a_plain_coefficient_on_both_paths():
    # the recipe never divides by g, so g(dim-1) = 0 builds a ladder
    pair = HGPair(h=lambda n: 1.0, g=lambda n: 0.0 if n == DIM - 1 else 1.0)
    banded, dense = (
        m.verify_hg(m.build_ladder(custom_hg(pair), DIM), pair, per_state=True)
        for m in (defosc, dense_oracle)
    )
    assert banded == dense
    assert banded.passed


def test_zero_h_at_the_dimension_is_never_consulted():
    def h(n):
        return 0.0 if n == DIM else 1.0

    assert _outcome(lambda: _ladder(defosc, h=h)) is None
    assert _outcome(lambda: _ladder(dense_oracle, h=h)) is None


def test_dimensions_beyond_dense_storage():
    # one dense complex matrix at this dim would take 160 GB
    assert verify_two_sided(1.0, 1.0, 0.0, dim=100_000).passed
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(
            ["verify", "--relation", "commutator-sf", "--model", "harmonic"]
            + ["--dim", "100000"]
        )
    assert code == 0
    assert out.getvalue().splitlines()[-1].endswith(",true")


def _fresh(probe: str):
    """The JSON a probe prints in a fresh interpreter that imports src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(result.stdout)


def test_import_loads_no_new_module():
    # the package namespace is lazy: no submodule, and so no numpy, loads
    loaded = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import defosc\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    third_party = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names)
    assert third_party == {"defosc"}
    assert [name for name in loaded if name.startswith("defosc.")] == []


def test_commands_without_bands_load_no_numpy():
    # sf, spectrum, limits and link compute on floats and Fractions; verify
    # builds bands, so it loads numpy (the control).  Only link runs the
    # exact linkage, so only it loads defosc.linkage
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from defosc.cli import main\n"
        "argvs = (\n"
        "    ['sf', '--model', 'arik-coon', '--q', '1.1'],\n"
        "    ['spectrum', '--model', 'two-sided-equal', '--qb', '1.2', '--pb', '0.9'],\n"
        "    ['limits'],\n"
        "    ['link', '--qb', '1.1', '--pb', '0.9', '--p', '1.1'],\n"
        "    ['verify', '--relation', 'q-ha', '--q', '1.1'],\n"
        ")\n"
        "loaded = []\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    loaded.append([name in sys.modules for name in ('numpy', 'defosc.linkage')])\n"
        "print(json.dumps(loaded))\n"
    )
    assert loaded == [
        [False, False], [False, False], [False, False], [False, True], [True, True]
    ]
