import hashlib
import io
import json
import math
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defosc import DeformedAlgebraError, cli
from defosc.cli import MODELS, RELATIONS, main
from defosc.structure import (
    StructureFunctionModel,
    arik_coon,
    biedenharn_macfarlane,
    chakrabarti_jagannathan,
    harmonic,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    sf_table,
    spectrum,
    two_sided_equal_hg,
)
from link_oracle import assert_rows_are_rounded_exact_values
from sf_oracle import exact_nonstd_qp
from test_cli_pins import PINS, _run as run_argv  # run_argv keeps argparse's exits


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sf
# ---------------------------------------------------------------------------


def test_sf_harmonic_golden_csv():
    code, out, _ = run_cli("sf", "--model", "harmonic", "--n-max", "3")
    assert code == 0
    assert out == (
        "# command=sf\n"
        "# model=harmonic\n"
        "# n_max=3\n"
        "# format=csv\n"
        "n,phi\n"
        "0,0\n"
        "1,1\n"
        "2,2\n"
        "3,3\n"
    )


def test_sf_nonstd_q_first_level():
    code, out, _ = run_cli("sf", "--model", "nonstd-q", "--q", "2", "--n-max", "1")
    assert code == 0
    assert out.splitlines()[-1] == "1,0.20000000000000001"


def test_sf_json_round_trips():
    code, out, _ = run_cli(
        "sf", "--model", "nonstd-q", "--q", "2", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["model"] == "nonstd-q"
    assert doc["config"]["q"] == 2.0
    assert doc["rows"][1] == {"n": 1, "phi": 0.2}
    assert len(doc["rows"]) == 3


def test_sf_rejects_bad_domain():
    code, _, err = run_cli("sf", "--model", "nonstd-q", "--q", "-1")
    assert code == 2
    assert "q" in err


def test_sf_nonstd_qp_underflowing_power_exits_two():
    code, out, err = run_cli(
        "sf", "--model", "nonstd-qp", "--q", "1e-300", "--p", "1", "--n-max", "3"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.rstrip().endswith("overflowed at n=2")


def test_sf_nonstd_q_deep_levels_stay_normal_doubles():
    # at q = 2, Phi(217) ~ 4.06e-261 is a normal double; the recipe prints it
    code, out, _ = run_cli("sf", "--model", "nonstd-q", "--q", "2", "--n-max", "240")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines() if line[0].isdigit())
    n = 217
    exact = exact_nonstd_qp(n, 2, 1)
    assert abs(float(rows[str(n)]) - exact) <= 4 * n * 2.0**-52 * exact


def test_sf_names_the_missing_parameter():
    code, _, err = run_cli("sf", "--model", "nonstd-q")
    assert code == 2
    assert "--q" in err


def test_sf_rejects_unknown_model_before_computing():
    with pytest.raises(SystemExit) as exc:
        run_cli("sf", "--model", "not-a-model")
    assert exc.value.code == 2


# model -> (argv flags, "# key=value" config lines of sf --format csv,
# {omitted flag: stderr line}); exact strings that cli.MODELS must reproduce
MODEL_SURFACE = {
    "harmonic": ([], [], {}),
    "arik-coon": (["--q", "1.5"], ["# q=1.5"], {
        "--q": "error: model 'arik-coon' requires --q\n"}),
    "biedenharn-macfarlane": (["--q", "1.5"], ["# q=1.5"], {
        "--q": "error: model 'biedenharn-macfarlane' requires --q\n"}),
    "cj": (["--q", "1.5"], ["# q=1.5", "# p=1"], {
        "--q": "error: model 'cj' requires --q\n"}),
    "jannussis-mu": (["--mu-tilde", "0.25"], ["# mu_tilde=0.25"], {
        "--mu-tilde": "error: model 'jannussis-mu' requires --mu-tilde\n"}),
    "nonstd-q": (["--q", "1.5"], ["# q=1.5"], {
        "--q": "error: model 'nonstd-q' requires --q\n"}),
    "nonstd-qp": (["--q", "1.5", "--p", "0.5"], ["# q=1.5", "# p=0.5"], {
        "--q": "error: model 'nonstd-qp' requires --q\n",
        "--p": "error: model 'nonstd-qp' requires --p\n"}),
    "two-sided-equal": (["--qb", "1.5", "--pb", "0.75"], ["# qb=1.5", "# pb=0.75"], {
        "--qb": "error: model 'two-sided-equal' requires --qb\n",
        "--pb": "error: model 'two-sided-equal' requires --pb\n"}),
}


def test_model_surface_covers_the_model_table():
    assert list(MODEL_SURFACE) == list(MODELS)


@pytest.mark.parametrize("model", list(MODEL_SURFACE))
def test_model_config_echo_and_missing_flags(model):
    flags, config_lines, missing = MODEL_SURFACE[model]
    code, out, _ = run_cli("sf", "--model", model, *flags, "--n-max", "0",
                           "--format", "csv")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        "# command=sf", f"# model={model}", *config_lines, "# n_max=0", "# format=csv"
    ]
    for flag, stderr in missing.items():
        at = flags.index(flag)
        assert run_cli("sf", "--model", model, *flags[:at], *flags[at + 2:]) == (
            2, "", stderr
        )


def test_model_table_reaches_every_catalog_variant():
    reached = set()
    for constructor, flags in MODELS.values():
        model = constructor(*(1.5 if default is None else default for _, default in flags))
        assert isinstance(model, StructureFunctionModel)
        reached.add(constructor)
    assert reached == {
        harmonic,
        arik_coon,
        biedenharn_macfarlane,
        chakrabarti_jagannathan,
        jannussis_mu,
        nonstd_q,
        nonstd_qp,
        two_sided_equal_hg,
    }


@pytest.mark.parametrize("command", ["sf", "spectrum"])
def test_negative_n_max_exits_two(command):
    code, out, err = run_cli(command, "--model", "harmonic", "--n-max", "-1")
    assert (code, out, err) == (2, "", "error: n_max must be >= 0, got -1\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_harmonic():
    code, out, _ = run_cli("spectrum", "--model", "harmonic", "--n-max", "2")
    assert code == 0
    assert out.splitlines()[-3:] == ["0,0.5", "1,1.5", "2,2.5"]


def test_spectrum_scaled_harmonic_spacing():
    code, out, _ = run_cli(
        "spectrum", "--model", "nonstd-qp", "--q", "2", "--p", "2", "--n-max", "3"
    )
    assert code == 0
    assert out.splitlines()[-4:] == ["0,0.25", "1,0.75", "2,1.25", "3,1.75"]


def test_spectrum_two_sided_equal_ground_level():
    code, out, _ = run_cli(
        "spectrum", "--model", "two-sided-equal", "--qb", "2", "--pb", "1",
        "--n-max", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["energy"] == pytest.approx(8.0 / 45.0, rel=1e-15)


def _table_rows(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)["rows"]
    header, *lines = [line for line in out.splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), map(json.loads, line.split(",")))) for line in lines]


# every model, each flag log-uniform over 1e-6..1e6 (in domain, if not always in
# double range at n_max = 64), in both formats
@given(
    command=st.sampled_from(["sf", "spectrum"]),
    model=st.sampled_from(list(MODELS)),
    values=st.lists(st.floats(-6, 6).map(lambda e: 10.0**e), min_size=2, max_size=2),
    n_max=st.integers(0, 64),
    fmt=st.sampled_from(["csv", "json"]),
)
@settings(max_examples=200, deadline=None)
def test_each_table_reads_back_as_its_model_bit_for_bit(command, model, values, n_max, fmt):
    constructor, flags = MODELS[model]
    values = values[: len(flags)]
    argv = [arg for (flag, _), value in zip(flags, values) for arg in (f"--{flag}", repr(value))]
    code, out, err = run_cli(command, "--model", model, *argv, "--n-max", str(n_max),
                             "--format", fmt)
    table = sf_table if command == "sf" else spectrum
    if code != 0:
        assert (code, out) == (2, "") and re.fullmatch("error: [^\n]*\n", err), (code, err)
        with pytest.raises(DeformedAlgebraError):
            table(constructor(*values), n_max)
        return
    column = "phi" if command == "sf" else "energy"
    read = [(row["n"], float(row[column]).hex()) for row in _table_rows(out, fmt)]
    expected = table(constructor(*values), n_max)
    assert read == [(n, float(value).hex()) for n, value in enumerate(expected)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_exits_zero():
    code, out, _ = run_cli(
        "verify", "--relation", "q-ha", "--q", "1", "--dim", "16", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["pass"] is True
    assert row["max_abs_residual"] <= 1e-12


def test_verify_two_sided_mu_zero():
    code, out, _ = run_cli(
        "verify", "--relation", "two-sided", "--qb", "2", "--pb", "0.5",
        "--mu", "0", "--dim", "32", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["pass"] is True


def test_verify_hg_and_commutator_relations():
    code, out, _ = run_cli(
        "verify", "--relation", "hg", "--q", "2", "--dim", "16", "--format", "json"
    )
    assert code == 0
    code, out, _ = run_cli(
        "verify", "--relation", "commutator-sf", "--model", "arik-coon",
        "--q", "2", "--dim", "16", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["pass"] is True


def test_verify_unattainable_tolerance_exits_one():
    code, out, _ = run_cli(
        "verify", "--relation", "q-ha", "--q", "2", "--dim", "16",
        "--tolerance", "1e-30",
    )
    assert code == 1
    assert "false" in out


def test_verify_alt_pairing_exits_one_when_deformed():
    code, _, _ = run_cli(
        "verify", "--relation", "two-sided", "--qb", "2", "--pb", "1",
        "--mu", "0.3", "--alt-pairing",
    )
    assert code == 1


# ---------------------------------------------------------------------------
# link
# ---------------------------------------------------------------------------


def test_link_worked_row():
    code, out, _ = run_cli("link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max", "0")
    assert code == 0
    assert out.splitlines()[-2] == "n,q,mu_h_match,mu_g_match,mu_from_q,p_pow_n,consistent"
    assert out.splitlines()[-1] == "0,4.625,8,8,8,1,true"


def test_link_undeformed_rows():
    code, out, _ = run_cli(
        "link", "--qb", "1", "--pb", "1", "--p", "1", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["q"] == 1.0
        assert row["mu_h_match"] == 0.0
        assert row["consistent"] is True


def test_link_ratio_one_mu_column():
    # mu = 2 (qb - p**-N) when qb = pb
    code, out, _ = run_cli(
        "link", "--qb", "1.3", "--pb", "1.3", "--p", "2", "--n-max", "4",
        "--format", "json",
    )
    assert code == 0
    for row in json.loads(out)["rows"]:
        want = 2.0 * (1.3 - 2.0 ** (-row["n"]))
        assert row["mu_h_match"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "qb, pb, p, n_max",
    [
        # a float inversion loses the p-power term beyond the double
        # mantissa here and divides by cancellation noise: a false pole
        ("2", "0.5", "2", 8),
        ("2", "1", "1", 13),
    ],
)
def test_link_far_corner_prints_the_exact_table(qb, pb, p, n_max):
    code, out, err = run_cli(
        "link", "--qb", qb, "--pb", pb, "--p", p, "--n-max", str(n_max), "--format", "json"
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == list(range(n_max + 1))
    assert all(row["consistent"] for row in rows)
    assert_rows_are_rounded_exact_values(float(qb), float(pb), float(p), rows)


@pytest.mark.parametrize("flag", ["--qb", "--pb", "--p"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_link_non_finite_parameter_exits_two(flag, bad):
    argv = ["link", "--qb", "2", "--pb", "1", "--p", "1"]
    argv[argv.index(flag) + 1] = bad
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", f"error: parameter {flag[2:]} must be finite, got {bad}\n")


def test_link_overflow_exits_two():
    code, out, err = run_cli(
        "link", "--qb", "2", "--pb", "1", "--p", "0.0625", "--n-max", "260"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "level=256" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def test_limits_default_run_passes():
    code, out, _ = run_cli("limits", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["check"] for row in rows] == [
        "qp-reduces-to-q-near-p-1",
        "two-sided-mu-0-recipe-near-ratio-1",
        "classical-limit-catalog",
        "qp-equal-parameters-scaled-harmonic",
        "equal-case-mu-vanishes-near-ratio-1",
    ]
    assert all(row["pass"] for row in rows)


def test_limits_zero_tolerance_exits_one():
    code, _, _ = run_cli("limits", "--tolerance", "0")
    assert code == 1


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_out_writes_the_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        "sf", "--model", "harmonic", "--n-max", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().endswith("2,2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sf", "--model", "harmonic", "--n-max", "2"),
        ("spectrum", "--model", "arik-coon", "--q", "1.3", "--format", "json"),
        ("verify", "--relation", "two-sided", "--qb", "1.1", "--pb", "0.95",
         "--mu", "0.3", "--alt-pairing"),
        ("link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max", "3"),
        ("limits", "--tolerance", "0"),
    ],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path):
    code, out, err = run_cli(*argv)
    target = tmp_path / "out.txt"
    assert run_cli(*argv, "--out", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode()


def test_out_write_failure_exits_two_with_one_error_line(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("sf", "--model", "harmonic", "--out", str(target))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]*'{re.escape(str(target))}'\n", err)
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

MIXED_ARGV = [
    ["sf", "--model", "cj", "--q", "1.2", "--p", "0.7", "--n-max", "6"],
    ["spectrum", "--model", "arik-coon", "--q", "1.3", "--n-max", "4", "--format", "json"],
    ["verify", "--relation", "q-ha", "--q", "1.1", "--dim", "16"],
    ["verify", "--relation", "two-sided", "--qb", "2", "--pb", "1", "--mu", "0.3",
     "--alt-pairing"],
    ["link", "--qb", "1.1", "--pb", "0.9", "--p", "1.1", "--n-max", "4", "--format", "json"],
    ["limits", "--tolerance", "0"],
    ["sf", "--model", "nonstd-q", "--q", "-1"],
    ["sf", "--model", "not-a-model"],
    ["verify", "--relation", "hg", "--qb", "1.1", "--dim", "8", "--format", "json"],
    ["spectrum", "--help"],
]


def test_one_parser_serves_a_mixed_sequence_in_either_order():
    first = []
    for argv in MIXED_ARGV:
        cli._parser.cache_clear()
        first.append(run_argv(argv))
    assert [code for code, _, _ in first] == [0, 0, 0, 1, 0, 1, 2, 2, 2, 0]
    assert [run_argv(argv) for argv in MIXED_ARGV] == first
    assert [run_argv(argv) for argv in reversed(MIXED_ARGV)] == first[::-1]
    assert cli._parser.cache_info().misses == 1


def test_commands_reach_layer_functions_rebound_after_the_parser_is_built(monkeypatch):
    # a tracer or a monkeypatch rebinds a layer function in every module that
    # holds it, after the process's one parser exists; each command must still
    # reach the rebound function
    from defosc import linkage, structure, verify

    assert run_cli("sf", "--model", "harmonic", "--n-max", "1")[0] == 0
    built = cli._parser.cache_info().misses
    calls = Counter()
    modules = [sys.modules[name] for name in sorted(sys.modules) if name.split(".")[0] == "defosc"]
    for fn in (structure.sf_table, structure.spectrum, linkage.link_table, verify.verify_q_ha):
        def counting(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for module in modules:
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    for name, argv in (
        ("sf_table", ["sf", "--model", "harmonic", "--n-max", "2"]),
        ("spectrum", ["spectrum", "--model", "harmonic", "--n-max", "2"]),
        ("link_table", ["link", "--qb", "1.1", "--pb", "0.9", "--p", "1.1", "--n-max", "2"]),
        ("verify_q_ha", ["verify", "--relation", "q-ha", "--q", "1.1", "--dim", "8"]),
    ):
        before = calls[name]
        assert run_cli(*argv)[0] == 0
        assert calls[name] == before + 1, name
    assert cli._parser.cache_info().misses == built


def test_the_cached_parser_wraps_usage_at_the_width_it_formats_with(monkeypatch):
    argv = "verify --relation nope"
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run_argv(argv.split())
    monkeypatch.setenv("COLUMNS", "80")
    wide = run_argv(argv.split())
    assert cli._parser.cache_info().misses == 1
    assert narrow[0] == wide[0] == 2 and narrow != wide
    assert hashlib.sha256(repr(wide).encode()).hexdigest() == PINS[argv]


def test_numeric_cells_round_trip_exactly():
    _, out, _ = run_cli("sf", "--model", "cj", "--q", "1.7", "--p", "0.3", "--n-max", "6")
    from defosc import chakrabarti_jagannathan, sf_eval

    model = chakrabarti_jagannathan(1.7, 0.3)
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            continue
        n, phi = line.split(",")
        assert float(phi) == sf_eval(model, int(n))


@pytest.mark.parametrize(
    "argv",
    [
        ("sf", "--model", "nonstd-qp", "--q", "1.7", "--p", "0.6", "--n-max", "12"),
        ("sf", "--model", "jannussis-mu", "--mu-tilde", "0.3", "--format", "json"),
        ("spectrum", "--model", "biedenharn-macfarlane", "--q", "1.3"),
        ("verify", "--relation", "qp-ha", "--q", "2", "--p", "0.5", "--format", "json"),
        ("link", "--qb", "1.1", "--pb", "0.9", "--p", "1.1", "--n-max", "5"),
        ("limits",),
    ],
)
def test_repeated_runs_are_byte_identical(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    assert first[0] == 0


# ---------------------------------------------------------------------------
# the relation table and impossible parameters
# ---------------------------------------------------------------------------

MISSING_FLAG = [
    (["q-ha"], "relation 'q-ha' requires --q"),
    (["qp-ha", "--p", "0.9"], "relation 'qp-ha' requires --q"),
    (["qp-ha", "--q", "1.2"], "relation 'qp-ha' requires --p"),
    (["two-sided", "--pb", "1"], "relation 'two-sided' requires --qb"),
    (["two-sided", "--qb", "1.1"], "relation 'two-sided' requires --pb"),
    (["hg"], "relation 'hg' requires --q"),
    (["hg", "--p", "0.9"], "relation 'hg' requires --q"),
    (["hg", "--pb", "1"], "relation 'hg' with two-sided parameters requires --qb"),
    (["hg", "--qb", "1.1"], "relation 'hg' with two-sided parameters requires --pb"),
    (["commutator-sf"], "this command requires --model"),
    (["commutator-sf", "--model", "nonstd-qp", "--q", "1.2"],
     "model 'nonstd-qp' requires --p"),
]


def test_relation_table_keeps_the_relation_order():
    assert list(RELATIONS) == ["q-ha", "qp-ha", "two-sided", "hg", "commutator-sf"]
    assert {argv[0] for argv, _ in MISSING_FLAG} == set(RELATIONS)


@pytest.mark.parametrize("argv, message", MISSING_FLAG)
def test_each_relation_names_its_missing_flag(argv, message):
    assert run_cli("verify", "--relation", *argv, "--dim", "8") == (
        2, "", f"error: {message}\n"
    )


@pytest.mark.parametrize(
    "argv, parameter",
    [
        ("verify --relation q-ha --q 1.1 --tolerance nan", "tolerance"),
        ("verify --relation q-ha --q 1.1 --tolerance -1", "tolerance"),
        ("verify --relation q-ha --q 1.1 --margin -1", "margin"),
        ("link --qb 1.1 --pb 1 --p 1 --tolerance nan", "tolerance"),
        ("limits --tolerance nan", "tolerance"),
        ("verify --relation two-sided --qb 1.1 --pb 1 --mu nan", "mu"),
        ("verify --relation two-sided --qb 1.1 --pb 1 --mu inf", "mu"),
        ("sf --model jannussis-mu --mu-tilde inf", "mu_tilde"),
        ("sf --model arik-coon --q inf --n-max 3", "q"),
        ("verify --relation q-ha --q inf", "q"),
        ("verify --relation two-sided --qb 1.1 --pb inf", "pb"),
    ],
)
def test_impossible_parameters_exit_two_naming_the_parameter(argv, parameter):
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: (parameter )?{parameter} must be [^\n]*\n", err)


def _echo(argv: str) -> list[str]:
    code, out, _ = run_cli(*argv.split())
    assert code == 0
    return [line for line in out.splitlines() if line.startswith("#")]


@pytest.mark.parametrize(
    "argv, echo",
    [
        ("verify --relation q-ha --q 1.1 --p 3 --mu-tilde 0.2 --dim 8",
         ["relation=q-ha", "q=1.1000000000000001"]),
        ("verify --relation qp-ha --q 1.2 --p 0.9 --qb 2 --model harmonic --dim 8",
         ["relation=qp-ha", "q=1.2", "p=0.90000000000000002"]),
        ("verify --relation two-sided --qb 1.1 --pb 1 --q 3 --mu-tilde 0.2 --dim 8",
         ["relation=two-sided", "qb=1.1000000000000001", "pb=1", "mu=0",
          "alt_pairing=false"]),
        ("verify --relation hg --q 0.9 --dim 8", ["relation=hg", "q=0.90000000000000002"]),
        ("verify --relation hg --qb 1.1 --pb 1 --q 1.3 --mu 0.2 --dim 8",
         ["relation=hg", "qb=1.1000000000000001", "pb=1", "mu=0.20000000000000001"]),
        ("verify --relation commutator-sf --model harmonic --q 2 --mu-tilde 0.2 --dim 8",
         ["relation=commutator-sf", "model=harmonic"]),
        ("verify --relation commutator-sf --model jannussis-mu --mu-tilde 0.2 --q 2 "
         "--dim 8",
         ["relation=commutator-sf", "model=jannussis-mu", "mu_tilde=0.20000000000000001"]),
    ],
)
def test_verify_echoes_only_the_flags_its_relation_reads(argv, echo):
    tail = ["dim=8", "margin=2", "tolerance=1e-10", "format=csv"]
    assert _echo(argv) == [f"# {item}" for item in ["command=verify", *echo, *tail]]


# ---------------------------------------------------------------------------
# the command's own parser, and a table formatted in one pass
# ---------------------------------------------------------------------------

ROUTE_ARGV = [
    [], ["nope"], ["-h"], ["--he"], ["--", "sf"], ["-x", "sf"],
    ["sf", "--model=harmonic", "--n-max=3"],
    ["sf", "--mod", "nonstd-q", "--q", "1.1", "--n", "4", "--form", "json"],
    ["sf", "--model", "harmonic", "--he"],
    ["sf", "--model", "harmonic", "-h", "--bogus"],
    ["verify", "-h"],
    ["sf", "--", "--model", "harmonic"],
    ["limits", "--", "0"],
    ["sf", "--model", "harmonic", "--n-max", "2", "--n-max", "3"],
    ["sf", "--model", "harmonic", "--bogus", "1"],
    ["sf", "--model", "harmonic", "--n-max", "2", "extra", "more"],
    ["limits", "extra"],
    ["link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max=2", "--tol", "0"],
    ["sf", "--model"], ["sf", "--n-max", "x"], ["verify", "--relation", "q-ha"],
    ["SF", "--model", "harmonic"],
]


@pytest.mark.parametrize("argv", ROUTE_ARGV, ids=" ".join)
def test_a_commands_own_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    # main parses a command's argv with that command's parser; the full
    # parser (here the only route, with no command's parser to hand) gives
    # the same exit code, stdout and stderr on every argv
    monkeypatch.setenv("COLUMNS", "80")
    own = run_argv(argv)
    parser, _ = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: (parser, {}))
    assert run_argv(argv) == own


def test_the_command_parsers_are_held_with_the_one_parser():
    cli._parser.cache_clear()
    parser, commands = cli._parser()
    assert list(commands) == ["sf", "spectrum", "verify", "link", "limits"]
    assert all(command.prog == f"defosc {name}" for name, command in commands.items())
    for argv in (["sf", "--model=harmonic"], ["limits", "--t", "0"], ["verify", "-h"], ["nope"]):
        run_argv(argv)
    assert cli._parser() == (parser, commands) and cli._parser.cache_info().misses == 1


def _cell_reference(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _json_reference(objects: list[dict], pad: str) -> str:
    names = [f"{pad}  {json.dumps(key)}: " for key in objects[0]]
    return f",\n{pad}".join(
        "{\n"
        + ",\n".join(
            name + (json.dumps(value) if isinstance(value, str) else _cell_reference(value))
            for name, value in zip(names, row.values())
        )
        + f"\n{pad}}}"
        for row in objects
    )


def _render_reference(config: dict, rows: list[dict], fmt: str) -> str:
    # the per-cell rendering the one-pass render replaced
    if fmt == "json":
        echo, table = _json_reference([config], "  "), _json_reference(rows, "    ")
        return f'{{\n  "config": {echo},\n  "rows": [\n    {table}\n  ]\n}}\n'
    lines = [f"# {key}={_cell_reference(val)}" for key, val in config.items()]
    lines.append(",".join(rows[0]))
    lines += (",".join(map(_cell_reference, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.8e308, -math.inf,
                     math.nan, 1.7976931348623157e308, 0.1]),
)
_INTS = st.one_of(st.integers(-2**1100, 2**1100), st.integers(-5, 5))
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "%", "%s", "%d %%", "a,b", "Phi Φ(n) é", "漢\n"]),
)
# a column's cells: one kind each, or int, float and bool mixed
_COLUMN_CELLS = st.sampled_from([
    _FLOATS, _INTS, st.booleans(), _TEXT, _FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.none(),
    st.lists(st.integers(), max_size=2), st.one_of(_INTS, _FLOATS, st.booleans()),
])


@st.composite
def _tables(draw):
    keys = draw(st.lists(st.one_of(_TEXT, st.just("n")), max_size=4, unique=True))
    kinds = [draw(_COLUMN_CELLS) for _ in keys]
    size = draw(st.integers(1, 6))
    columns = [[draw(kind) for _ in range(size)] for kind in kinds]
    return [dict(zip(keys, cells)) for cells in zip(*columns)] or [{}] * size


@settings(max_examples=300, deadline=None)
@given(_tables(), _tables(), st.sampled_from(["csv", "json"]))
def test_a_table_formatted_in_one_pass_is_its_cells_formatted_one_by_one(config, rows, fmt):
    assert cli._render(config[0], rows, fmt) == _render_reference(config[0], rows, fmt)
