import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

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
    two_sided_equal_hg,
)
from link_oracle import assert_rows_are_rounded_exact_values


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
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag[2:] in err


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
    assert len(rows) >= 8
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
