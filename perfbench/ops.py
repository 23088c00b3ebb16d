"""Seeded operation cycles of the three benchmark workloads.

A workload is a fixed cycle of operations.  The seed chooses every
parameter; it never chooses which kinds of operation run, how many, or
in which order, so a cycle costs the same on every seed and the shares
of each stratum are fixed:

* nominal -- inputs whose exact values sit well inside double range; the
  oracle's answer is required.
* range   -- inputs from the regions where ROADMAP item 3 documents
  defects (underflowing Phi under a growing dressing, float mu through
  q_and_pn_from_mu, float powers overflowing in the linkage check), and
  float mu_from_q near its pole at q = -1.  Every outcome is counted as
  measured; none is filtered out.
* domain  -- out-of-domain inputs that must raise DeformedAlgebraError
  (exit 2 on the command line).

Each operation calls the package through module attributes looked up at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import defosc
import defosc.cli

import oracle


@dataclass(frozen=True)
class Op:
    """One closed-loop call into the package and the oracle that judges it."""

    label: str
    stratum: str
    entry: str  # layer the call enters first
    run: Callable[[], object]
    check: Callable[[object], str]  # "" when the returned value is right


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str


def _draw(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 6)


def _verdict(expected: bool) -> Callable[[object], str]:
    def check(report) -> str:
        if report.passed == expected:
            return ""
        word = "PASS" if expected else "FAIL"
        return f"expected {word}, residual {report.max_abs_residual!r}"

    return check


def _api(label, stratum, entry, run, check=None) -> Op:
    return Op(label, stratum, entry, run, check or (lambda value: ""))


# --------------------------------------------------------------------------
# dense-verify
# --------------------------------------------------------------------------


class _LevelMu:
    """Per-level mu(n) = mu0 / (1 + n/64)."""

    def __init__(self, mu0: float):
        self.mu0 = mu0

    def __call__(self, n: int) -> float:
        return self.mu0 / (1.0 + n / 64.0)


def _dense_pair(kind: str, rng: random.Random, dim: int, slot: int, base: float) -> list[Op]:
    """A true construction and its negative control at one dimension."""
    tag = f"{kind} dim={dim}"
    if kind in ("two-sided", "two-sided-mu(n)"):
        pb = _draw(rng, 0.9, 1.1)
        qb = round(base * pb, 6)
        mu0 = _draw(rng, 0.1, 0.4)
        if kind == "two-sided":
            mu, control = mu0, {"check_mu": mu0 + 0.05}
        else:
            mu, control = _LevelMu(mu0), {"alt_pairing": True}
        return [
            _api(tag, "nominal", "verify",
                 lambda: defosc.verify_two_sided(qb, pb, mu, dim=dim), _verdict(True)),
            _api(tag + " control", "nominal", "verify",
                 lambda: defosc.verify_two_sided(qb, pb, mu, dim=dim, **control),
                 _verdict(False)),
        ]
    q = round(base * (1.0 + _draw(rng, -0.002, 0.002)), 6)
    if kind == "qp-ha":
        p = _draw(rng, 0.9, 1.1)
        q = round(q * p, 6)
        return [
            _api(tag, "nominal", "verify",
                 lambda: defosc.verify_qp_ha(q, p, dim=dim), _verdict(True)),
            _api(tag + " control", "nominal", "verify",
                 lambda: defosc.verify_qp_ha(q, p, dim=dim, check_q=q * 1.001),
                 _verdict(False)),
        ]
    if kind == "q-ha":
        return [
            _api(tag, "nominal", "verify",
                 lambda: defosc.verify_q_ha(q, dim=dim), _verdict(True)),
            _api(tag + " control", "nominal", "verify",
                 lambda: defosc.verify_q_ha(q, dim=dim, check_q=q * 1.001),
                 _verdict(False)),
        ]
    if kind == "hg":
        p = _draw(rng, 0.9, 1.1)
        q = round(q * p, 6)

        def run(check_q: float):
            pair = defosc.hg_for_qp_ha(q, p)
            rep = defosc.build_ladder(defosc.custom_hg(pair), dim)
            return defosc.verify_hg(rep, defosc.hg_for_qp_ha(check_q, p))

        return [
            _api(tag, "nominal", "verify", lambda: run(q), _verdict(True)),
            _api(tag + " control", "nominal", "verify", lambda: run(q * 1.001),
                 _verdict(False)),
        ]
    if kind == "commutator-sf":
        maker = (defosc.arik_coon, defosc.biedenharn_macfarlane, defosc.nonstd_q)[slot % 3]

        def run(phi_scale: float):
            rep = defosc.build_ladder(maker(q), dim)
            if phi_scale != 1.0:
                rep = replace(rep, phi=rep.phi * phi_scale)
            return defosc.verify_commutator_sf(rep)

        return [
            _api(f"{tag} {maker.__name__}", "nominal", "verify", lambda: run(1.0),
                 _verdict(True)),
            _api(f"{tag} {maker.__name__} control", "nominal", "verify",
                 lambda: run(1.001), _verdict(False)),
        ]
    raise ValueError(kind)


DENSE_KINDS = ("two-sided", "two-sided-mu(n)", "qp-ha", "q-ha", "hg", "commutator-sf")


def dense_verify(rng: random.Random, dims=(256, 512, 1024)) -> list[Op]:
    q_strong = _draw(rng, 2.0, 2.1)
    qb_strong = _draw(rng, 2.0, 2.1)
    mu = _draw(rng, 0.1, 0.4)
    q_mild = _draw(rng, 1.01, 1.05)
    ops = [
        # Phi underflows from n ~ 109 while the dressing Q**2n grows.
        _api("qp-ha q~2 p=0.5 dim=128", "range", "verify",
             lambda: defosc.verify_qp_ha(q_strong, 0.5, dim=128), _verdict(True)),
        _api("qp-ha q~2 p=0.5 dim=256", "range", "verify",
             lambda: defosc.verify_qp_ha(q_strong, 0.5, dim=256), _verdict(True)),
        _api("two-sided qb~2 dim=256", "range", "verify",
             lambda: defosc.verify_two_sided(qb_strong, 1.0, mu, dim=256), _verdict(True)),
        _api("two-sided dim=1", "domain", "verify",
             lambda: defosc.verify_two_sided(q_mild, 1.0, mu, dim=1)),
        _api("two-sided pb<0", "domain", "verify",
             lambda: defosc.verify_two_sided(q_mild, -1.0, mu, dim=16)),
        _api("q-ha q<0", "domain", "verify", lambda: defosc.verify_q_ha(-q_mild, dim=16)),
        _api("q-ha margin=dim", "domain", "verify",
             lambda: defosc.verify_q_ha(q_mild, dim=16, margin=16)),
    ]
    for index, kind in enumerate(DENSE_KINDS):
        for slot, dim in enumerate(dims):
            base = (1.01, 1.05)[(index + slot) % 2]
            pair = _dense_pair(kind, rng, dim, slot, base)
            # At the largest dimension a kind runs only its true construction
            # (even kinds) or only its control (odd kinds): the full pairs
            # there would stretch one cycle past 25 s on one core.
            ops += pair if dim != dims[-1] else [pair[index % 2]]
    return ops


# --------------------------------------------------------------------------
# cli-sweep
# --------------------------------------------------------------------------


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = defosc.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue())


def _cli(label: str, stratum: str, argv: list[str], check=None) -> Op:
    return Op(label, stratum, "cli", lambda: run_cli(argv), check or (lambda value: ""))


def _fmt_args(fmt: str) -> list[str]:
    return ["--format", "json"] if fmt == "json" else []


def _table_check(model: str, params: dict, n_max: int, fmt: str, column: str):
    def check(result: CliResult) -> str:
        if result.code != 0:
            return f"exit {result.code}"
        rows = oracle.parse_cli(result.out, fmt)
        phi = oracle.phi_table(model, params, n_max + (column == "energy"))
        if [row["n"] for row in rows] != list(range(n_max + 1)):
            return "rows do not cover n = 0..n_max"
        for row in rows:
            n = row["n"]
            exact = phi[n] if column == "phi" else (phi[n + 1] + phi[n]) / 2
            if not oracle.close(row[column], exact):
                return f"{column}({n}) = {row[column]!r}, oracle {oracle.mpmath.nstr(exact, 17)}"
        return ""

    return check


def _verify_check(expected: bool, fmt: str):
    def check(result: CliResult) -> str:
        if result.code != (0 if expected else 1):
            return f"exit {result.code}"
        if oracle.cli_verdict(result.out, fmt) != expected:
            return "report verdict disagrees with exit code"
        return ""

    return check


def _link_check(qb: float, pb: float, p: float, n_max: int, fmt: str):
    def check(result: CliResult) -> str:
        if result.code != 0:
            return f"exit {result.code}"
        return oracle.check_link_rows(qb, pb, p, n_max, oracle.parse_cli(result.out, fmt))

    return check


def _limits_check(result: CliResult) -> str:
    rows = oracle.parse_cli(result.out, "csv") if result.out else []
    if result.code != 0 or not rows or not all(row["pass"] for row in rows):
        return f"exit {result.code}, limit suite did not pass"
    return ""


# Model -> CLI parameters, drawn mild (near the undeformed point) or strong
# (ratio ~4, or ~1/4 when `invert`).
def _model_params(model: str, rng: random.Random, strong: bool, invert: bool = False) -> dict:
    def ratio() -> float:
        if not strong:
            return _draw(rng, 0.8, 1.25)
        value = _draw(rng, 3.6, 4.4)
        return round(1.0 / value, 6) if invert else value

    if model == "harmonic":
        return {}
    if model in ("arik-coon", "biedenharn-macfarlane", "nonstd-q"):
        return {"q": ratio()}
    if model in ("cj", "nonstd-qp"):
        p = _draw(rng, 0.8, 1.25)
        return {"q": round(ratio() * p, 6), "p": p}
    if model == "jannussis-mu":
        return {"mu_tilde": _draw(rng, 2.0, 5.0) if strong else _draw(rng, 0.0, 0.5)}
    if model == "two-sided-equal":
        pb = _draw(rng, 0.8, 1.25)
        return {"qb": round(ratio() * pb, 6), "pb": pb}
    raise ValueError(model)


def _param_args(params: dict) -> list[str]:
    args = []
    for key, value in params.items():
        args += ["--" + key.replace("_", "-"), repr(value)]
    return args


CLI_MODELS = (
    "harmonic", "arik-coon", "biedenharn-macfarlane", "cj",
    "jannussis-mu", "nonstd-q", "nonstd-qp", "two-sided-equal",
)


def cli_sweep(rng: random.Random) -> list[Op]:
    # Sizes (n_max, dim) and kinds are fixed per slot; the seed draws values.
    ops = []
    formats = ("csv", "json", "csv")
    for index, model in enumerate(CLI_MODELS):
        for strong in (False, True):
            fmt = formats[len(ops) % 3]
            params = _model_params(model, rng, strong, invert=index % 2 == 1)
            n_max = 16 + 3 * (2 * index + strong)
            argv = ["sf", "--model", model, *_param_args(params), "--n-max", str(n_max)]
            ops.append(_cli(f"sf {model} {'strong' if strong else 'mild'}", "nominal",
                            argv + _fmt_args(fmt),
                            _table_check(model, params, n_max, fmt, "phi")))
        fmt = formats[len(ops) % 3]
        params = _model_params(model, rng, strong=index % 2 == 1, invert=index % 4 == 3)
        n_max = 64 - 6 * index
        argv = ["spectrum", "--model", model, *_param_args(params), "--n-max", str(n_max)]
        ops.append(_cli(f"spectrum {model}", "nominal", argv + _fmt_args(fmt),
                        _table_check(model, params, n_max, fmt, "energy")))

    def above_one() -> float:
        return _draw(rng, 1.01, 1.2)

    def below_one() -> float:
        return _draw(rng, 0.85, 0.99)

    pb = _draw(rng, 0.9, 1.1)
    # (name, argv tail, dim).  Two-sided needs qb > pb: with mu > 0 and
    # qb < pb, h(n) turns negative, a true domain refusal.
    verify_argv = [
        ("q-ha", ["--q", repr(above_one())], 128),
        ("qp-ha", ["--q", repr(below_one()), "--p", repr(_draw(rng, 0.9, 1.1))], 96),
        ("qp-ha strong", ["--q", repr(_draw(rng, 1.9, 2.1)), "--p", "0.5"], 48),
        ("two-sided", ["--qb", repr(round(above_one() * pb, 6)), "--pb", repr(pb),
                       "--mu", repr(_draw(rng, 0.1, 0.4))], 64),
        ("hg q", ["--q", repr(below_one())], 112),
        ("hg qp", ["--q", repr(above_one()), "--p", repr(_draw(rng, 0.9, 1.1))], 80),
        ("hg two-sided", ["--qb", repr(above_one()), "--pb", "1.0",
                          "--mu", repr(_draw(rng, 0.1, 0.4))], 32),
        ("two-sided alt-pairing", ["--qb", repr(_draw(rng, 1.05, 1.2)), "--pb", "1.0",
                                   "--mu", repr(_draw(rng, 0.1, 0.4)), "--alt-pairing"], 24),
        ("commutator-sf cj", ["--model", "cj",
                              *_param_args(_model_params("cj", rng, strong=False))], 8),
    ]
    for name, extra, size in verify_argv:
        relation = name.split()[0]
        fmt = formats[len(ops) % 3]
        argv = ["verify", "--relation", relation, *extra, "--dim", str(size), *_fmt_args(fmt)]
        expected = "alt-pairing" not in name
        ops.append(_cli(f"verify {name}", "nominal", argv, _verify_check(expected, fmt)))

    for n_max in (8, 12):
        pb = _draw(rng, 0.8, 1.25)
        qb, p = round(pb * _draw(rng, 0.85, 1.04), 6), _draw(rng, *NOMINAL_P)
        fmt = formats[len(ops) % 3]
        argv = ["link", "--qb", repr(qb), "--pb", repr(pb), "--p", repr(p),
                "--n-max", str(n_max), *_fmt_args(fmt)]
        ops.append(_cli("link", "nominal", argv, _link_check(qb, pb, p, n_max, fmt)))
    ops.append(_cli("limits", "nominal", ["limits"], _limits_check))

    q_strong = _draw(rng, 2.0, 2.1)
    ops += [
        _cli("verify qp-ha q~2 p=0.5 dim=128", "range",
             ["verify", "--relation", "qp-ha", "--q", repr(q_strong), "--p", "0.5",
              "--dim", "128"], _verify_check(True, "csv")),
        _cli("verify two-sided qb~2 dim=240", "range",
             ["verify", "--relation", "two-sided", "--qb", repr(_draw(rng, 2.0, 2.1)),
              "--pb", "1", "--mu", repr(_draw(rng, 0.1, 0.4)), "--dim", "240"],
             _verify_check(True, "csv")),
    ]
    # The ROADMAP point: float mu cancels to a zero denominator at level 13.
    n_max = 14
    ops.append(_cli("link qb=2 pb=1 p=1 n_max=14", "range",
                    ["link", "--qb", "2", "--pb", "1", "--p", "1", "--n-max", str(n_max)],
                    _link_check(2.0, 1.0, 1.0, n_max, "csv")))

    q = repr(_draw(rng, 0.5, 2.0))
    ops += [
        _cli("sf q<0", "domain", ["sf", "--model", "nonstd-q", "--q", "-" + q]),
        _cli("sf missing --q", "domain", ["sf", "--model", "arik-coon"]),
        _cli("sf unknown model", "domain", ["sf", "--model", "no-such-model"]),
        _cli("sf jannussis 1+mu*n<=0", "domain",
             ["sf", "--model", "jannussis-mu", "--mu-tilde", repr(-_draw(rng, 0.6, 0.9))]),
        _cli("verify dim=1", "domain", ["verify", "--relation", "q-ha", "--q", q, "--dim", "1"]),
        _cli("link p<0", "domain", ["link", "--qb", q, "--pb", "1", "--p", "-" + q]),
    ]
    return ops


# --------------------------------------------------------------------------
# link-limits
# --------------------------------------------------------------------------


# Nominal linkage inputs keep the float columns well conditioned: Q**(4N)
# small against 2 p**-N (p_pow_n) and q away from the pole of mu_from_q at
# q = -1, which p**N -> 0 approaches.  Both edges are range ops below.
NOMINAL_P = (0.93, 1.0)


def _link_params(rng: random.Random, p_range=NOMINAL_P) -> tuple[float, float, float]:
    pb = _draw(rng, 0.8, 1.25)
    return round(pb * _draw(rng, 0.85, 1.04), 6), pb, _draw(rng, *p_range)


def _rows_check(qb: float, pb: float, p: float, n_max: int):
    return lambda rows: oracle.check_link_rows(qb, pb, p, n_max, rows)


def _consistent(report) -> str:
    return "" if report.passed else f"inconsistent, worst gap {report.max_abs_residual!r}"


LINK_TABLE_N_MAX = (8, 12, 16, 24, 32)
LINK_LEVELS = tuple(range(0, 33, 4)) + tuple(range(2, 33, 4)) + tuple(range(1, 33, 5))


def link_limits(rng: random.Random, table_n_max=LINK_TABLE_N_MAX) -> list[Op]:
    ops = []
    for n_max in table_n_max:
        qb, pb, p = _link_params(rng)
        ops.append(_api(f"link_table n_max={n_max}", "nominal", "linkage",
                        lambda qb=qb, pb=pb, p=p, n=n_max: defosc.link_table(qb, pb, p, n),
                        _rows_check(qb, pb, p, n_max)))
    for level in LINK_LEVELS:
        qb, pb, p = _link_params(rng)
        ops.append(_api(f"check_link_consistency level={level}", "nominal", "linkage",
                        lambda qb=qb, pb=pb, p=p, n=level:
                        defosc.check_link_consistency(qb, pb, p, n),
                        _consistent))
    ops.append(_api("run_limit_suite", "nominal", "limits", lambda: defosc.run_limit_suite(),
                    lambda checks: "" if all(c.passed for c in checks) else "a limit failed"))

    n_max1 = 20
    qb2, p2, n_max2 = _draw(rng, 1.4, 1.5), _draw(rng, 0.9, 0.99), 19
    qb3, level = _draw(rng, 1.95, 2.1), 28
    qb4, pb4, p4 = _link_params(rng, p_range=(0.45, 0.5))
    qb, pb, p = _link_params(rng)
    ops += [
        _api("link_table qb=2 pb=1 p=1 n_max=20", "range", "linkage",
             lambda: defosc.link_table(2.0, 1.0, 1.0, n_max1),
             _rows_check(2.0, 1.0, 1.0, n_max1)),
        # p_pow_n goes through float mu and loses digits to cancellation.
        _api("link_table Q~1.45 p~0.95 n_max=19", "range", "linkage",
             lambda: defosc.link_table(qb2, 1.0, p2, n_max2),
             _rows_check(qb2, 1.0, p2, n_max2)),
        _api("check_link_consistency qb~2 level=28", "range", "linkage",
             lambda: defosc.check_link_consistency(qb3, 1.0, 1.0, level), _consistent),
        # q -> -1 as p**N -> 0: float mu_from_q divides by cancellation.
        _api("link_table p~0.47 n_max=32", "range", "linkage",
             lambda: defosc.link_table(qb4, pb4, p4, 32), _rows_check(qb4, pb4, p4, 32)),
        _api("link_table p<0", "domain", "linkage", lambda: defosc.link_table(qb, pb, -p, 8)),
        _api("link_table pb<0", "domain", "linkage", lambda: defosc.link_table(qb, -pb, p, 8)),
        _api("link_table n_max<0", "domain", "linkage",
             lambda: defosc.link_table(qb, pb, p, -1)),
        _api("check_link_consistency p<0", "domain", "linkage",
             lambda: defosc.check_link_consistency(qb, pb, -p, 8)),
    ]
    return ops


def build(workload: str, seed: int, warmup: bool = False) -> list[Op]:
    """The operation cycle of a workload; warmup gives a small, cheap cycle."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-verify":
        return dense_verify(rng, dims=(16,) if warmup else (256, 512, 1024))
    if workload == "cli-sweep":
        return cli_sweep(rng)
    if workload == "link-limits":
        return link_limits(rng, table_n_max=(4, 8) if warmup else LINK_TABLE_N_MAX)
    raise ValueError(f"unknown workload {workload!r}")
