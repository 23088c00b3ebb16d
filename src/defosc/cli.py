"""Command-line front end.

Subcommands: sf (structure-function table), spectrum (energy levels),
verify (relation residual report), link (per-level parameter linkage),
limits (reduction suite).  Each command returns its config echo, rows
and verdict; main alone renders them, writes the text to --out or stdout
and picks the exit code.  A table's header is its first row's keys, and
every row has those keys in that order.  Output is CSV (configuration
echoed as leading # comment lines) or JSON ({"config": ..., "rows": ...}).
A table's rows are one printf-style row format in one % operation: a column
of floats gets %.17g (17 significant digits, so values round-trip exactly),
one of ints %d, any other %s over each cell's text; runs are byte-identical.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage, parameter-domain or --out write error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain, repeat
from operator import add
from pathlib import Path

# fock and verify (numpy), linkage and limits are imported by the commands
# that use them, so sf and spectrum load none of them
from .errors import DeformedAlgebraError, DomainError
from .structure import (
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
    hg_for_q_ha,
    hg_for_qp_ha,
    hg_for_two_sided,
    custom_hg,
)

# model name -> (constructor, ((flag, default), ...)); the flags are the
# constructor's positional arguments, echoed in the config as flag=value.
# A None default makes the flag required.
MODELS = {
    "harmonic": (harmonic, ()),
    "arik-coon": (arik_coon, (("q", None),)),
    "biedenharn-macfarlane": (biedenharn_macfarlane, (("q", None),)),
    "cj": (chakrabarti_jagannathan, (("q", None), ("p", 1.0))),
    "jannussis-mu": (jannussis_mu, (("mu-tilde", None),)),
    "nonstd-q": (nonstd_q, (("q", None),)),
    "nonstd-qp": (nonstd_qp, (("q", None), ("p", None))),
    "two-sided-equal": (two_sided_equal_hg, (("qb", None), ("pb", None))),
}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g") if isinstance(value, float) else str(value)


_SPECS = {float: "%.17g", int: "%d"}  # a column's spec by the exact type of all its values


def _cells(rows: list[dict], cell) -> tuple[list[str], tuple]:
    # each column's spec, once from its values' exact types, and all cells in one tuple
    flat = list(chain.from_iterable(map(dict.values, rows)))
    width, specs = len(rows[0]), []
    for j in range(width):
        kinds = set(map(type, column := flat[j::width]))
        specs.append(spec := _SPECS.get(kinds.pop(), "%s") if len(kinds) == 1 else "%s")
        if spec == "%s":
            flat[j::width] = map(cell, column)
    return specs, tuple(flat)


def _json_objects(objects: list[dict], pad: str) -> str:
    # flat objects with the first one's keys, braces at the indent pad, in one % operation
    specs, cells = _cells(objects, lambda v: json.dumps(v) if isinstance(v, str) else _cell(v))
    names = (f"{pad}  {json.dumps(key)}: ".replace("%", "%%") for key in objects[0])
    row = "{\n" + ",\n".join(map(add, names, specs)) + f"\n{pad}}}"
    return f",\n{pad}".join(repeat(row, len(objects))) % cells


def _render(config: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        echo, table = _json_objects([config], "  "), _json_objects(rows, "    ")
        return f'{{\n  "config": {echo},\n  "rows": [\n    {table}\n  ]\n}}\n'
    lines = [f"# {key}={_cell(val)}" for key, val in config.items()]
    lines.append(",".join(rows[0]))
    specs, cells = _cells(rows, _cell)
    lines.append("\n".join(repeat(",".join(specs), len(rows))) % cells)
    return "\n".join(lines) + "\n"


def _require(values: dict, names: tuple[str, ...], context: str) -> None:
    for name in names:
        if values[name.replace("-", "_")] is None:
            raise DomainError(f"{context} requires --{name}")


def _build_model(args: argparse.Namespace) -> tuple[StructureFunctionModel, dict]:
    """The model named by --model, and its config echo."""
    _require(vars(args), ("model",), "this command")
    constructor, flags = MODELS[args.model]
    values = {}
    for flag, default in flags:
        key = flag.replace("-", "_")
        values[key] = default if getattr(args, key) is None else getattr(args, key)
    _require(values, tuple(flag for flag, _ in flags), f"model {args.model!r}")
    return constructor(*values.values()), {"model": args.model, **values}


def _cmd_table(args: argparse.Namespace):
    # looked up here, not held by the parser: _parser outlives a rebinding (a tracer's)
    column, table = ("phi", sf_table) if args.command == "sf" else ("energy", spectrum)
    model, config = _build_model(args)
    config["n_max"] = args.n_max
    rows = [{"n": n, column: value} for n, value in enumerate(table(model, args.n_max))]
    return config, rows, True


def _hg_flags(args: argparse.Namespace) -> tuple[str, ...]:
    return ("qb", "pb", "mu") if args.qb is not None or args.pb is not None else ("q", "p")


def _verify_hg(verify, args: argparse.Namespace):
    from .fock import build_ladder

    if "qb" in _hg_flags(args):
        _require(vars(args), ("qb", "pb"), "relation 'hg' with two-sided parameters")
        pair = hg_for_two_sided(args.qb, args.pb, args.mu)
    else:
        _require(vars(args), ("q",), "relation 'hg'")
        pair = hg_for_q_ha(args.q) if args.p is None else hg_for_qp_ha(args.q, args.p)
    rep = build_ladder(custom_hg(pair), args.dim)
    return verify.verify_hg(rep, pair, tol=args.tolerance, margin=args.margin)


def _verify_commutator_sf(verify, args: argparse.Namespace):
    from .fock import build_ladder

    rep = build_ladder(_build_model(args)[0], args.dim)
    return verify.verify_commutator_sf(rep, tol=args.tolerance, margin=args.margin)


# relation name -> (flags it reads, check(verify, args) -> ResidualReport); the
# flags are required, and echoed when given.  The flags hg and commutator-sf
# read depend on the flags given: a function of args names them, and their
# checks require them.  The checks are given the verify module and look its
# functions (and fock's) up when they run, so a rebinding of those modules'
# names (perfbench's tracer) reaches them.
RELATIONS = {
    "q-ha": (
        ("q",),
        lambda v, a: v.verify_q_ha(a.q, dim=a.dim, tol=a.tolerance, margin=a.margin),
    ),
    "qp-ha": (
        ("q", "p"),
        lambda v, a: v.verify_qp_ha(a.q, a.p, dim=a.dim, tol=a.tolerance, margin=a.margin),
    ),
    "two-sided": (
        ("qb", "pb", "mu", "alt-pairing"),
        lambda v, a: v.verify_two_sided(
            a.qb, a.pb, a.mu, dim=a.dim, tol=a.tolerance, margin=a.margin,
            alt_pairing=a.alt_pairing,
        ),
    ),
    "hg": (_hg_flags, _verify_hg),
    "commutator-sf": (
        lambda a: ("model", *(flag for flag, _ in MODELS[a.model][1])),
        _verify_commutator_sf,
    ),
}


def _cmd_verify(args: argparse.Namespace):
    from . import verify

    flags, check = RELATIONS[args.relation]
    if callable(flags):
        report, flags = check(verify, args), flags(args)
    else:
        _require(vars(args), flags, f"relation {args.relation!r}")
        report = check(verify, args)
    config = {"relation": args.relation}
    for key in (flag.replace("-", "_") for flag in flags):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    config.update(dim=args.dim, margin=args.margin, tolerance=args.tolerance)
    return config, [report.as_dict()], report.passed


def _cmd_link(args: argparse.Namespace):
    from .linkage import link_table

    rows = link_table(args.qb, args.pb, args.p, args.n_max, tol=args.tolerance)
    config = {key: getattr(args, key) for key in ("qb", "pb", "p", "n_max", "tolerance")}
    return config, rows, all(row["consistent"] for row in rows)


def _cmd_limits(args: argparse.Namespace):
    from .limits import run_limit_suite

    checks = run_limit_suite(tolerance=args.tolerance)
    # a LimitCheck's fields, in order, under their column names
    names = ("check", "max_deviation", "tolerance", "pass")
    rows = [dict(zip(names, vars(c).values())) for c in checks]
    return {"tolerance": args.tolerance}, rows, all(c.passed for c in checks)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=tuple(MODELS), default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--qb", type=float, default=None)
    parser.add_argument("--pb", type=float, default=None)
    parser.add_argument("--mu-tilde", type=float, default=None)


def _build() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed Heisenberg algebras: structure functions, "
        "spectra, relation verification, parameter linkage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("sf", "tabulate Phi(n)"),
        ("spectrum", "tabulate E(n) = (Phi(n+1)+Phi(n))/2"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_model_options(cmd)
        cmd.add_argument("--n-max", type=int, default=10)
        _add_output_options(cmd)
        cmd.set_defaults(run=_cmd_table)

    ver = sub.add_parser("verify", help="relation residual report")
    ver.add_argument("--relation", choices=tuple(RELATIONS), required=True)
    _add_model_options(ver)
    ver.add_argument("--mu", type=float, default=0.0)
    ver.add_argument("--dim", type=int, default=32)
    ver.add_argument("--margin", type=int, default=2)
    ver.add_argument("--tolerance", type=float, default=1e-10)
    ver.add_argument(
        "--alt-pairing",
        action="store_true",
        help="check the transposed two-sided coefficient assignment (exploratory)",
    )
    _add_output_options(ver)
    ver.set_defaults(run=_cmd_verify)

    link = sub.add_parser("link", help="per-level parameter linkage table")
    link.add_argument("--qb", type=float, required=True)
    link.add_argument("--pb", type=float, required=True)
    link.add_argument("--p", type=float, required=True)
    link.add_argument("--n-max", type=int, default=8)
    link.add_argument("--tolerance", type=float, default=1e-10)
    _add_output_options(link)
    link.set_defaults(run=_cmd_link)

    lim = sub.add_parser("limits", help="reduction and limit suite")
    lim.add_argument("--tolerance", type=float, default=1e-6)
    _add_output_options(lim)
    lim.set_defaults(run=_cmd_limits)

    for name, command in sub.choices.items():  # the namespace a command's parser gives names it
        command.set_defaults(command=name)
    return parser, sub.choices  # and each command's own parser, by name


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


_parser = cache(_build)


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command's argv goes to that command's parser; the full parser answers
    # the rest (help, a missing or unknown command, a token the command leaves)
    own = commands.get(argv[0]) if argv else None
    args, left = own.parse_known_args(argv[1:]) if own else (None, True)
    if left:
        args = parser.parse_args(argv)
    try:
        config, rows, passed = args.run(args)
    except DeformedAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = {"command": args.command, **config, "format": args.format}
    text = _render(config, rows, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
