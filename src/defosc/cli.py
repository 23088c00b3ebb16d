"""Command-line front end.

Subcommands: sf (structure-function table), spectrum (energy levels),
verify (relation residual report), link (per-level parameter linkage),
limits (reduction suite).  Output is CSV (configuration echoed as
leading # comment lines) or JSON ({"config": ..., "rows": ...}); every
numeric cell is rendered with 17 significant digits so values
round-trip exactly and repeated runs are byte-identical.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parameter-domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DeformedAlgebraError, DomainError
from .fock import build_ladder
from .limits import run_limit_suite
from .linkage import link_table
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
from .verify import (
    verify_commutator_sf,
    verify_hg,
    verify_q_ha,
    verify_qp_ha,
    verify_two_sided,
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

RELATION_CHOICES = ("q-ha", "qp-ha", "two-sided", "hg", "commutator-sf")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {_json_value(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_json_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, (bool, int, float)):
        return _fmt(value)
    return json.dumps(value)


def _render(config: dict, header: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_value({"config": config, "rows": rows}, 0) + "\n"
    lines = [f"# {key}={_fmt(val)}" for key, val in config.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _require(args: argparse.Namespace, names: list[str], context: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise DomainError(f"{context} requires --{name}")


def _build_model(args: argparse.Namespace) -> tuple[StructureFunctionModel, dict]:
    """The model named by --model, and its config echo."""
    if args.model is None:
        raise DomainError("this command requires --model")
    constructor, flags = MODELS[args.model]
    values = {}
    for flag, default in flags:
        key = flag.replace("-", "_")
        values[key] = default if getattr(args, key) is None else getattr(args, key)
        if values[key] is None:
            raise DomainError(f"model '{args.model}' requires --{flag}")
    return constructor(*values.values()), {"model": args.model, **values}


def _cmd_sf(args: argparse.Namespace) -> int:
    model, model_config = _build_model(args)
    config = {"command": "sf", **model_config}
    config.update({"n_max": args.n_max, "format": args.format})
    rows = [{"n": n, "phi": phi} for n, phi in enumerate(sf_table(model, args.n_max))]
    _emit(_render(config, ["n", "phi"], rows, args.format), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    model, model_config = _build_model(args)
    config = {"command": "spectrum", **model_config}
    config.update({"n_max": args.n_max, "format": args.format})
    energies = spectrum(model, args.n_max)
    rows = [{"n": n, "energy": e} for n, e in enumerate(energies)]
    _emit(_render(config, ["n", "energy"], rows, args.format), args.out)
    return 0


def _verify_report(args: argparse.Namespace):
    relation = args.relation
    if relation == "q-ha":
        _require(args, ["q"], "relation 'q-ha'")
        return verify_q_ha(args.q, dim=args.dim, tol=args.tolerance, margin=args.margin)
    if relation == "qp-ha":
        _require(args, ["q", "p"], "relation 'qp-ha'")
        return verify_qp_ha(
            args.q, args.p, dim=args.dim, tol=args.tolerance, margin=args.margin
        )
    if relation == "two-sided":
        _require(args, ["qb", "pb"], "relation 'two-sided'")
        return verify_two_sided(
            args.qb,
            args.pb,
            args.mu,
            dim=args.dim,
            tol=args.tolerance,
            margin=args.margin,
            alt_pairing=args.alt_pairing,
        )
    if relation == "hg":
        if args.qb is not None or args.pb is not None:
            _require(args, ["qb", "pb"], "relation 'hg' with two-sided parameters")
            pair = hg_for_two_sided(args.qb, args.pb, args.mu)
        else:
            _require(args, ["q"], "relation 'hg'")
            q, p = args.q, args.p
            pair = hg_for_q_ha(q) if p is None else hg_for_qp_ha(q, p)
        rep = build_ladder(custom_hg(pair), args.dim)
        return verify_hg(rep, pair, tol=args.tolerance, margin=args.margin)
    if relation == "commutator-sf":
        rep = build_ladder(_build_model(args)[0], args.dim)
        return verify_commutator_sf(rep, tol=args.tolerance, margin=args.margin)
    raise DomainError(f"unknown relation {relation!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    report = _verify_report(args)
    config = {"command": "verify", "relation": args.relation}
    for key in ("model", "q", "p", "qb", "pb"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    if args.relation in ("two-sided", "hg"):
        config["mu"] = args.mu
    if args.mu_tilde is not None:
        config["mu_tilde"] = args.mu_tilde
    if args.relation == "two-sided":
        config["alt_pairing"] = args.alt_pairing
    config.update(
        {
            "dim": args.dim,
            "margin": args.margin,
            "tolerance": args.tolerance,
            "format": args.format,
        }
    )
    row = report.as_dict()
    _emit(_render(config, list(row.keys()), [row], args.format), args.out)
    return 0 if report.passed else 1


def _cmd_link(args: argparse.Namespace) -> int:
    config = {
        "command": "link",
        "qb": args.qb,
        "pb": args.pb,
        "p": args.p,
        "n_max": args.n_max,
        "tolerance": args.tolerance,
        "format": args.format,
    }
    rows = link_table(args.qb, args.pb, args.p, args.n_max, tol=args.tolerance)
    header = ["n", "q", "mu_h_match", "mu_g_match", "mu_from_q", "p_pow_n", "consistent"]
    _emit(_render(config, header, rows, args.format), args.out)
    return 0 if all(row["consistent"] for row in rows) else 1


def _cmd_limits(args: argparse.Namespace) -> int:
    config = {
        "command": "limits",
        "tolerance": args.tolerance,
        "format": args.format,
    }
    checks = run_limit_suite(tolerance=args.tolerance)
    rows = [
        {
            "check": c.name,
            "max_deviation": c.max_deviation,
            "tolerance": c.tolerance,
            "pass": c.passed,
        }
        for c in checks
    ]
    header = ["check", "max_deviation", "tolerance", "pass"]
    _emit(_render(config, header, rows, args.format), args.out)
    return 0 if all(c.passed for c in checks) else 1


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defosc",
        description="Deformed Heisenberg algebras: structure functions, "
        "spectra, relation verification, parameter linkage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sf = sub.add_parser("sf", help="tabulate Phi(n)")
    _add_model_options(sf)
    sf.add_argument("--n-max", type=int, default=10)
    _add_output_options(sf)
    sf.set_defaults(run=_cmd_sf)

    sp = sub.add_parser("spectrum", help="tabulate E(n) = (Phi(n+1)+Phi(n))/2")
    _add_model_options(sp)
    sp.add_argument("--n-max", type=int, default=10)
    _add_output_options(sp)
    sp.set_defaults(run=_cmd_spectrum)

    ver = sub.add_parser("verify", help="relation residual report")
    ver.add_argument("--relation", choices=RELATION_CHOICES, required=True)
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

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DeformedAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
