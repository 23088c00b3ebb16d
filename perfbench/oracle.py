"""Independent oracles for every benchmark operation.

Structure-function tables are evaluated in mpmath at 50 digits from the
printed closed forms (or, for the equal-coefficient two-sided model, from
its defining sum Phi(n) = sum_{j<n} 1/h(j)); linkage rows are compared
with the exact Fraction values of the matching formulas.  Verification
verdicts are known by construction: a true construction must PASS and a
negative control must FAIL.  Nothing here imports defosc.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
from mpmath import mpf

mpmath.mp.dps = 50

# Relative tolerance of every value comparison; the package's own default
# relation tolerance.
RTOL = 1e-10
# A double cannot resolve a value below the smallest normal number, so an
# exact value that small may come back as a subnormal or as zero.
ABS_FLOOR = 2.2250738585072014e-308


def _qp(m: int, q, p):
    if q == p:
        return m * q ** (m - 1) if m else mpf(0)
    return (q**m - p**m) / (q - p)


def _nonstd_qp(n: int, q, p):
    # Second printed form, written directly in q and p.
    if n == 0:
        return mpf(0)
    prefactor = 2 * q ** (-n) * p ** (5 * n - 3)
    denominator = (q ** (2 * n - 2) + p ** (2 * n - 2)) * (q ** (2 * n) + p ** (2 * n))
    return prefactor / denominator * (1 + _qp(2 * n - 1, q, p) / (q * p) ** (n - 1))


def phi_table(model: str, params: dict, n_max: int) -> list:
    """Phi(0..n_max) of a CLI model at 50 digits."""
    get = {k: mpf(v) for k, v in params.items() if v is not None}
    if model == "two-sided-equal":
        qb, pb = get["qb"], get["pb"]
        ratio = qb / pb
        table, total = [mpf(0)], mpf(0)
        for j in range(n_max):
            h = pb * ratio ** (2 * j) * ((ratio + 1) + ratio ** (2 * j - 2) * (ratio**5 + 1)) / 4
            total += 1 / h
            table.append(total)
        return table
    rows = []
    for n in range(n_max + 1):
        if model == "harmonic":
            value = mpf(n)
        elif model == "arik-coon":
            value = _qp(n, get["q"], mpf(1))
        elif model == "biedenharn-macfarlane":
            value = _qp(n, get["q"], 1 / get["q"])
        elif model == "cj":
            value = _qp(n, get["q"], get.get("p", mpf(1)))
        elif model == "jannussis-mu":
            value = n / (1 + get["mu_tilde"] * n)
        elif model == "nonstd-q":
            value = _nonstd_qp(n, get["q"], mpf(1))
        elif model == "nonstd-qp":
            value = _nonstd_qp(n, get["q"], get["p"])
        else:
            raise ValueError(f"no oracle for model {model!r}")
        rows.append(value)
    return rows


def close(value: float, exact) -> bool:
    return abs(mpf(value) - exact) <= RTOL * abs(exact) + ABS_FLOOR


def close_scaled(value: float, exact) -> bool:
    """Gap relative to max(1, |exact|), the package's own linkage measure."""
    return abs(mpf(value) - exact) <= RTOL * max(1, abs(exact))


def link_row(qb: float, pb: float, p: float, level: int) -> dict:
    """Exact Fraction values of one linkage-table row."""
    big_q, big_p, const_p = Fraction(qb), Fraction(pb), Fraction(p)
    ratio = big_q / big_p
    n = level
    q = -1 + Fraction(1, 2) * big_p * const_p**n * ratio ** (2 * n) * (
        1 + ratio + ratio ** (2 * n - 2) * (1 + ratio**5)
    )
    mu = big_q * ratio ** (2 * n) * (1 + ratio ** (2 * n + 2)) - 2 * const_p ** (-n)
    return {"q": q, "mu": mu, "p_pow_n": const_p**n}


def check_link_rows(qb: float, pb: float, p: float, n_max: int, rows: list) -> str:
    """Empty string when every row matches its exact value, else the reason."""
    if len(rows) != n_max + 1:
        return f"{len(rows)} rows for n_max={n_max}"
    for row in rows:
        n = row["n"]
        exact = link_row(qb, pb, p, n)
        if not row["consistent"]:
            return f"level {n} reported inconsistent"
        if not close_scaled(row["q"], _mp(exact["q"])):
            return f"level {n}: q={row['q']!r}, exact {mpmath.nstr(_mp(exact['q']), 17)}"
        for key in ("mu_h_match", "mu_g_match", "mu_from_q"):
            if not close_scaled(row[key], _mp(exact["mu"])):
                return f"level {n}: {key}={row[key]!r}, exact {mpmath.nstr(_mp(exact['mu']), 17)}"
        if not close(row["p_pow_n"], _mp(exact["p_pow_n"])):
            return f"level {n}: p_pow_n={row['p_pow_n']!r}, exact {mpmath.nstr(_mp(exact['p_pow_n']), 17)}"
    return ""


def _mp(value: Fraction):
    return mpf(value.numerator) / value.denominator


def _cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_cli(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI table (sf, spectrum, link, limits) in either format."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    header = lines[0].split(",")
    return [dict(zip(header, map(_cell, line.split(",")))) for line in lines[1:]]


def cli_verdict(text: str, fmt: str) -> bool:
    """The pass field of a verify report; the CSV relation label holds commas."""
    if fmt == "json":
        return json.loads(text)["rows"][0]["pass"]
    return _cell(text.splitlines()[-1].rsplit(",", 1)[1])
