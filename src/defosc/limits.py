"""Limit and reduction checks tying the deformed families together.

Every deformation here degenerates into a simpler one when its
parameters approach their undeformed values; each check below measures
the worst deviation of such a reduction, at the limit point itself or at
parameters offset by 1e-8, where it must stay below the suite
tolerance, 1e-6 by default.  Each is computed through a float path that
a fault in defosc.structure would move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qp import relative_gap, require_nonnegative
from .structure import (
    StructureFunctionModel,
    arik_coon,
    biedenharn_macfarlane,
    chakrabarti_jagannathan,
    custom_hg,
    equal_hg_special_case,
    harmonic,
    hg_for_two_sided,
    jannussis_mu,
    nonstd_q,
    nonstd_qp,
    sf_table,
    spectrum,
    two_sided_equal_hg,
)

DEFAULT_LIMIT_TOLERANCE = 1e-6
PARAMETER_OFFSET = 1e-8

_QGRID = (0.5, 0.9, 1.1, 2.0)
_NMAX = 20


@dataclass(frozen=True)
class LimitCheck:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _check_qp_reduces_to_q_near_p_one() -> float:
    worst = 0.0
    for q in _QGRID:
        reference = sf_table(nonstd_q(q), _NMAX)  # one table for both p
        for p in (1.0 - PARAMETER_OFFSET, 1.0 + PARAMETER_OFFSET):
            worst = max(worst, *map(relative_gap, sf_table(nonstd_qp(q, p), _NMAX), reference))
    return worst


def _check_two_sided_mu_zero_near_ratio_one() -> float:
    # the mu = 0 pair evaluated through the recipe, against n/qb
    worst = 0.0
    for qb in _QGRID:
        for pb in (qb, qb / (1.0 + PARAMETER_OFFSET)):
            table = sf_table(custom_hg(hg_for_two_sided(qb, pb, 0.0)), _NMAX)
            for n, phi in enumerate(table):
                worst = max(worst, relative_gap(phi, n / qb))
    return worst


def _classical_models(offset: float) -> list[StructureFunctionModel]:
    q = 1.0 + offset
    return [
        harmonic(),
        arik_coon(q),
        biedenharn_macfarlane(q),
        chakrabarti_jagannathan(q, 1.0),
        chakrabarti_jagannathan(q, 1.0 / q),
        jannussis_mu(offset),
        nonstd_q(q),
        two_sided_equal_hg(q, 1.0),
    ]


def _check_classical_limit_catalog() -> float:
    worst = 0.0
    for offset in (0.0, PARAMETER_OFFSET, -PARAMETER_OFFSET):
        for model in _classical_models(offset):
            for n, phi in enumerate(sf_table(model, _NMAX)):
                worst = max(worst, relative_gap(phi, float(n)))
    return worst


def _check_qp_equal_parameters_scaled_harmonic() -> float:
    worst = 0.0
    for q in _QGRID:
        model = nonstd_qp(q, q)
        for n, phi in enumerate(sf_table(model, _NMAX)):
            worst = max(worst, relative_gap(phi, n / q))
        energies = spectrum(model, _NMAX)
        for n in range(_NMAX):
            worst = max(worst, relative_gap(energies[n + 1] - energies[n], 1.0 / q))
    return worst


def _check_equal_case_mu_vanishes_near_ratio_one() -> float:
    worst = 0.0
    for pb in _QGRID:
        mu_fn, _ = equal_hg_special_case(pb * (1.0 + PARAMETER_OFFSET), pb)
        for n in range(_NMAX + 1):
            worst = max(worst, abs(mu_fn(n)))
    return worst


_CHECKS = (
    ("qp-reduces-to-q-near-p-1", _check_qp_reduces_to_q_near_p_one),
    ("two-sided-mu-0-recipe-near-ratio-1", _check_two_sided_mu_zero_near_ratio_one),
    ("classical-limit-catalog", _check_classical_limit_catalog),
    ("qp-equal-parameters-scaled-harmonic", _check_qp_equal_parameters_scaled_harmonic),
    ("equal-case-mu-vanishes-near-ratio-1", _check_equal_case_mu_vanishes_near_ratio_one),
)


def run_limit_suite(tolerance: float = DEFAULT_LIMIT_TOLERANCE) -> list[LimitCheck]:
    """Run every reduction check and report per-check worst deviations."""
    require_nonnegative(tolerance=tolerance)
    results = []
    for name, check in _CHECKS:
        deviation = check()
        results.append(
            LimitCheck(
                name=name,
                max_deviation=deviation,
                tolerance=tolerance,
                passed=deviation <= tolerance,
            )
        )
    return results
