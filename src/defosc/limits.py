"""Limit and reduction checks tying the deformed families together.

Every deformation here degenerates into a simpler one when its
parameters approach their undeformed values.  Each check measures the
worst relative gap of such a reduction over levels 0..20, at the limit
point or 1e-8 from it, and must stay below the suite tolerance, 1e-6 by
default; q, qb and pb run over 0.5, 0.9, 1.1 and 2.

* qp-reduces-to-q-near-p-1: nonstd_qp(q, 1 -+ 1e-8) against nonstd_q(q);
* two-sided-mu-0-recipe-near-ratio-1: the recipe over
  hg_for_two_sided(qb, qb / (1 + 1e-8), 0) against n/qb;
* classical-limit-catalog: arik_coon, biedenharn_macfarlane, nonstd_q and
  two_sided_equal_hg at q = 1, 1 +- 1e-8, and jannussis_mu at 0, +-1e-8,
  against n;
* qp-equal-parameters-scaled-harmonic: nonstd_qp(q, q) against n/q, and
  its spectrum's spacing against 1/q, both from one table Phi(0..21);
* equal-case-mu-vanishes-near-ratio-1: |mu(n)| of equal_hg_special_case
  at qb = pb (1 + 1e-8).

Each table is built once per run and measured in one pass, through a
float path that a fault in defosc.structure would move.  A table that is
by construction, bit for bit, one measured against the same reference is
not built again: harmonic's Phi(n) is n itself, chakrabarti_jagannathan
at p = 1 and p = 1/q forms arik_coon's and biedenharn_macfarlane's
deformed integers, and hg_for_two_sided(q, q, 0) is nonstd_qp(q, q)'s pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import sub

from .qp import relative_gap, require_nonnegative
from .structure import (
    StructureFunctionModel, _energies, arik_coon, biedenharn_macfarlane, custom_hg,
    equal_hg_special_case, hg_for_two_sided, jannussis_mu, nonstd_q, nonstd_qp, sf_table,
    two_sided_equal_hg,
)

DEFAULT_LIMIT_TOLERANCE = 1e-6
PARAMETER_OFFSET = 1e-8

_QGRID = (0.5, 0.9, 1.1, 2.0)
_NMAX = 20
_LEVELS = range(_NMAX + 1)


@dataclass(frozen=True)
class LimitCheck:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _gap(model: StructureFunctionModel, reference: list[float]) -> float:
    # the largest relative gap of the model's table from reference, in one pass
    return max(map(relative_gap, sf_table(model, _NMAX), reference))


def _check_qp_reduces_to_q_near_p_one() -> float:
    near_one = (1.0 - PARAMETER_OFFSET, 1.0 + PARAMETER_OFFSET)
    gaps = []
    for q in _QGRID:
        reference = sf_table(nonstd_q(q), _NMAX)  # one table for both p
        gaps += (_gap(nonstd_qp(q, p), reference) for p in near_one)
    return max(gaps)


def _check_two_sided_mu_zero_near_ratio_one() -> float:
    gaps = []
    for qb in _QGRID:
        pair = hg_for_two_sided(qb, qb / (1.0 + PARAMETER_OFFSET), 0.0)
        gaps.append(_gap(custom_hg(pair), [n / qb for n in _LEVELS]))
    return max(gaps)


def _classical_models(offset: float) -> list[StructureFunctionModel]:
    q = 1.0 + offset
    return [arik_coon(q), biedenharn_macfarlane(q), jannussis_mu(offset), nonstd_q(q),
            two_sided_equal_hg(q, 1.0)]


def _check_classical_limit_catalog() -> float:
    reference = [float(n) for n in _LEVELS]
    offsets = (0.0, PARAMETER_OFFSET, -PARAMETER_OFFSET)
    return max(_gap(model, reference) for offset in offsets for model in _classical_models(offset))


def _check_qp_equal_parameters_scaled_harmonic() -> float:
    gaps = []
    for q in _QGRID:
        phi = sf_table(nonstd_qp(q, q), _NMAX + 1)  # Phi(0..20) and the spectrum's E(0..20)
        gaps.append(max(map(relative_gap, phi, [n / q for n in _LEVELS])))
        energies = _energies(phi)
        gaps.append(max(map(relative_gap, map(sub, energies[1:], energies), repeat(1.0 / q))))
    return max(gaps)


def _check_equal_case_mu_vanishes_near_ratio_one() -> float:
    mus = (equal_hg_special_case(pb * (1.0 + PARAMETER_OFFSET), pb)[0] for pb in _QGRID)
    return max(max(map(abs, map(mu, _LEVELS))) for mu in mus)


_CHECKS = (
    ("qp-reduces-to-q-near-p-1", _check_qp_reduces_to_q_near_p_one),
    ("two-sided-mu-0-recipe-near-ratio-1", _check_two_sided_mu_zero_near_ratio_one),
    ("classical-limit-catalog", _check_classical_limit_catalog),
    ("qp-equal-parameters-scaled-harmonic", _check_qp_equal_parameters_scaled_harmonic),
    ("equal-case-mu-vanishes-near-ratio-1", _check_equal_case_mu_vanishes_near_ratio_one),
)


def run_limit_suite(tolerance: float = DEFAULT_LIMIT_TOLERANCE) -> list[LimitCheck]:
    """Run every reduction check and report per-check worst deviations."""
    tolerance = require_nonnegative(tolerance=tolerance)
    deviations = [(name, check()) for name, check in _CHECKS]
    return [LimitCheck(name, value, tolerance, value <= tolerance) for name, value in deviations]
