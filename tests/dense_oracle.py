"""Dense reference realization, kept as the oracle of the banded core.

This is the original dense implementation: every operator a complex
dim x dim matrix, relations formed by dense products, and the Phi table
filled level by level through sf_eval.  It is O(dim**3) and exists only
so tests can check the banded package code against it entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from defosc.errors import DomainError, NegativeStructureFunctionError
from defosc.qp import require_positive
from defosc.structure import (
    HGPair,
    StructureFunctionModel,
    custom_hg,
    hg_for_two_sided,
    nonstd_q,
    nonstd_qp,
    sf_eval,
)
from defosc.verify import DEFAULT_MARGIN, DEFAULT_TOLERANCE, ResidualReport


@dataclass(frozen=True)
class DenseRep:
    dim: int
    phi: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    n_op: np.ndarray
    x_op: np.ndarray | None = None
    p_op: np.ndarray | None = None


def build_ladder(model: StructureFunctionModel, dim: int) -> DenseRep:
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    phi = np.array([sf_eval(model, n) for n in range(dim + 1)], dtype=float)
    negative = np.nonzero(phi < 0)[0]
    if negative.size:
        level = int(negative[0])
        raise NegativeStructureFunctionError(
            f"Phi({level}) = {phi[level]} < 0 for {model.label}; "
            "ladder entries need real square roots"
        )
    roots = np.sqrt(phi[1:dim])
    a_plus = np.diag(roots, -1).astype(complex)
    a_minus = np.diag(roots, 1).astype(complex)
    n_op = np.diag(np.arange(dim)).astype(complex)
    return DenseRep(dim=dim, phi=phi, a_plus=a_plus, a_minus=a_minus, n_op=n_op)


def _diagonal_of(func: Callable[[int], float], dim: int) -> np.ndarray:
    return np.diag([func(n) for n in range(dim)]).astype(complex)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def build_xp(rep: DenseRep, ratio: float) -> DenseRep:
    # X = f(N) a- + g(N) a+ and P = i (f(N) a+ - g(N) a-) with
    # f = ratio**n / sqrt(2) and g = ratio**(2n) / sqrt(2)
    require_positive(ratio=ratio)
    f_mat = _diagonal_of(lambda n: ratio**n * _INV_SQRT2, rep.dim)
    g_mat = _diagonal_of(lambda n: ratio ** (2 * n) * _INV_SQRT2, rep.dim)
    x_op = f_mat @ rep.a_minus + g_mat @ rep.a_plus
    p_op = 1j * (f_mat @ rep.a_plus - g_mat @ rep.a_minus)
    return replace(rep, x_op=x_op, p_op=p_op)


def hamiltonian(rep: DenseRep) -> np.ndarray:
    return np.diag(0.5 * (rep.phi[1:] + rep.phi[:-1])).astype(complex)


def _interior_report(relation, residual, terms, margin, tolerance, per_state):
    dim = residual.shape[0]
    keep = dim - margin
    if keep < 1:
        raise DomainError(f"margin {margin} leaves no interior block for dim {dim}")
    scale = 1.0
    for term in terms:
        scale = max(scale, float(np.abs(term[:keep, :keep]).max()))
    block = np.abs(residual[:keep, :keep]) / scale
    states = [(n, float(block[n].max())) for n in range(keep)] if per_state else None
    worst = float(block.max())
    return ResidualReport(
        relation=relation,
        dim=dim,
        margin=margin,
        max_abs_residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        per_state=states,
    )


def verify_hg(rep: DenseRep, hg: HGPair, tol=DEFAULT_TOLERANCE, margin=DEFAULT_MARGIN,
              per_state=False) -> ResidualReport:
    dim = rep.dim
    if rep.a_plus.shape != (dim, dim) or rep.a_minus.shape != (dim, dim):
        raise DomainError("ladder matrices do not match the declared dimension")
    h_mat = np.diag([hg.h(n) for n in range(dim)]).astype(complex)
    g_mat = np.diag([hg.g(n) for n in range(dim)]).astype(complex)
    raise_then_lower = h_mat @ (rep.a_minus @ rep.a_plus)
    lower_then_raise = g_mat @ (rep.a_plus @ rep.a_minus)
    residual = raise_then_lower - lower_then_raise - np.eye(dim)
    label = f"hg[{hg.label or 'custom'}]"
    return _interior_report(
        label, residual, [raise_then_lower, lower_then_raise], margin, tol, per_state
    )


def verify_q_ha(q, dim=32, tol=DEFAULT_TOLERANCE, margin=DEFAULT_MARGIN, check_q=None,
                per_state=False) -> ResidualReport:
    rep = build_xp(build_ladder(nonstd_q(q), dim), q)
    cq = q if check_q is None else check_q
    xp = rep.x_op @ rep.p_op
    px = cq * (rep.p_op @ rep.x_op)
    residual = xp - px - 1j * np.eye(dim)
    return _interior_report(
        f"q-ha(q={q},check_q={cq})", residual, [xp, px], margin, tol, per_state
    )


def verify_qp_ha(q, p, dim=32, tol=DEFAULT_TOLERANCE, margin=DEFAULT_MARGIN,
                 check_q=None, check_p=None, per_state=False) -> ResidualReport:
    rep = build_xp(build_ladder(nonstd_qp(q, p), dim), q / p)
    cq = q if check_q is None else check_q
    cp = p if check_p is None else check_p
    xp = cp * (rep.x_op @ rep.p_op)
    px = cq * (rep.p_op @ rep.x_op)
    residual = xp - px - 1j * np.eye(dim)
    return _interior_report(
        f"qp-ha(q={q},p={p},check_q={cq},check_p={cp})", residual, [xp, px], margin, tol,
        per_state,
    )


def verify_two_sided(qb, pb, mu, dim=32, tol=DEFAULT_TOLERANCE, margin=DEFAULT_MARGIN,
                     check_mu=None, alt_pairing=False, per_state=False) -> ResidualReport:
    pair = hg_for_two_sided(qb, pb, mu)
    rep = build_xp(build_ladder(custom_hg(pair), dim), qb / pb)
    scale = math.sqrt(pb)
    xs = scale * rep.x_op
    ps = scale * rep.p_op
    ratio = qb / pb
    mu_used = mu if check_mu is None else check_mu
    if callable(mu_used):
        mu_mat = np.diag([mu_used(n) for n in range(dim)]).astype(complex)
    else:
        mu_mat = mu_used * np.eye(dim, dtype=complex)
    rhs = 1j * (np.eye(dim) + mu_mat @ hamiltonian(rep))
    if alt_pairing:
        xp = ratio * (xs @ ps)
        px = ps @ xs
    else:
        xp = xs @ ps
        px = ratio * (ps @ xs)
    residual = xp - px - rhs
    tag = "alt-pairing" if alt_pairing else "ratio-pairing"
    mu_tag = "mu(n)" if callable(mu) else f"mu={mu}"
    label = f"two-sided(qb={qb},pb={pb},{mu_tag},{tag})"
    return _interior_report(label, residual, [xp, px, rhs], margin, tol, per_state)


def verify_commutator_sf(rep: DenseRep, tol=DEFAULT_TOLERANCE, margin=DEFAULT_MARGIN,
                         per_state=False) -> ResidualReport:
    raise_side = rep.a_minus @ rep.a_plus
    lower_side = rep.a_plus @ rep.a_minus
    expected = np.diag(rep.phi[1:] - rep.phi[:-1]).astype(complex)
    residual = raise_side - lower_side - expected
    return _interior_report(
        "commutator-sf", residual, [raise_side, lower_side], margin, tol, per_state
    )
