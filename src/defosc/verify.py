"""Residual verification of deformed commutation relations.

Each check builds (or receives) a truncated Fock realization, forms the
relation residual, and reports the maximum absolute entry over the
interior block, i.e. rows and columns 0..dim-1-margin.  The default
margin of 2 keeps truncation leakage (one level per ladder application,
two per operator product) out of the reported residual, so a correct
construction scores pure roundoff.  The q-ha, qp-ha and two-sided checks
are one relation, a X P - b P X = i (1 + mu H), on a realization whose X
and P fock.build_xp dresses by powers of one ratio; they differ only in
the model, the ratio, (a, b) and mu.  H is fock.hamiltonian's diagonal.

X, P and the ladder operators sit on the offsets -1 and +1, so every
term of a relation sits on the offsets -2, 0 and +2 and all other
entries are exact zeros.  A term is therefore held as a (3, dim) array
of bands indexed by row n, holding the entries (n, n-2), (n, n) and
(n, n+2); the X/P relations are purely imaginary and carried as their
imaginary parts.  A check costs O(dim) real arithmetic.

Roundoff is proportional to the size of the terms being cancelled, and
several structure functions grow exponentially with the level (already
Phi(62) ~ 2e18 for the Arik-Coon oscillator at q = 2, where the best
achievable cancellation leaves entries of order 5e2).  Residuals are
therefore normalized by the largest interior entry among the relation's
individual terms, floored at 1, before the tolerance comparison: for
relations whose terms stay of order one this changes nothing, and for
growing ones it keeps "pure roundoff" meaning what it says.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, double_range
from .fock import FockRep, build_ladder, build_xp, hamiltonian
from .qp import require_finite, require_nonnegative, require_nonnegative_int
from .report import ResidualReport
from .structure import (
    HGPair,
    StructureFunctionModel,
    custom_hg,
    hg_for_two_sided,
    nonstd_q,
    nonstd_qp,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MARGIN = 2


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bands of A B, for A and B given by the rows (A[n+1, n], A[n, n+1])."""
    (a_below, a_above), (b_below, b_above) = a, b
    bands = np.zeros((3, a_below.size + 1))
    bands[0, 2:] = a_below[1:] * b_below[:-1]
    bands[1, 1:] = a_below * b_above
    bands[1, :-1] += a_above * b_below
    bands[2, :-2] = a_above[:-1] * b_above[1:]
    return bands


def _diagonal(values: np.ndarray) -> np.ndarray:
    return np.stack([np.zeros_like(values), values, np.zeros_like(values)])


def _interior_report(
    relation: str,
    residual: np.ndarray,
    terms: list[np.ndarray],
    margin: int,
    tolerance: float,
    per_state: bool,
) -> ResidualReport:
    require_nonnegative_int(margin=margin)
    require_nonnegative(tolerance=tolerance)
    dim = residual.shape[1]
    keep = dim - margin
    if keep < 1:
        raise DomainError(f"margin {margin} leaves no interior block for dim {dim}")
    blocks = np.abs(np.stack([residual, *terms])[:, :, :keep])
    blocks[:, 2, keep - 2 :] = 0.0  # entries (n, n+2) with n + 2 >= keep
    scale = max(1.0, *(float(term.max()) for term in blocks[1:]))
    block = blocks[0] / scale
    states = list(enumerate(block.max(axis=0).tolist())) if per_state else None
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


def _ladder_products(rep: FockRep) -> tuple[np.ndarray, np.ndarray]:
    # a- a+ and a+ a-; each loses the level the truncation cuts
    zero = np.zeros_like(rep.ladder)
    a_minus, a_plus = (zero, rep.ladder), (rep.ladder, zero)
    return _product(a_minus, a_plus), _product(a_plus, a_minus)


def _xp_report(
    relation: str,
    model: StructureFunctionModel,
    ratio: float,
    xp_coeff: float,
    px_coeff: float,
    mu: float | Callable[[int], float] | None,
    dim: int,
    margin: int,
    tol: float,
    per_state: bool,
    scale: float = 1.0,
) -> ResidualReport:
    # xp_coeff Xs Ps - px_coeff Ps Xs - i rhs(N) on the realization of model
    # dressed by ratio, with Xs = scale X, Ps = scale P and rhs = 1 + mu H
    # (rhs = 1 when mu is None); rhs joins the normalizing terms (no change
    # when it is 1)
    rep = build_xp(build_ladder(model, dim), ratio)
    rhs = np.ones(dim)
    if callable(mu):
        mu = np.fromiter(map(mu, range(dim)), float, dim)
    if mu is not None:
        rhs += mu * hamiltonian(rep)
    x, p = scale * rep.x, scale * rep.p
    xp = xp_coeff * _product(x, p)
    px = px_coeff * _product(p, x)
    rhs = _diagonal(rhs)
    residual = xp - px - rhs
    return _interior_report(relation, residual, [xp, px, rhs], margin, tol, per_state)


def verify_hg(
    rep: FockRep,
    hg: HGPair,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    per_state: bool = False,
) -> ResidualReport:
    """Residual of h(N) a- a+ - g(N) a+ a- - 1 on the interior block; a power in
    h(n) or g(n) past double range raises EvaluationOverflowError naming the pair."""
    dim = rep.dim
    if rep.ladder.shape != (dim - 1,):
        raise DomainError("ladder matrices do not match the declared dimension")
    label = f"hg[{hg.label or 'custom'}]"
    with double_range(lambda: f"coefficients of {label} overflowed at dim={dim}"):
        h = np.fromiter(map(hg.h, range(dim)), float, dim)
        g = np.fromiter(map(hg.g, range(dim)), float, dim)
    raise_side, lower_side = _ladder_products(rep)
    raise_then_lower = h * raise_side
    lower_then_raise = g * lower_side
    residual = raise_then_lower - lower_then_raise - _diagonal(np.ones(dim))
    return _interior_report(
        label, residual, [raise_then_lower, lower_then_raise], margin, tol, per_state
    )


def verify_q_ha(
    q: float,
    dim: int = 32,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    check_q: float | None = None,
    per_state: bool = False,
) -> ResidualReport:
    """Check X P - q P X = i on the nonstandard single-parameter realization.

    check_q overrides the coefficient used in the checked relation only
    (negative controls); the realization itself is always built from q.
    """
    require_finite(check_q=check_q)
    cq = q if check_q is None else check_q
    label = f"q-ha(q={q},check_q={cq})"
    return _xp_report(label, nonstd_q(q), q, 1.0, cq, None, dim, margin, tol, per_state)


def verify_qp_ha(
    q: float,
    p: float,
    dim: int = 32,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    check_q: float | None = None,
    check_p: float | None = None,
    per_state: bool = False,
) -> ResidualReport:
    """Check p X P - q P X = i on the nonstandard two-parameter realization."""
    require_finite(check_q=check_q, check_p=check_p)
    cq = q if check_q is None else check_q
    cp = p if check_p is None else check_p
    label = f"qp-ha(q={q},p={p},check_q={cq},check_p={cp})"
    model = nonstd_qp(q, p)
    return _xp_report(label, model, q / p, cp, cq, None, dim, margin, tol, per_state)


def verify_two_sided(
    qb: float,
    pb: float,
    mu: float | Callable[[int], float],
    dim: int = 32,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    check_mu: float | Callable[[int], float] | None = None,
    alt_pairing: bool = False,
    per_state: bool = False,
) -> ResidualReport:
    """Check the two-sided relation in its ratio-scaled form.

    With Xs = sqrt(pb) X and Ps = sqrt(pb) P, the relation that the
    construction satisfies is

        Xs Ps - (qb/pb) Ps Xs = i (1 + mu * H),

    equivalently pb X P - qb P X = i (1 + mu * H), with H the diagonal
    Hamiltonian.  alt_pairing=True checks the transposed coefficient
    assignment qb X P - pb P X = i (1 + mu * H) instead, which fails for
    qb != pb; it is shipped so the failing pairing stays documented by a
    measurement rather than an assumption.  mu may be a constant or a
    per-level function, entering as a diagonal operator either way.
    """
    if not callable(check_mu):
        require_finite(check_mu=check_mu)
    model = custom_hg(hg_for_two_sided(qb, pb, mu))
    ratio = qb / pb
    coeffs = (ratio, 1.0) if alt_pairing else (1.0, ratio)
    tag = "alt-pairing" if alt_pairing else "ratio-pairing"
    mu_tag = "mu(n)" if callable(mu) else f"mu={mu}"
    label = f"two-sided(qb={qb},pb={pb},{mu_tag},{tag})"
    mu_used = mu if check_mu is None else check_mu
    scale = math.sqrt(pb)
    return _xp_report(
        label, model, ratio, *coeffs, mu_used, dim, margin, tol, per_state, scale
    )


def verify_commutator_sf(
    rep: FockRep,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    per_state: bool = False,
) -> ResidualReport:
    """Residual of [a-, a+] - diag(Phi(n+1) - Phi(n)) on the interior."""
    raise_side, lower_side = _ladder_products(rep)
    residual = raise_side - lower_side - _diagonal(rep.phi[1:] - rep.phi[:-1])
    return _interior_report(
        "commutator-sf", residual, [raise_side, lower_side], margin, tol, per_state
    )
