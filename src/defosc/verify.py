"""Residual verification of deformed commutation relations.

Each check builds (or receives) a truncated Fock realization, forms the
relation residual, and reports the maximum absolute entry over the
interior block, i.e. rows and columns 0..dim-1-margin.  The default
margin of 2 keeps truncation leakage (one level per ladder application,
two per operator product) out of the reported residual, so a correct
construction scores pure roundoff.  The q-ha, qp-ha and two-sided checks
are one relation, a X P - b P X = i (1 + mu H), on the realization of the
catalog's nonstd_q, nonstd_qp or two-sided recipe model, whose X and P are
dressed by powers of its pair's ratio; they differ only in the model,
(a, b) and mu, all read as floats.  H is fock.hamiltonian's diagonal.
verify_hg reads an hg_for_* pair's h and g as float arrays, else level by level.

X, P and the ladder operators sit on the offsets -1 and +1, so every
term of a relation sits on the offsets -2, 0 and +2 and all other
entries are exact zeros.  A term is therefore held as a (3, dim) array
of bands indexed by row n, holding the entries (n, n-2), (n, n) and
(n, n+2); the X/P relations are purely imaginary and carried as their
imaginary parts, all in one (terms + 1, 3, dim) buffer per check, its
residual first.  A check costs O(dim) real arithmetic.

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
from contextlib import suppress
from typing import Callable

import numpy as np

from .errors import DomainError, double_range
from .fock import (
    FockRep, _ratio_args, _ratio_arrays, _ratio_xp, _require_dim, _require_shape, hamiltonian
)
from .qp import require_finite, require_nonnegative, require_nonnegative_int, require_positive
from .report import ResidualReport
from .structure import (
    HGPair, StructureFunctionModel, custom_hg, hg_for_two_sided, nonstd_q, nonstd_qp
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MARGIN = 2


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bands of A B into the zeroed out, for A and B given by the rows
    (A[n+1, n], A[n, n+1])."""
    (a_below, a_above), (b_below, b_above) = a, b
    np.multiply(a_below[1:], b_below[:-1], out=out[0, 2:])
    np.multiply(a_below, b_above, out=out[1, 1:])
    out[1, :-1] += a_above * b_below
    np.multiply(a_above[:-1], b_above[1:], out=out[2, :-2])
    return out


def _arguments(dim: int, margin: int, tol: float) -> tuple[int, float]:
    # margin, with the interior block it leaves of dim, then tol: each check reads
    # them, after dim, before it reads anything else or builds anything
    margin = require_nonnegative_int(margin=margin)
    if dim - margin < 1:
        raise DomainError(f"margin {margin} leaves no interior block for dim {dim}")
    return margin, require_nonnegative(tolerance=tol)


def _interior_report(
    relation: str,
    residual: np.ndarray,
    terms: np.ndarray,
    margin: int,
    tolerance: float,
    per_state: bool,
) -> ResidualReport:
    # residual over the interior block against the largest interior entry of the
    # terms, margin and tolerance already read: one abs and one max pass
    keep = residual.shape[1] - margin
    blocks = np.empty((1 + len(terms), 3, keep))
    np.abs(residual[:, :keep], out=blocks[0])
    np.abs(np.asarray(terms)[:, :, :keep], out=blocks[1:])
    blocks[:, 2, keep - 2 :] = 0.0  # entries (n, n+2) with n + 2 >= keep
    worst, *largest = blocks.max(axis=(1, 2)).tolist()
    scale = max(1.0, *largest)
    states = list(enumerate((blocks[0].max(axis=0) / scale).tolist())) if per_state else None
    worst /= scale
    return ResidualReport(
        relation=relation,
        dim=residual.shape[1],
        margin=margin,
        max_abs_residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        per_state=states,
    )


def _band_report(relation, bands, diagonal, margin, tol, per_state) -> ResidualReport:
    # the report of a check's band buffer: bands[1] - bands[2] - diag(diagonal) into
    # bands[0], the residual of the terms bands[1:]
    np.subtract(bands[1], bands[2], out=bands[0])
    bands[0, 1] -= diagonal
    return _interior_report(relation, bands[0], bands[1:], margin, tol, per_state)


def _ladder_products(rep: FockRep, bands: np.ndarray) -> np.ndarray:
    # a- a+ into bands[1] and a+ a- into bands[2]; each loses the level the truncation cuts
    zero = np.zeros_like(rep.ladder)
    a_minus, a_plus = (zero, rep.ladder), (rep.ladder, zero)
    _product(a_minus, a_plus, bands[1])
    _product(a_plus, a_minus, bands[2])
    return bands


def _xp_report(
    relation: str,
    model: StructureFunctionModel,
    mu: float | Callable[[int], float] | None,
    coeffs: tuple[float, float],
    dim: int,
    margin: int,
    tol: float,
    per_state: bool,
    scale: float = 1.0,
) -> ResidualReport:
    # coeffs[0] Xs Ps - coeffs[1] Ps Xs - i rhs(N) on the realization of model, the
    # recipe over a ratio pair, dressed by its ratio Q (fock._ratio_xp), with
    # Xs = scale X, Ps = scale P and rhs = 1 + mu H (rhs = 1 when mu is None);
    # coeffs and mu are read as floats, and rhs joins the normalizing terms (no
    # change when it is 1); dim, margin and tol are read
    rep = _ratio_xp(model, dim)
    bands = np.zeros((4, 3, dim))  # the residual, then the terms Xs Ps, Ps Xs and rhs
    rhs = bands[3, 1]
    rhs += 1.0
    if mu is not None:
        values = np.fromiter(map(mu, range(dim)), float, dim) if callable(mu) else float(mu)
        rhs += values * hamiltonian(rep)
    x, p = scale * rep.x, scale * rep.p
    _product(x, p, bands[1])
    bands[1] *= float(coeffs[0])
    _product(p, x, bands[2])
    bands[2] *= float(coeffs[1])
    return _band_report(relation, bands, rhs, margin, tol, per_state)


def _coefficients(hg: HGPair, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # finite h(0..dim-1), g(0..dim-1): a ratio pair's fock._ratio_arrays where they raise
    # nothing (a per-level mu may raise anything) and are finite with no zero h (which h may
    # refuse), else every h, then every g, so an error is the one they raise, else OverflowError
    args = _ratio_args(hg)
    if args is not None:
        with suppress(Exception):
            h, g = _ratio_arrays(args, dim)
            if h.all() and np.isfinite(h).all() and np.isfinite(g).all():
                return h, g
    h = np.fromiter(map(hg.h, range(dim)), float, dim)
    g = np.fromiter(map(hg.g, range(dim)), float, dim)
    if not (np.isfinite(h).all() and np.isfinite(g).all()):
        raise OverflowError
    return h, g


def verify_hg(
    rep: FockRep,
    hg: HGPair,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    per_state: bool = False,
) -> ResidualReport:
    """Residual of h(N) a- a+ - g(N) a+ a- - 1 on the interior block; an h(n)
    or g(n) past double range, a power or an infinite product, raises
    EvaluationOverflowError naming the pair."""
    dim = _require_shape(rep).dim
    margin, tol = _arguments(dim, margin, tol)
    label = f"hg[{hg.label or 'custom'}]"
    with double_range(lambda: f"coefficients of {label} overflowed at dim={dim}"):
        h, g = _coefficients(hg, dim)
    bands = _ladder_products(rep, np.zeros((3, 3, dim)))
    bands[1] *= h
    bands[2] *= g
    return _band_report(label, bands, 1.0, margin, tol, per_state)


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
    dim = _require_dim(dim)
    margin, tol = _arguments(dim, margin, tol)
    cq = q if check_q is None else require_finite(check_q=check_q)
    label = f"q-ha(q={q},check_q={cq})"
    return _xp_report(label, nonstd_q(q), None, (1.0, cq), dim, margin, tol, per_state)


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
    dim = _require_dim(dim)
    margin, tol = _arguments(dim, margin, tol)
    cq = q if check_q is None else require_finite(check_q=check_q)
    cp = p if check_p is None else require_finite(check_p=check_p)
    label = f"qp-ha(q={q},p={p},check_q={cq},check_p={cp})"
    return _xp_report(label, nonstd_qp(q, p), None, (cp, cq), dim, margin, tol, per_state)


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
    per-level function, entering as a diagonal operator either way; a
    constant mu or check_mu enters 1 + mu H as its float.
    """
    dim = _require_dim(dim)
    margin, tol = _arguments(dim, margin, tol)
    if not (check_mu is None or callable(check_mu)):
        check_mu = require_finite(check_mu=check_mu)
    qb, pb = require_positive(qb=qb, pb=pb)  # before mu is read; the pair reads mu
    with suppress(Exception):  # one read of mu for the pair and 1 + mu H, unless it raises
        mu = list(map(mu, range(dim))).__getitem__ if callable(mu) else mu
    model = custom_hg(hg_for_two_sided(qb, pb, mu))
    ratio = qb / pb
    coeffs, tag = ((ratio, 1.0), "alt") if alt_pairing else ((1.0, ratio), "ratio")
    label = f"{model.label[:-1]},{tag}-pairing)"  # the pair's label, with the pairing
    rhs_mu = mu if check_mu is None else check_mu
    return _xp_report(label, model, rhs_mu, coeffs, dim, margin, tol, per_state, math.sqrt(pb))


def verify_commutator_sf(
    rep: FockRep,
    tol: float = DEFAULT_TOLERANCE,
    margin: int = DEFAULT_MARGIN,
    per_state: bool = False,
) -> ResidualReport:
    """Residual of [a-, a+] - diag(Phi(n+1) - Phi(n)) on the interior."""
    margin, tol = _arguments(_require_shape(rep).dim, margin, tol)
    bands = _ladder_products(rep, np.zeros((3, 3, rep.dim)))
    return _band_report("commutator-sf", bands, rep.phi[1:] - rep.phi[:-1], margin, tol, per_state)
