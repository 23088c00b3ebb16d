"""Truncated Fock-space realizations, stored entry by entry.

Ladder operators act as a+ |n> = sqrt(Phi(n+1)) |n+1> and
a- |n> = sqrt(Phi(n)) |n-1>; position and momentum are ladder
combinations dressed by powers of one ratio,
X = f(N) a- + g(N) a+ and P = i (f(N) a+ - g(N) a-) with
f(n) = ratio**n / sqrt(2) and g(n) = ratio**(2n) / sqrt(2).  Each is a
function of N times ladder operators, so it lives on the offsets -1 and
+1 only; those O(dim) entries are the only form in which the package
holds an operator.  A function of N scales the entries of the row it
acts on, which reproduces F(N) a(+/-) = a(+/-) F(N +/- 1) automatically.
The Hamiltonian is diagonal and held as its diagonal.  Truncation
artifacts live in the top two levels only; the verification module
restricts checks to the interior accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeStructureFunctionError, double_range
from .qp import require_nonnegative_int, require_positive
from .structure import (
    StructureFunctionModel,
    _coefficient,
    _recipe_levels,
    hg_for_qp_ha,
    hg_for_two_sided,
    sf_table,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FockRep:
    """Truncated realization of one deformed oscillator.

    phi holds Phi(0..dim), one entry beyond the truncation so the
    Hamiltonian diagonal (Phi(n+1) + Phi(n))/2 is exact at n = dim - 1.
    ladder holds <n+1|a+|n> = <n|a-|n+1> = sqrt(Phi(n+1)), n < dim - 1,
    apart from phi so that a tampered phi table stays detectable.
    build_xp fills x with the rows <n+1|X|n> and <n|X|n+1>, and p likewise
    for P / i; both are None before build_xp.
    """

    dim: int
    phi: np.ndarray
    ladder: np.ndarray
    x: np.ndarray | None = None
    p: np.ndarray | None = None


def build_ladder(model: StructureFunctionModel, dim: int) -> FockRep:
    """Build the dim-dimensional ladder realization from one sf_table pass."""
    _require_dim(dim)
    return _ladder(model, sf_table(model, dim))


def _require_dim(dim: int) -> None:
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    require_nonnegative_int(dim=dim)


def _ladder(model: StructureFunctionModel, table: list[float]) -> FockRep:
    # the realization of Phi(0..dim) = table, which must not be negative
    phi = np.array(table, dtype=float)
    negative = np.nonzero(phi < 0)[0]
    if negative.size:
        level = int(negative[0])
        raise NegativeStructureFunctionError(
            f"Phi({level}) = {phi[level]} < 0 for {model.label}; "
            "ladder entries need real square roots"
        )
    return FockRep(dim=phi.size - 1, phi=phi, ladder=np.sqrt(phi[1:-1]))


def build_xp(rep: FockRep, ratio: float) -> FockRep:
    """Attach X = f(N) a- + g(N) a+ and P = i (f(N) a+ - g(N) a-).

    f(n) = ratio**n / sqrt(2) and g(n) = ratio**(2n) / sqrt(2).  One ratio
    serves the whole family: X P - q P X = i takes ratio = q,
    p X P - q P X = i takes q/p and the two-sided relation qb/pb.  Both
    dressings are read off one array of ratio**k / sqrt(2), k < 2 dim - 1,
    whose powers are Python's pow bit for bit (see _powers).  A power past
    the largest double raises EvaluationOverflowError.
    """
    require_positive(ratio=ratio)
    with double_range(
        lambda: f"X/P dressing ratio**k overflowed for ratio={ratio}, dim={rep.dim}"
    ):
        powers = _powers(ratio, 0, 2 * rep.dim - 1)
        if not np.isfinite(powers).all():
            raise OverflowError
    return _dressed(rep, powers)


def _powers(ratio: float, first: int, stop: int) -> np.ndarray:
    # ratio**k, first <= k < stop: on a float np.float_power gives Python's
    # pow bit for bit, and inf where pow raises (a test pins both; np.power
    # differs in the last bit), and other numbers take pow itself
    if isinstance(ratio, float):
        with np.errstate(over="ignore", divide="ignore"):
            return np.float_power(ratio, np.arange(first, stop))
    return np.fromiter(map(pow, repeat(ratio), range(first, stop)), float)


def _dressed(rep: FockRep, powers: np.ndarray) -> FockRep:
    # rep with X and P dressed by powers[k] = ratio**k, k < 2 dim - 1
    dressing = powers * _INV_SQRT2
    f, g = dressing[: rep.dim], dressing[::2]
    roots = rep.ladder
    x = np.stack([g[1:] * roots, f[:-1] * roots])
    return replace(rep, x=x, p=np.stack([f[1:] * roots, -(g[:-1] * roots)]))


def _ratio_xp(
    label: str, qb: float, pb: float, mu: float | Callable[[int], float] | None, dim: int
) -> FockRep:
    # build_xp(build_ladder(model, dim), qb / pb) for model, labelled label,
    # the recipe over hg_for_two_sided(qb, pb, mu), or over hg_for_qp_ha(qb,
    # pb) where mu is None.  On floats it takes the powers Q**k, k = -2..2
    # dim, once, as one array: the pair's formula runs on its even entries
    # as the pair's lists (an infinite power gives an h the recipe refuses,
    # and the pair's own h then names), and the dressing reads the rest,
    # through build_xp only where a power is not finite.
    pair = hg_for_qp_ha(qb, pb) if mu is None else hg_for_two_sided(qb, pb, mu)
    _require_dim(dim)
    ratio, half_qb, half_pb = qb / pb, qb / 2, pb / 2
    powers = None
    if all(isinstance(value, float) for value in (ratio, half_qb, half_pb)):
        powers = _powers(ratio, -2, 2 * dim + 1)
        below, at, above = powers[:-4:2], powers[2:-2:2], powers[4::2]

        def lists(m: int) -> tuple[list[float], list[float]]:  # m = dim
            # mu / 2, or mu(n) / 2 for n < m, as the pair reads them
            if callable(mu):
                half = np.array([mu(n) / 2 for n in range(m)], float)
            else:
                half = float((0.0 if mu is None else mu) / 2)
            with np.errstate(over="ignore", invalid="ignore"):  # the recipe refuses them
                h = _coefficient(half_qb, at, above, -half)
                g = _coefficient(half_pb, at, below, half)
            return h.tolist(), g.tolist()

        pair = replace(pair, lists=lists)
    model = StructureFunctionModel(label, partial(_recipe_levels, pair))
    rep = _ladder(model, sf_table(model, dim))
    if powers is not None and np.isfinite(powers).all():
        return _dressed(rep, powers[2:-2])
    return build_xp(rep, ratio)


def hamiltonian(rep: FockRep) -> np.ndarray:
    """Diagonal (Phi(n+1) + Phi(n)) / 2, n = 0..dim-1, of the Hamiltonian.

    Built from the Phi table rather than the truncated product
    (a- a+ + a+ a-)/2, whose last diagonal entry is a truncation artifact.
    """
    return 0.5 * (rep.phi[1:] + rep.phi[:-1])
