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
from itertools import repeat

import numpy as np

from .errors import DomainError, NegativeStructureFunctionError, double_range
from .qp import require_nonnegative_int, require_positive
from .structure import StructureFunctionModel, sf_table

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
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    require_nonnegative_int(dim=dim)
    phi = np.array(sf_table(model, dim), dtype=float)
    negative = np.nonzero(phi < 0)[0]
    if negative.size:
        level = int(negative[0])
        raise NegativeStructureFunctionError(
            f"Phi({level}) = {phi[level]} < 0 for {model.label}; "
            "ladder entries need real square roots"
        )
    return FockRep(dim=dim, phi=phi, ladder=np.sqrt(phi[1:dim]))


def build_xp(rep: FockRep, ratio: float) -> FockRep:
    """Attach X = f(N) a- + g(N) a+ and P = i (f(N) a+ - g(N) a-).

    f(n) = ratio**n / sqrt(2) and g(n) = ratio**(2n) / sqrt(2).  One ratio
    serves the whole family: X P - q P X = i takes ratio = q,
    p X P - q P X = i takes q/p and the two-sided relation qb/pb.  Both
    dressings are read off one array of ratio**k / sqrt(2), k < 2 dim - 1,
    whose powers are Python's pow (numpy's ** can differ in the last bit).
    A power past the largest double raises EvaluationOverflowError.
    """
    require_positive(ratio=ratio)
    with double_range(
        lambda: f"X/P dressing ratio**k overflowed for ratio={ratio}, dim={rep.dim}"
    ):
        powers = np.fromiter(map(pow, repeat(ratio), range(2 * rep.dim - 1)), float)
    dressing = powers * _INV_SQRT2
    f, g = dressing[: rep.dim], dressing[::2]
    roots = rep.ladder
    x = np.stack([g[1:] * roots, f[:-1] * roots])
    return replace(rep, x=x, p=np.stack([f[1:] * roots, -(g[:-1] * roots)]))


def hamiltonian(rep: FockRep) -> np.ndarray:
    """Diagonal (Phi(n+1) + Phi(n)) / 2, n = 0..dim-1, of the Hamiltonian.

    Built from the Phi table rather than the truncated product
    (a- a+ + a+ a-)/2, whose last diagonal entry is a truncation artifact.
    """
    return 0.5 * (rep.phi[1:] + rep.phi[:-1])
