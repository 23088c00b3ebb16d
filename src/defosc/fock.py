"""Truncated Fock-space realizations, stored entry by entry.

Ladder operators act as a+ |n> = sqrt(Phi(n+1)) |n+1> and
a- |n> = sqrt(Phi(n)) |n-1>; position and momentum are dressed ladder
combinations X = f(N) a- + g(N) a+ and P = i (k(N) a+ - h(N) a-).  Each
is a function of N times ladder operators, so it lives on the offsets
-1 and +1 only; those O(dim) entries are all that is stored.  A function
of N scales the entries of the row it acts on, which reproduces
F(N) a(+/-) = a(+/-) F(N +/- 1) automatically.  Truncation artifacts
live in the top two levels only; the verification module restricts
checks to the interior accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeStructureFunctionError
from .qp import require_positive
from .structure import StructureFunctionModel, sf_table

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CoefficientProfile:
    """Number-operator coefficients (f, g, h, k) dressing the ladder operators."""

    f: Callable[[int], float]
    g: Callable[[int], float]
    h: Callable[[int], float]
    k: Callable[[int], float]
    label: str = ""


def _tridiagonal(offdiagonals: np.ndarray) -> np.ndarray:
    below, above = offdiagonals
    return (np.diag(below, -1) + np.diag(above, 1)).astype(complex)


@dataclass(frozen=True)
class FockRep:
    """Truncated realization of one deformed oscillator.

    phi holds Phi(0..dim), one entry beyond the truncation so the
    Hamiltonian diagonal (Phi(n+1) + Phi(n))/2 is exact at n = dim - 1.
    ladder holds <n+1|a+|n> = <n|a-|n+1> = sqrt(Phi(n+1)), n < dim - 1,
    apart from phi so that a tampered phi table stays detectable.
    build_xp fills x with the rows <n+1|X|n> and <n|X|n+1>, and p likewise
    for P / i.  The properties build the dense complex matrices on demand;
    x_op and p_op are None before build_xp.
    """

    dim: int
    phi: np.ndarray
    ladder: np.ndarray
    x: np.ndarray | None = None
    p: np.ndarray | None = None

    @property
    def a_plus(self) -> np.ndarray:
        return np.diag(self.ladder, -1).astype(complex)

    @property
    def a_minus(self) -> np.ndarray:
        return np.diag(self.ladder, 1).astype(complex)

    @property
    def n_op(self) -> np.ndarray:
        return np.diag(np.arange(self.dim)).astype(complex)

    @property
    def x_op(self) -> np.ndarray | None:
        return None if self.x is None else _tridiagonal(self.x)

    @property
    def p_op(self) -> np.ndarray | None:
        return None if self.p is None else 1j * _tridiagonal(self.p)


def build_ladder(model: StructureFunctionModel, dim: int) -> FockRep:
    """Build the dim-dimensional ladder realization of a structure function."""
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    phi = np.array(sf_table(model, dim), dtype=float)
    negative = np.nonzero(phi < 0)[0]
    if negative.size:
        level = int(negative[0])
        raise NegativeStructureFunctionError(
            f"Phi({level}) = {phi[level]} < 0 for {model.label or model.variant}; "
            "ladder entries need real square roots"
        )
    return FockRep(dim=dim, phi=phi, ladder=np.sqrt(phi[1:dim]))


def ratio_profile(ratio: float) -> CoefficientProfile:
    """Coefficients f = k = ratio**n / sqrt(2), h = g = ratio**(2n) / sqrt(2).

    One profile serves the whole family: X P - q P X = i takes ratio = q,
    p X P - q P X = i takes q/p and the two-sided relation qb/pb.
    """
    require_positive(ratio=ratio)

    def f(n: int) -> float:
        return ratio**n * _INV_SQRT2

    def g(n: int) -> float:
        return ratio ** (2 * n) * _INV_SQRT2

    return CoefficientProfile(f=f, g=g, h=g, k=f, label=f"ratio-profile({ratio})")


def build_xp(rep: FockRep, profile: CoefficientProfile) -> FockRep:
    """Attach X = f(N) a- + g(N) a+ and P = i (k(N) a+ - h(N) a-)."""
    f, g, h, k = (
        np.array([fn(n) for n in range(rep.dim)], dtype=float)
        for fn in (profile.f, profile.g, profile.h, profile.k)
    )
    roots = rep.ladder
    x = np.stack([g[1:] * roots, f[:-1] * roots])
    return replace(rep, x=x, p=np.stack([k[1:] * roots, -(h[:-1] * roots)]))


def hamiltonian(rep: FockRep) -> np.ndarray:
    """Diagonal Hamiltonian (Phi(n+1) + Phi(n)) / 2, n = 0..dim-1.

    Built from the Phi table rather than the truncated product
    (a- a+ + a+ a-)/2, whose last diagonal entry is a truncation artifact.
    """
    return np.diag(0.5 * (rep.phi[1:] + rep.phi[:-1])).astype(complex)
