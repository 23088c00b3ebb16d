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
restricts checks to the interior accordingly.  The module computes in
floats: a dressing ratio, and an hg_for_* pair's Q, qb/2, pb/2 and mu (exact
where the pair is), whose recipe step columns 1/h and g/h it forms as arrays.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, NegativeStructureFunctionError, double_range
from .qp import require_nonnegative_int, require_positive
from .structure import HGPair, StructureFunctionModel, _coefficient, _ratio_lists, _recipe, sf_table

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FockRep:
    """Truncated realization of one deformed oscillator.

    phi holds Phi(0..dim), one entry beyond the truncation so the
    Hamiltonian diagonal (Phi(n+1) + Phi(n))/2 is exact at n = dim - 1.
    ladder holds <n+1|a+|n> = <n|a-|n+1> = sqrt(Phi(n+1)), n < dim - 1,
    apart from phi so that a tampered phi table stays detectable.
    build_xp fills x with the rows <n+1|X|n> and <n|X|n+1>, and p likewise
    for P / i; both are None before build_xp.  build_xp, hamiltonian and
    the verify checks refuse a rep whose phi or ladder does not fit dim.
    """

    dim: int
    phi: np.ndarray
    ladder: np.ndarray
    x: np.ndarray | None = None
    p: np.ndarray | None = None


def build_ladder(model: StructureFunctionModel, dim: int) -> FockRep:
    """Build the dim-dimensional ladder realization from one sf_table pass."""
    dim = _require_dim(dim)
    if isinstance(model.table, partial) and model.table.func is _recipe:
        model = _recipe_model(model.label, *model.table.args)  # a ratio pair as arrays
    return _ladder(model, sf_table(model, dim))


def _require_dim(dim: int) -> int:
    with suppress(TypeError, ArithmeticError):  # no number, or a Decimal nan: no integer
        if -sys.maxsize <= dim < 2:  # past -sys.maxsize the int reader names its bit count
            raise DomainError(f"dim must be >= 2, got {dim}")
    return require_nonnegative_int(dim=dim)


def _require_shape(rep: FockRep) -> FockRep:
    # phi is Phi(0..dim) and ladder sqrt(Phi(1..dim-1)), as _ladder builds them
    if rep.phi.shape != (rep.dim + 1,) or rep.ladder.shape != (rep.dim - 1,):
        raise DomainError("ladder matrices do not match the declared dimension")
    return rep


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
    of the ratio as a float, Python's pow bit for bit (see _powers).  A
    power past the largest double raises EvaluationOverflowError.
    """
    ratio = require_positive(ratio=ratio)
    with double_range(
        lambda: f"X/P dressing ratio**k overflowed for ratio={ratio}, dim={rep.dim}"
    ):
        powers = _powers(ratio, 0, 2 * _require_shape(rep).dim - 1)
        if not np.isfinite(powers).all():
            raise OverflowError
    return _dressed(rep, powers)


def _powers(ratio: float, first: int, stop: int) -> np.ndarray:
    # ratio**k, first <= k < stop, of ratio read as a float (an exact ratio past
    # double range raises OverflowError): np.float_power gives Python's pow bit for
    # bit, and inf where pow raises (a test pins both; np.power differs in the last bit)
    with np.errstate(over="ignore", divide="ignore"):
        return np.float_power(float(ratio), np.arange(first, stop))


def _dressed(rep: FockRep, powers: np.ndarray) -> FockRep:
    # rep with X and P dressed by powers[k] = ratio**k, k < 2 dim - 1: the rows of
    # x and then p / i, written into one array
    dressing = powers * _INV_SQRT2
    f, g = dressing[: rep.dim], dressing[::2]
    rows = np.empty((4, rep.dim - 1))
    for row, factor in zip(rows, (g[1:], f[:-1], f[1:], g[:-1])):
        np.multiply(factor, rep.ladder, out=row)
    np.negative(rows[3], out=rows[3])
    return FockRep(rep.dim, rep.phi, rep.ladder, rows[:2], rows[2:])


def _ratio_args(pair: HGPair) -> tuple | None:
    # (ratio, qb / 2, pb / 2, mu) of an hg_for_* pair, else None
    lists = pair.lists
    return lists.args if isinstance(lists, partial) and lists.func is _ratio_lists else None


def _ratio_arrays(args: tuple, m: int, even: np.ndarray | None = None):
    # h(0..m-1), g(0..m-1) of _ratio_args' pair read as floats: its formula over even[n] =
    # Q**(2n-2), n <= m + 1 (taken unless given), on floats its lists bit for bit bar inf powers
    ratio, half_qb, half_pb = map(float, args[:3])
    mu = args[3]
    half = np.fromiter(map(mu, range(m)), float, m) / 2 if callable(mu) else float(mu / 2)
    with np.errstate(all="ignore"):  # an inf power makes an h or g that is not finite
        if even is None:
            even = np.float_power(ratio, np.arange(-2, 2 * m + 1, 2))
        below, at, above = even[:-2], even[1:-1], even[2:]
        return _coefficient(half_qb, at, above, -half), _coefficient(half_pb, at, below, half)


def _recipe_model(label: str, pair: HGPair, even=None) -> StructureFunctionModel:
    # the recipe over pair, which reads a ratio pair's step columns off _steps
    args = _ratio_args(pair)
    return StructureFunctionModel(label, partial(_recipe, pair, steps=args and partial(_steps, args, even)))


def _steps(args: tuple, even: np.ndarray | None, m: int) -> tuple:
    # the recipe's step columns of _ratio_arrays' h and g: 1/h(n) and g(n)/h(n), the
    # quotients Python's floats give, below the first level whose h is zero or not finite
    h, g = _ratio_arrays(args, m, even)
    stop = np.flatnonzero((h == 0) | ~np.isfinite(h))
    cut = stop[0] if stop.size else m
    with np.errstate(all="ignore"):
        return iter((1 / h[:cut]).tolist()), (g[1:cut] / h[1:cut]).tolist()


def _ratio_xp(model: StructureFunctionModel, dim: int) -> FockRep:
    # build_xp(build_ladder(model, dim), Q) for a recipe model over a ratio pair and a
    # dim already read, Q its ratio read as a float: one array of Q**k, k = -2..2 dim,
    # gives the pair's arrays (even k) and the dressing
    ratio = _ratio_args(model.table.args[0])[0]
    with double_range(lambda: f"X/P dressing ratio**k overflowed for ratio={ratio}, dim={dim}"):
        powers = _powers(ratio, -2, 2 * dim + 1)
    model = _recipe_model(model.label, *model.table.args, powers[::2])
    rep = _ladder(model, sf_table(model, dim))
    if np.isfinite(powers).all():
        return _dressed(rep, powers[2:-2])
    return build_xp(rep, ratio)  # a dressing power that is not finite


def hamiltonian(rep: FockRep) -> np.ndarray:
    """Diagonal (Phi(n+1) + Phi(n)) / 2, n = 0..dim-1, of the Hamiltonian.

    Built from the Phi table rather than the truncated product
    (a- a+ + a+ a-)/2, whose last diagonal entry is a truncation artifact.
    """
    phi = _require_shape(rep).phi
    return 0.5 * (phi[1:] + phi[:-1])
