"""Structure functions of deformed oscillators.

A deformed oscillator is fixed by its structure function Phi, through
a+ a- = Phi(N) and a- a+ = Phi(N+1), so a model is a label and a way to
build Phi: each constructor checks its parameters and stores the builder
of its level function.  This module holds

* the catalog: harmonic, Arik-Coon, Biedenharn-Macfarlane,
  Chakrabarti-Jagannathan, the Jannussis mu-oscillator and the nonstandard
  one- and two-parameter oscillators realizing deformed position-momentum
  relations, each one formula valid on both sides of its undeformed point,
  and the equal-coefficient two-sided special case, as its defining sum;
* the reconstruction recipe recovering Phi(n) from a coefficient pair
  (h, g) satisfying h(N) a- a+ - g(N) a+ a- = 1;
* the coefficient pairs belonging to each deformed Heisenberg relation;
* energy spectra E(n) = (Phi(n+1) + Phi(n)) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import DomainError, RecipeDivisionError, double_range, finite
from .qp import deformed_integers, require_finite, require_nonnegative_int, require_positive

_Level = Callable[[int], float]


@dataclass(frozen=True)
class HGPair:
    """Coefficient functions of the relation h(N) a- a+ - g(N) a+ a- = 1.

    h(n) must be nonzero for n >= 0 on the range the recipe evaluates; g
    may vanish, and g(0) is never consulted.  The hg_for_* pairs run once
    per level inside the recipe loop, so they leave an overflow untyped for
    their consumers (sf_table, sf_eval, verify_hg, the link check) to type.
    """

    h: Callable[[int], float]
    g: Callable[[int], float]
    label: str = ""


@dataclass(frozen=True)
class StructureFunctionModel:
    """A deformed oscillator: its label and the builder of its Phi.

    levels() does the model's per-model work once (constants, domain
    checks, branch choices) and returns level(n) = Phi(n), n >= 1.  A
    level function that carries a running value (two-sided-equal's sum,
    the recipe's Phi) takes any first n, catching up over the levels
    below it, and then n in non-decreasing order; sf_table calls it for
    n = 1, 2, ... in turn, one step per level.  A model equals only
    itself: its levels callable compares by identity.
    """

    label: str
    levels: Callable[[], _Level]


def harmonic() -> StructureFunctionModel:
    """Undeformed oscillator, Phi(n) = n."""
    return StructureFunctionModel("harmonic", lambda: float)


def arik_coon(q: float) -> StructureFunctionModel:
    """Arik-Coon oscillator, Phi(n) = (q**n - 1) / (q - 1)."""
    require_positive(q=q)
    return StructureFunctionModel(f"arik-coon(q={q})", partial(deformed_integers, q, 1.0))


def biedenharn_macfarlane(q: float) -> StructureFunctionModel:
    """Biedenharn-Macfarlane oscillator, Phi(n) = (q**n - q**-n) / (q - 1/q)."""
    require_positive(q=q)
    return StructureFunctionModel(
        f"biedenharn-macfarlane(q={q})", lambda: deformed_integers(q, 1.0 / q)
    )


def chakrabarti_jagannathan(q: float, p: float = 1.0) -> StructureFunctionModel:
    """Two-parameter oscillator with the symmetric Phi(n) = [n] = (q**n - p**n)/(q - p)."""
    require_positive(q=q, p=p)
    return StructureFunctionModel(
        f"chakrabarti-jagannathan(q={q},p={p})", partial(deformed_integers, q, p)
    )


def jannussis_mu(mu_tilde: float) -> StructureFunctionModel:
    """Jannussis mu-oscillator, Phi(n) = n / (1 + mu_tilde * n)."""
    require_finite(mu_tilde=mu_tilde)
    return StructureFunctionModel(
        f"jannussis-mu(mu_tilde={mu_tilde})", partial(_jannussis_mu_levels, mu_tilde)
    )


def nonstd_q(q: float) -> StructureFunctionModel:
    """Nonstandard oscillator realizing the relation X P - q P X = i."""
    require_positive(q=q)
    return StructureFunctionModel(f"nonstd-q(q={q})", partial(_nonstd_qp_levels, q, 1.0))


def nonstd_qp(q: float, p: float) -> StructureFunctionModel:
    """Nonstandard oscillator realizing the relation p X P - q P X = i."""
    require_positive(q=q, p=p)
    return StructureFunctionModel(
        f"nonstd-qp(q={q},p={p})", partial(_nonstd_qp_levels, q, p)
    )


def two_sided_equal_hg(qb: float, pb: float) -> StructureFunctionModel:
    """Two-sided deformation in the special case of equal coefficient functions.

    Phi(n) = sum_{k<n} 1/h(k) with h the common coefficient of
    equal_hg_special_case; at qb == pb every term is exactly 1/qb.
    """
    require_positive(qb=qb, pb=pb)
    return StructureFunctionModel(
        f"two-sided-equal(qb={qb},pb={pb})", partial(_two_sided_equal_levels, qb, pb)
    )


def custom_hg(hg: HGPair) -> StructureFunctionModel:
    """Oscillator defined by an explicit coefficient pair, Phi via the recipe."""
    return StructureFunctionModel(hg.label or "custom-hg", partial(_recipe_levels, hg))


# --------------------------------------------------------------------------
# level builders: per-model work once, then level(n) = Phi(n), n >= 1
# --------------------------------------------------------------------------


def _jannussis_mu_levels(mu: float) -> _Level:
    def level(n: int) -> float:
        denom = 1.0 + mu * n
        if denom <= 0:
            raise DomainError(
                f"jannussis-mu denominator 1 + mu_tilde*n = {denom} must stay positive "
                f"(mu_tilde={mu}, n={n})"
            )
        return n / denom

    return level


def _nonstd_qp_levels(q: float, p: float) -> _Level:
    ratio = q / p
    odd = deformed_integers(ratio, 1.0)

    def level(n: int) -> float:
        bracket = 1.0 + ratio ** (1 - n) * odd(2 * n - 1)
        head = 2.0 / (p * ratio**n)
        tail = (1.0 + ratio ** (2 * n - 2)) * (1.0 + ratio ** (2 * n))
        return head / tail * bracket

    return level


def _two_sided_equal_levels(qb: float, pb: float) -> _Level:
    # Phi(n) = S(n) / pb with S(n) = sum_{k<n} pb / h(k): each term is
    # positive, so nothing cancels, and each is exactly 1 at Q = 1.  Each
    # level extends the sum of the one before.
    ratio = qb / pb
    total, terms = 0.0, 0

    def level(n: int) -> float:
        nonlocal total, terms
        while terms < n:
            try:
                total += 1.0 / _equal_bracket(0.25, ratio, terms, 1.0)
            except OverflowError:
                # for k > 0 a power overflows only at Q > 1, h(k) > 1.8e308/4,
                # so the term is below 4/1.8e308 and is dropped, as is every
                # later one, whose powers are larger and overflow too: the
                # sum is complete.  h(0) ~ Q**3/4 need not be large.
                if not terms:
                    raise
                terms = math.inf
            else:
                terms += 1
        return total / pb

    return level


def _recipe_levels(hg: HGPair) -> _Level:
    # Phi(n+1) = (1 + g(n) Phi(n)) / h(n) from Phi(0) = 0, so Phi(1) = 1/h(0)
    # and g(0) is never consulted.  It is formed as (g/h) Phi + 1/h, because
    # g(n) Phi(n) alone can pass the largest double while Phi(n+1) is in
    # range (for the link target g/h = q, and a level is p**n + q [n]).  A
    # level passed over on the way to n is range-checked here, where
    # sf_table would have stopped at it, so level(n) fails exactly when the
    # table up to n does.  Overflow propagates untyped: the caller knows the
    # level it asked for.
    h, g = hg.h, hg.g
    phi, done = 0.0, 0  # Phi at the level the recursion stands at

    def level(n: int) -> float:
        nonlocal phi, done
        while done < n:
            if not math.isfinite(phi):
                raise OverflowError
            hj = h(done)
            if not math.isfinite(hj):  # an infinite h would round Phi to 0.0
                raise OverflowError
            if hj == 0:
                raise RecipeDivisionError(f"recipe division by zero: h({done}) = 0")
            phi = g(done) / hj * phi + 1.0 / hj if done else 1.0 / hj
            done += 1
        return phi

    return level


def sf_eval(model: StructureFunctionModel, n: int) -> float:
    """Phi(n) of a model, from a fresh model.levels(); Phi(0) = 0 for every model.

    A value beyond double range, or one the recipe passes on its way to n,
    or a divisor (nonstd-qp's p (q/p)**n) underflowing to 0.0, raises
    EvaluationOverflowError naming n.
    """
    require_nonnegative_int(n=n)
    if n == 0:
        return 0.0
    with double_range(lambda: f"structure function {model.label} overflowed at n={n}"):
        return finite(model.levels()(n))


def sf_table(model: StructureFunctionModel, n_max: int) -> list[float]:
    """Phi(0..n_max) in one pass; entry n equals sf_eval(model, n) bit for bit.

    model.levels() does the per-model work once, and a plain loop calls
    the level function it returns for n = 1..n_max.  Each entry is
    range-checked as in sf_eval, an error names the first failing level,
    and nothing beyond level n_max is evaluated (the recipe consults h and
    g up to n_max - 1 only).
    """
    require_nonnegative_int(n_max=n_max)
    table = [0.0]
    if n_max == 0:
        return table
    with double_range(
        lambda: f"structure function {model.label} overflowed at n={len(table)}"
    ):
        level = model.levels()
        for n in range(1, n_max + 1):
            value = level(n)
            if not math.isfinite(value):
                raise OverflowError
            table.append(value)
    return table


def sf_from_hg(hg: HGPair, n: int) -> float:
    """Reconstruct Phi(n) from a coefficient pair by its defining recursion.

        Phi(n+1) = (1 + g(n) Phi(n)) / h(n),  Phi(0) = 0,

    which is the relation h(N) a- a+ - g(N) a+ a- = 1 on the state |n>.
    Phi(1) = 1/h(0), so g(0) is never consulted; a zero h(j) raises
    RecipeDivisionError naming it, and a zero g(j) is a plain value.  Each
    level is formed as (g(n) / h(n)) Phi(n) + 1 / h(n), so no intermediate
    product leaves double range before Phi(n+1) does.  This
    is the last entry of sf_table(custom_hg(hg), n), so every level up to
    n is range-checked.
    """
    require_nonnegative_int(n=n)
    return sf_table(custom_hg(hg), n)[-1]


# --------------------------------------------------------------------------
# coefficient pairs of the deformed Heisenberg relations
# --------------------------------------------------------------------------


def hg_for_q_ha(q: float) -> HGPair:
    """Coefficient pair realizing X P - q P X = i.

    h(n) = q**(2n+1) (1 + q**(2n+2)) / 2,  g(n) = q**(2n) (1 + q**(2n-2)) / 2.
    """
    require_positive(q=q)

    def h(n: int) -> float:
        return 0.5 * q ** (2 * n + 1) * (1.0 + q ** (2 * n + 2))

    def g(n: int) -> float:
        return 0.5 * q ** (2 * n) * (1.0 + q ** (2 * n - 2))

    return HGPair(h, g, label=f"q-ha(q={q})")


def _ratio_pair(
    qb: float, pb: float, mu: float | Callable[[int], float], label: str
) -> HGPair:
    # shared by hg_for_qp_ha and hg_for_two_sided, so neither calls the other
    # int literals only, so Fraction arguments give exact Fraction values
    ratio, half_qb, half_pb = qb / pb, qb / 2, pb / 2
    if callable(mu):
        def h(n: int) -> float:
            return half_qb * ratio ** (2 * n) * (1 + ratio ** (2 * n + 2)) - mu(n) / 2
        def g(n: int) -> float:
            return half_pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2)) + mu(n) / 2

    else:  # a constant mu costs no call per evaluation
        def h(n: int) -> float:
            return half_qb * ratio ** (2 * n) * (1 + ratio ** (2 * n + 2)) - mu / 2
        def g(n: int) -> float:
            return half_pb * ratio ** (2 * n) * (1 + ratio ** (2 * n - 2)) + mu / 2

    return HGPair(h, g, label=label)


def hg_for_qp_ha(q: float, p: float) -> HGPair:
    """Coefficient pair realizing p X P - q P X = i, in terms of Q = q/p.

    h(n) = q Q**(2n) (1 + Q**(2n+2)) / 2,  g(n) = p Q**(2n) (1 + Q**(2n-2)) / 2:
    the two-sided pair at mu = 0.
    """
    require_positive(q=q, p=p)
    return _ratio_pair(q, p, 0.0, label=f"qp-ha(q={q},p={p})")


def hg_for_two_sided(
    qb: float, pb: float, mu: float | Callable[[int], float]
) -> HGPair:
    """Coefficient pair of the two-sided relation qb/pb-commutator vs (1 + mu*H).

    h(n) = qb Q**(2n) (1 + Q**(2n+2)) / 2 - mu/2,
    g(n) = pb Q**(2n) (1 + Q**(2n-2)) / 2 + mu/2,  Q = qb/pb.

    mu may be a constant, which must be finite, or a per-level function of
    n (the equal-coefficient special case needs the latter).  A zero of h
    arising for specific mu is reported by sf_from_hg when the recipe
    consumes the pair.
    """
    require_positive(qb=qb, pb=pb)
    if not callable(mu):
        require_finite(mu=mu)
    tag = "mu(n)" if callable(mu) else f"mu={mu}"
    return _ratio_pair(qb, pb, mu, label=f"two-sided(qb={qb},pb={pb},{tag})")


def equal_hg_special_case(
    qb: float, pb: float
) -> tuple[Callable[[int], float], Callable[[int], float]]:
    """Per-level mu(n) and common coefficient value forcing h(n) = g(n).

    mu(n) = pb Q**(2n) [Q - 1 + Q**(2n-2) (Q**5 - 1)] / 2,
    h(n) = g(n) = pb Q**(2n) [Q + 1 + Q**(2n-2) (Q**5 + 1)] / 4,  Q = qb/pb.

    Degenerate at qb = pb (mu vanishes identically), where
    two_sided_equal_hg gives Phi(n) = n / qb.
    """
    require_positive(qb=qb, pb=pb)
    if qb == pb:
        raise DomainError(
            "equal-coefficient special case degenerates at qb == pb "
            "(mu is identically zero); there Phi(n) = n / qb"
        )
    ratio = qb / pb

    def scaled(n: int, factor: float, sign: float) -> float:
        with double_range(
            lambda: f"equal-coefficient special case overflowed at n={n}, qb={qb}, pb={pb}"
        ):
            return finite(_equal_bracket(factor * pb, ratio, n, sign))

    return (lambda n: scaled(n, 0.5, -1.0)), (lambda n: scaled(n, 0.25, 1.0))


def _equal_bracket(scale: float, ratio: float, n: int, sign: float) -> float:
    # scale Q**(2n) [Q + sign + Q**(2n-2) (Q**5 + sign)]: mu(n) at scale pb/2
    # and sign -1, the common coefficient h(n) = g(n) at pb/4 and sign +1
    tail = ratio ** (2 * n - 2) * (ratio**5 + sign)
    return scale * ratio ** (2 * n) * ((ratio + sign) + tail)


def spectrum(model: StructureFunctionModel, n_max: int) -> list[float]:
    """Energy levels E(n) = (Phi(n+1) + Phi(n)) / 2 for n = 0..n_max."""
    require_nonnegative_int(n_max=n_max)
    phi = sf_table(model, n_max + 1)
    return [0.5 * (phi[n + 1] + phi[n]) for n in range(n_max + 1)]
