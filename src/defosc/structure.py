"""Structure functions of deformed oscillators.

A deformed oscillator is fixed by its structure function Phi, through
a+ a- = Phi(N) and a- a+ = Phi(N+1), so a model is a label and a way to
build Phi: each constructor checks its parameters and stores the builder
of its Phi table.  This module holds

* the catalog: harmonic, Arik-Coon, Biedenharn-Macfarlane,
  Chakrabarti-Jagannathan and the Jannussis mu-oscillator, each one
  formula valid on both sides of its undeformed point, and the
  equal-coefficient two-sided special case, as its defining sum;
* the reconstruction recipe recovering Phi(n) from a coefficient pair
  (h, g) satisfying h(N) a- a+ - g(N) a+ a- = 1, which also builds the
  nonstandard one- and two-parameter oscillators realizing the deformed
  position-momentum relations, from the qp-ha pair;
* the coefficient pairs belonging to each deformed Heisenberg relation;
* energy spectra E(n) = (Phi(n+1) + Phi(n)) / 2.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat, takewhile
from operator import length_hint, truediv
from typing import Callable

from .errors import DomainError, RecipeDivisionError, double_range, finite
from .qp import deformed_integers, require_finite, require_nonnegative_int, require_positive

_Level = Callable[[int], float]


@dataclass(frozen=True)
class HGPair:
    """Coefficient functions of the relation h(N) a- a+ - g(N) a+ a- = 1.

    h(n) must be nonzero for n >= 0 on the range the recipe evaluates; g may
    vanish, and g(0) is never consulted.  An hg_for_* pair computes in the
    numbers qp's reader returned, so a pair of Fractions stays exact, past
    double range too; its h and g raise EvaluationOverflowError naming the
    pair and n only where a float power, or a float value, overflows, and a
    layer that reads a pair (sf_table, sf_eval, verify_hg) names the failure
    in its own terms.
    lists, where given, returns [h(0..m-1)] and [g(0..m-1)] in one pass;
    where it returns and holds no zero and no infinite value, h(n) and g(n)
    return the same values bit for bit for every n < m.  The recipe reads
    the pair through it, or level by level where it raises or is absent,
    and reads h(j), g(j) again at a level it cannot form.
    """

    h: Callable[[int], float]
    g: Callable[[int], float]
    label: str = ""
    lists: Callable[[int], tuple[list[float], list[float]]] | None = None


@dataclass(frozen=True)
class StructureFunctionModel:
    """A deformed oscillator: its label and the builder of its Phi table.

    table(m, phi) does the model's per-model work once (constants, domain
    checks, branch choices), appends Phi(1..m) to phi = [0.0] in one pass
    and returns phi.  At the first level it cannot form it raises, with
    phi holding the levels below, so that the caller can name that level.
    A model equals only itself: its table callable compares by identity.
    """

    label: str
    table: Callable[[int, list], list]


def harmonic() -> StructureFunctionModel:
    """Undeformed oscillator, Phi(n) = n."""
    return _closed_form("harmonic", lambda: float)


def arik_coon(q: float) -> StructureFunctionModel:
    """Arik-Coon oscillator, Phi(n) = (q**n - 1) / (q - 1)."""
    q = require_positive(q=q)
    return _closed_form(f"arik-coon(q={q})", partial(deformed_integers, q, 1.0))


def biedenharn_macfarlane(q: float) -> StructureFunctionModel:
    """Biedenharn-Macfarlane oscillator, Phi(n) = (q**n - q**-n) / (q - 1/q)."""
    q = require_positive(q=q)
    return _closed_form(f"biedenharn-macfarlane(q={q})", lambda: deformed_integers(q, 1.0 / q))


def chakrabarti_jagannathan(q: float, p: float = 1.0) -> StructureFunctionModel:
    """Two-parameter oscillator with the symmetric Phi(n) = [n] = (q**n - p**n)/(q - p)."""
    q, p = require_positive(q=q, p=p)
    return _closed_form(f"chakrabarti-jagannathan(q={q},p={p})", partial(deformed_integers, q, p))


def jannussis_mu(mu_tilde: float) -> StructureFunctionModel:
    """Jannussis mu-oscillator, Phi(n) = n / (1 + mu_tilde * n)."""
    mu_tilde = require_finite(mu_tilde=mu_tilde)
    return _closed_form(
        f"jannussis-mu(mu_tilde={mu_tilde})", partial(_jannussis_mu_levels, mu_tilde)
    )


def nonstd_q(q: float) -> StructureFunctionModel:
    """Nonstandard oscillator realizing X P - q P X = i: the recipe over its pair."""
    return StructureFunctionModel(f"nonstd-q(q={q})", partial(_recipe, hg_for_qp_ha(q, 1.0)))


def nonstd_qp(q: float, p: float) -> StructureFunctionModel:
    """Nonstandard oscillator realizing p X P - q P X = i: the recipe over its pair."""
    return StructureFunctionModel(f"nonstd-qp(q={q},p={p})", partial(_recipe, hg_for_qp_ha(q, p)))


def two_sided_equal_hg(qb: float, pb: float) -> StructureFunctionModel:
    """Two-sided deformation in the special case of equal coefficient functions.

    Phi(n) = sum_{k<n} 1/h(k) with h the common coefficient of
    equal_hg_special_case; at qb == pb every term is exactly 1/qb.
    """
    qb, pb = require_positive(qb=qb, pb=pb)
    return StructureFunctionModel(
        f"two-sided-equal(qb={qb},pb={pb})", partial(_two_sided_equal_table, qb, pb)
    )


def custom_hg(hg: HGPair) -> StructureFunctionModel:
    """Oscillator defined by an explicit coefficient pair, Phi via the recipe."""
    return StructureFunctionModel(hg.label or "custom-hg", partial(_recipe, hg))


# --------------------------------------------------------------------------
# table builders: per-model work once, then Phi(1..m) onto phi = [0.0]
# --------------------------------------------------------------------------


def _closed_form(label: str, levels: Callable[[], _Level]) -> StructureFunctionModel:
    # levels() does the per-model work once, inside the table call, and returns
    # level(n) = Phi(n); the first level that raises or is not finite stops the
    # table (math.isfinite, unlike errors.finite, refuses an exact Phi past range)
    def table(m: int, phi: list) -> list:
        if m:  # Phi(0) = 0 needs no per-model work, which may raise
            phi.extend(takewhile(math.isfinite, map(levels(), range(1, m + 1))))
        if len(phi) <= m:
            raise OverflowError
        return phi

    return StructureFunctionModel(label, table)


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


def _two_sided_equal_table(qb: float, pb: float, m: int, phi: list) -> list:
    # Phi(n) = S(n) / pb with S(n) = sum_{k<n} pb / h(k): each term is
    # positive, so nothing cancels, and each is exactly 1 at Q = 1
    ratio = qb / pb
    total, carried = 0.0, False
    for k in range(m):
        if not carried:
            try:
                term = 1.0 / _equal_bracket(0.25, ratio, k, 1.0)
            except OverflowError:
                # for k > 0 a power overflows only at Q > 1, h(k) > 1.8e308/4,
                # so the term is below 4/1.8e308 and is dropped, as is every
                # later one, whose powers are larger and overflow too: the
                # sum is complete.  h(0) ~ Q**3/4 need not be large.
                if not k:
                    raise
                phi.extend(repeat(phi[-1], m - k))
                return phi
            # S = pb Phi passes the largest double before Phi does (only at
            # Q < 1): carry Phi itself from this term on
            carried = pb > 1 and total + term == math.inf
            total = total / pb if carried else total + term
        if carried:
            # 1/h(k) = (Q**-k / pb) Q**-k 4 / B(k), B(k) = Q + 1 + Q**(2k-2) (Q**5 + 1):
            # Q < 1 here, and Q**-k / pb is normal while Phi is in range
            power = ratio**-k
            bracket = (ratio + 1) + ratio ** (2 * k - 2) * (ratio**5 + 1)
            total += power / pb * power * (4.0 / bracket)
        phi.append(finite(total if carried else total / pb))
    return phi


def _recipe(hg: HGPair, m: int, table: list, steps=None) -> list:
    # Phi(0..m) onto table = [0.0], the one place the recipe is formed:
    # Phi(n+1) = (1 + g(n) Phi(n)) / h(n), so Phi(1) = 1/h(0) and g(0) is
    # never consulted.  It is formed as (g/h) Phi + 1/h, because g(n) Phi(n)
    # alone can pass the largest double while Phi(n+1) is in range (for the
    # pair (p**-n, q p**-n), g/h = q and a level is p**n + q Phi(n)); int
    # literals keep a Fraction pair exact.  The loop reads the step columns
    # 1/h(n) and g(n)/h(n): steps(m)'s, where given and it raises nothing
    # (fock forms them as arrays of a ratio pair, up to its first h that is
    # zero or not finite), else _columns over the pair's lists, or h(n) and
    # g(n) read level by level up to the first that raises.  One pass forms
    # every level below the first it cannot form: its h or g is missing, its
    # h is zero or not finite (an infinite h would round Phi to 0.0), or its
    # Phi is not a finite double.  At that level j it reads the pair's own
    # h(j) and then g(j), and raises what they raise, else
    # RecipeDivisionError for a zero h, else OverflowError, with table at
    # Phi(0..j) for the caller's double_range to name: it knows the level it
    # asked for.
    try:
        columns = steps(m) if steps else _columns(*hg.lists(m))
    except Exception:  # a per-level mu may raise anything; h and g meet it in order
        columns = None
    if columns is None:
        h, g = [], []
        with suppress(Exception):  # the level that raised is read again below
            for n in range(m):
                h.append(hg.h(n))
                g.append(hg.g(n) if n else None)  # g(0) is never consulted
        columns = _columns(h, g)
    inverses, ratios = columns
    stopped = OverflowError  # what the pass raised, where that names the failure
    try:  # a pass that raises leaves table at the level it could not form
        table.append(phi := next(inverses))
        table.extend(phi := a * phi + b for b, a in zip(inverses, ratios))
        # past a float Phi(1) every level is a float, and one that is not finite
        # leaves every later one not finite: the last decides
        if len(table) > m and (
            math.isfinite(phi) if type(table[1]) is float else all(map(math.isfinite, table))
        ):
            return table  # the common case, decided at C speed
    except (StopIteration, ZeroDivisionError):  # no finite h(0), a zero h
        pass
    except OverflowError as exc:  # an exact number past a float's range
        stopped = exc
    rest = iter(table)  # Phi(level + 1) is the first that is not a finite double, if any
    try:
        level = len(list(takewhile(math.isfinite, rest))) - 1
    except OverflowError:  # math.isfinite raises on an exact Phi past double range
        level = len(table) - length_hint(rest) - 2
    if level == m:
        return table
    failed = table[level + 1 : level + 2]  # the Phi out of range, if that is what failed
    del table[level + 1 :]
    hj = hg.h(level)
    if hj == 0:
        raise RecipeDivisionError(f"recipe division by zero: h({level}) = 0")
    if level and math.isfinite(hj):
        hg.g(level)
    for value in failed:  # an exact Phi past double range raises its own OverflowError
        math.isfinite(value)
    raise OverflowError if failed else stopped  # the pass's own error, where it stopped


def _columns(h: list, g: list) -> tuple:
    # the step columns over lists h and g, each step formed as the loop reads
    # it: 1/h(n) while h(n) is finite, and g(n)/h(n) from n = 1
    inverses = map(truediv, repeat(1), takewhile(math.isfinite, h))
    return inverses, map(truediv, islice(g, 1, None), islice(h, 1, None))


def sf_eval(model: StructureFunctionModel, n: int) -> float:
    """Phi(n) of a model, the last entry of its table up to n, so O(n): qp_number
    is the O(1) deformed integer.  Phi(0) = 0 for every model.

    A value beyond double range, or one the table passes on its way to n,
    or a recipe coefficient h underflowing to 0.0, raises
    EvaluationOverflowError naming n.
    """
    n = require_nonnegative_int(n=n)
    with double_range(lambda: f"structure function {model.label} overflowed at n={n}"):
        return model.table(n, [0.0])[-1]


def sf_table(model: StructureFunctionModel, n_max: int) -> list[float]:
    """Phi(0..n_max) in model.table's one pass; entry n equals sf_eval(model, n)
    bit for bit.

    A recipe model reads h(0..n_max-1) and g(0..n_max-1) in one pass (the
    pair's lists, or h and g level by level) up to the first level it
    cannot form.  Each entry is range-checked as in sf_eval, an error names
    the first failing level, and nothing beyond level n_max is evaluated
    (the recipe consults h, g and a per-level mu up to n_max - 1 only).
    """
    table = [0.0]
    try:
        return model.table(require_nonnegative_int(n_max=n_max), table)
    except (OverflowError, ZeroDivisionError):  # a table that returns enters no double_range
        message = f"structure function {model.label} overflowed at n={len(table)}"
        with double_range(lambda: message):
            raise


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
    return sf_table(custom_hg(hg), require_nonnegative_int(n=n))[-1]


# --------------------------------------------------------------------------
# coefficient pairs of the deformed Heisenberg relations
# --------------------------------------------------------------------------


def hg_for_q_ha(q: float) -> HGPair:
    """Coefficient pair realizing X P - q P X = i: the qp-ha pair at p = 1.

    h(n) = q**(2n+1) (1 + q**(2n+2)) / 2,  g(n) = q**(2n) (1 + q**(2n-2)) / 2.
    """
    q = require_positive(q=q)
    return _ratio_pair(q, 1, 0 * q, label=f"q-ha(q={q})")  # mu = 0 of q's type


def _coefficient(scale, at, beside, shift):
    # the ratio pair's formula, in plain operators, so that it evaluates on
    # floats, Fractions and numpy arrays alike: with Q = qb/pb,
    # h(n) = _coefficient(qb/2, Q**(2n), Q**(2n+2), -mu(n)/2) and
    # g(n) = _coefficient(pb/2, Q**(2n), Q**(2n-2), mu(n)/2)
    return scale * at * (1 + beside) + shift


def _ratio_pair(
    qb: float, pb: float, mu: float | Callable[[int], float], label: str
) -> HGPair:
    # shared by hg_for_q_ha, hg_for_qp_ha and hg_for_two_sided, so none calls another
    # int literals only, so Fraction arguments give exact Fraction values
    per_level = callable(mu)
    ratio, half_qb, half_pb = qb / pb, qb / 2, pb / 2
    half = None if per_level else mu / 2  # mu / 2 at every level
    zero_mu = not (per_level or mu)  # where h vanishes only by underflow

    def h(n: int) -> float:
        shift = -(mu(n) / 2 if per_level else half)
        try:
            value = finite(_coefficient(half_qb, ratio ** (2 * n), ratio ** (2 * n + 2), shift))
            if value or not zero_mu:
                return value
            raise OverflowError  # a positive product rounded to 0.0
        except (OverflowError, ZeroDivisionError):
            with double_range(lambda: f"coefficient h of {label} overflowed at n={n}"):
                raise

    def g(n: int) -> float:
        shift = mu(n) / 2 if per_level else half
        try:
            return finite(_coefficient(half_pb, ratio ** (2 * n), ratio ** (2 * n - 2), shift))
        except (OverflowError, ZeroDivisionError):
            with double_range(lambda: f"coefficient g of {label} overflowed at n={n}"):
                raise

    return HGPair(h, g, label=label, lists=partial(_ratio_lists, ratio, half_qb, half_pb, mu))


def _ratio_lists(ratio, half_qb, half_pb, mu, m: int) -> tuple[list[float], list[float]]:
    # a ratio pair's lists: h and g as _coefficient gives them, inlined in one
    # comprehension each (a call per level would cost about a third more),
    # each power ratio**(2n) taken once and each mu(n) read once: power[n] =
    # ratio**(2n - 2), so level n reads power[n..n+2]
    power = list(map(pow, repeat(ratio), range(-2, 2 * m + 1, 2)))
    below, at, above = power[:m], power[1:], power[2:]
    halves = [mu(n) / 2 for n in range(m)] if callable(mu) else [mu / 2] * m
    h = [half_qb * a * (1 + b) - half_mu for a, b, half_mu in zip(at, above, halves)]
    g = [half_pb * a * (1 + b) + half_mu for b, a, half_mu in zip(below, at, halves)]
    return h, g


def hg_for_qp_ha(q: float, p: float) -> HGPair:
    """Coefficient pair realizing p X P - q P X = i, in terms of Q = q/p.

    h(n) = q Q**(2n) (1 + Q**(2n+2)) / 2,  g(n) = p Q**(2n) (1 + Q**(2n-2)) / 2:
    the two-sided pair at mu = 0.
    """
    q, p = require_positive(q=q, p=p)
    return _ratio_pair(q, p, 0 * q, label=f"qp-ha(q={q},p={p})")  # mu = 0 of q's type


def hg_for_two_sided(
    qb: float, pb: float, mu: float | Callable[[int], float]
) -> HGPair:
    """Coefficient pair of the two-sided relation qb/pb-commutator vs (1 + mu*H).

    h(n) = qb Q**(2n) (1 + Q**(2n+2)) / 2 - mu/2,
    g(n) = pb Q**(2n) (1 + Q**(2n-2)) / 2 + mu/2,  Q = qb/pb.

    mu may be a constant, read as qb and pb are, or a per-level function of n
    (the equal-coefficient special case needs it), taken as it comes; a zero
    of h for a specific mu is reported by sf_from_hg as the recipe reads it.
    """
    qb, pb = require_positive(qb=qb, pb=pb)
    if not callable(mu):
        mu = require_finite(mu=mu)
    tag = "mu(n)" if callable(mu) else f"mu={mu}"
    return _ratio_pair(qb, pb, mu, label=f"two-sided(qb={qb},pb={pb},{tag})")


def equal_hg_special_case(
    qb: float, pb: float
) -> tuple[Callable[[int], float], Callable[[int], float]]:
    """Per-level mu(n) and common coefficient value forcing h(n) = g(n).

    Each reads n as sf_eval does a level: an integer >= 0, else DomainError.

    mu(n) = pb Q**(2n) [Q - 1 + Q**(2n-2) (Q**5 - 1)] / 2,
    h(n) = g(n) = pb Q**(2n) [Q + 1 + Q**(2n-2) (Q**5 + 1)] / 4,  Q = qb/pb.

    Degenerate at qb = pb (mu vanishes identically), where
    two_sided_equal_hg gives Phi(n) = n / qb.
    """
    qb, pb = require_positive(qb=qb, pb=pb)
    if qb == pb:
        raise DomainError(
            "equal-coefficient special case degenerates at qb == pb "
            "(mu is identically zero); there Phi(n) = n / qb"
        )
    ratio = qb / pb

    def scaled(n: int, factor: float, sign: float) -> float:
        # read as a level; an int in range passes as cheaply as index()
        if type(n) is not int or not 0 <= n <= sys.maxsize:
            n = require_nonnegative_int(n=n)
        try:
            return finite(_equal_bracket(factor * pb, ratio, n, sign))
        except (OverflowError, ZeroDivisionError):  # an in-range call enters no double_range
            message = f"equal-coefficient special case overflowed at n={n}, qb={qb}, pb={pb}"
            with double_range(lambda: message):
                raise

    return (lambda n: scaled(n, 0.5, -1.0)), (lambda n: scaled(n, 0.25, 1.0))


def _equal_bracket(scale: float, ratio: float, n: int, sign: float) -> float:
    # scale Q**(2n) [Q + sign + Q**(2n-2) (Q**5 + sign)]: mu(n) at scale pb/2
    # and sign -1, the common coefficient h(n) = g(n) at pb/4 and sign +1
    tail = ratio ** (2 * n - 2) * (ratio**5 + sign)
    return scale * ratio ** (2 * n) * ((ratio + sign) + tail)


def spectrum(model: StructureFunctionModel, n_max: int) -> list[float]:
    """Energy levels E(n) = (Phi(n+1) + Phi(n)) / 2 for n = 0..n_max."""
    return _energies(sf_table(model, require_nonnegative_int(n_max=n_max) + 1))


def _energies(phi: list[float]) -> list[float]:
    # E(n) = (Phi(n+1) + Phi(n)) / 2 of a table Phi(0..m), n < m
    return [0.5 * (above + at) for above, at in zip(phi[1:], phi)]
