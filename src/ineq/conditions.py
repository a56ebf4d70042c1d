"""Admissibility predicates: ball membership and two-sided scalar conditions.

Every theorem's hypothesis is one of two closed conditions on x:

* ball form:       ||x - c|| <= R             (margin = R - ||x - c||)
* real-part form:  Re<Z - x, x - z>  >= 0     (margin = the left side)

For Z = G*y, z = g*y the two are equivalent via the identity

    Re<Z - x, x - z> = (1/4)||Z - z||^2 - ||x - (z + Z)/2||^2,

so the real-part margin factors as (ball margin) * (||Z-z||/2 + distance).
Since the theorems are closed conditions, a report "holds" when its margin is
>= -tol for a scale-aware tol; the two forms are different functions vanishing
on the same set, so equivalence tests exclude that boundary band instead of
demanding agreement on it.

The public checks validate their operands' spaces once; the cores behind them
(`_ball`, `_pair_realpart`, `_family_ball`) and the evaluators that call them
directly work on coordinate arrays.  Their intermediates (x - a, hi*y - x,
x - lo*y, the synthesized centers) are never built as vectors, so no eager
finiteness check runs on them: each is checked only where the norm or inner
product that consumes it comes out non-finite, and then raises the same
ValueError as a vector built from it would.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, DimensionMismatchError, FieldMismatchError, PreconditionError
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Scalar,
    Vector,
    _array_norm,
    _check_finite,
    _checked_norm,
    _combination,
    _synthesized,
    _vdot,
    check_same_space,
    norm,
)

#: Margins within -BOUNDARY_REL * scale of zero still count as holding.
BOUNDARY_REL = 1e-9

#: Relative cutoff below which |hi - lo| or |hi + lo| makes a pair degenerate.
PAIR_DEGENERACY_REL = 1e-12


class ConditionForm(enum.Enum):
    BALL = "ball"
    REAL_PART = "realpart"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of an admissibility check; holds iff margin >= -tol, and an infinite tol
    forgives no negative margin."""

    holds: bool
    margin: float
    form: ConditionForm
    tol: float


class SingleCondition:
    """`admissible` and `margin` of a report whose hypothesis is one `admissibility`."""

    admissibility: ConditionReport

    @property
    def admissible(self) -> bool:
        return self.admissibility.holds

    @property
    def margin(self) -> float:
        return self.admissibility.margin


def _report(margin: float, form: ConditionForm, scale: float) -> ConditionReport:
    # A scale that overflowed is no scale: its tol forgives nothing.
    tol = BOUNDARY_REL * scale
    return ConditionReport(margin >= (-tol if tol < math.inf else 0.0), float(margin), form, tol)


def _ball(x: Vector, a: np.ndarray, na: float, r: float) -> ConditionReport:
    """Ball-form report of ||x - a|| <= r for the coordinates a of a center in x's space,
    na = ||a||: margin r - ||x - a||, scale 1 + ||x|| + ||a|| + r."""
    margin = r - _checked_norm(x.coords - a)
    return _report(margin, ConditionForm.BALL, 1.0 + norm(x) + na + r)


def _real_part(above: np.ndarray, below: np.ndarray) -> float:
    """Re<above, below> of coordinates in one space, such as the real-part margin's upper - x
    and x - lower.  A non-finite entry makes the inner product non-finite, and only then
    are the two scanned, raising `_check_finite`'s ValueError."""
    ip = _vdot(above, below)
    if not cmath.isfinite(ip):
        _check_finite(above)
        _check_finite(below)
    return ip.real


def _pair_realpart(x: Vector, y: Vector, lo: Scalar, hi: Scalar) -> ConditionReport:
    """`two_sided_realpart` for x, y known to share a space and (lo, hi) coerced to it."""
    xc, yc = x.coords, y.coords
    margin = _real_part(hi * yc - xc, xc - lo * yc)
    nx, ny = norm(x), norm(y)
    # squared by *: a square past the range is then inf, where ** would raise
    hy = abs(hi) * ny
    scale = 1.0 + nx * nx + hy * hy
    return _report(margin, ConditionForm.REAL_PART, scale)


def _degenerate(lo: float, hi: float, diff: float, summ: float) -> bool:
    """The pair rule on magnitudes |lo|, |hi|, |hi - lo| and |hi + lo|: |hi -/+ lo| is at most
    PAIR_DEGENERACY_REL * (|lo| + |hi|), a cutoff taken term by term so that it is finite
    whenever |lo| and |hi| are.  <=, not <: a subnormal or zero pair's cutoff underflows to 0,
    and hi = +/- lo is still degenerate.  A magnitude past the float max (inf) decides nothing;
    the value it makes overflow names such a pair instead."""
    cutoff = PAIR_DEGENERACY_REL * lo + PAIR_DEGENERACY_REL * hi
    return cutoff < math.inf and (diff <= cutoff or summ <= cutoff)


@dataclass(frozen=True)
class ScalarPair:
    """Two scalars (lo, hi) playing the roles (gamma, Gamma), (m, M), (a, A), ..."""

    lo: Scalar
    hi: Scalar

    def coerced(self, tag: FieldTag) -> tuple[Scalar, Scalar]:
        lo, hi = complex(self.lo), complex(self.hi)
        if tag is FieldTag.REAL:
            if lo.imag != 0.0 or hi.imag != 0.0:
                raise FieldMismatchError("complex scalar pair over a real space")
            return lo.real, hi.real
        return lo, hi

    @property
    def diff(self) -> complex:
        return complex(self.hi) - complex(self.lo)

    @property
    def summ(self) -> complex:
        return complex(self.hi) + complex(self.lo)

    @property
    def mid(self) -> complex:
        return 0.5 * (complex(self.hi) + complex(self.lo))

    def is_degenerate(self) -> bool:
        lo, hi = abs(complex(self.lo)), abs(complex(self.hi))
        return _degenerate(lo, hi, abs(self.diff), abs(self.summ))

    def require_nondegenerate(self) -> None:
        if self.is_degenerate():
            raise DegeneratePairError(
                f"pair ({self.lo!r}, {self.hi!r}): hi is within relative {PAIR_DEGENERACY_REL} of +/- lo"
            )


def in_closed_ball(x: Vector, a: Vector, r: float) -> ConditionReport:
    """Membership of x in the closed ball of radius r about a."""
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    check_same_space(x, a)
    return _ball(x, a.coords, norm(a), r)


def two_sided_realpart(x: Vector, y: Vector, pair: ScalarPair) -> ConditionReport:
    """Re<hi*y - x, x - lo*y> >= 0, reported with its signed margin."""
    check_same_space(x, y)
    lo, hi = pair.coerced(x.field)
    return _pair_realpart(x, y, lo, hi)


def two_sided_ball(x: Vector, y: Vector, pair: ScalarPair) -> ConditionReport:
    """||x - mid*y|| <= |hi - lo|/2 * ||y||, reported with its signed margin."""
    check_same_space(x, y)
    lo, hi = pair.coerced(x.field)
    center = (lo + hi) / 2 * y.coords
    radius = 0.5 * abs(hi - lo) * norm(y)
    return _ball(x, center, _array_norm(center), radius)


def _family_pairs(
    fam: OrthonormalFamily, gammas: CoefficientSequence, Gammas: CoefficientSequence
) -> None:
    if len(gammas) != len(Gammas):
        raise DimensionMismatchError(f"sequence lengths differ: {len(gammas)} vs {len(Gammas)}")
    if len(gammas) != fam.size:
        raise DimensionMismatchError(
            f"{len(gammas)} coefficients for a family of {fam.size} members"
        )
    if gammas.field is not fam.field or Gammas.field is not fam.field:
        raise FieldMismatchError("coefficient sequences must share the family's field")


def _coefficient_pair(
    fam: OrthonormalFamily, gammas: CoefficientSequence, Gammas: CoefficientSequence
) -> tuple[float, float]:
    """(||Gamma - gamma||, ||Gamma + gamma||) of a pair that fits `fam`, rejected by `ScalarPair`'s
    rule on the norms ||gamma||, ||Gamma|| and these two."""
    _family_pairs(fam, gammas, Gammas)
    diff = _array_norm(Gammas.entries - gammas.entries)
    summ = _array_norm(Gammas.entries + gammas.entries)
    if _degenerate(gammas.norm, Gammas.norm, diff, summ):
        raise DegeneratePairError(
            "coefficient sequences are degenerate: Gamma within relative "
            f"{PAIR_DEGENERACY_REL} of +/- gamma"
        )
    return diff, summ


def family_two_sided(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
    form: ConditionForm = ConditionForm.BALL,
) -> ConditionReport:
    """Two-sided condition against a family: per-index pair (gamma_i, Gamma_i).

    Ball form:      ||x - sum((gamma_i+Gamma_i)/2) e_i|| <= ||Gamma - gamma|| / 2
    Real-part form: Re< sum(Gamma_i e_i) - x, x - sum(gamma_i e_i) > >= 0
    """
    check_same_space(x, fam.members[0])
    _family_pairs(fam, gammas, Gammas)
    if ConditionForm(form) is ConditionForm.REAL_PART:
        upper, lower = _synthesized(Gammas, fam), _synthesized(gammas, fam)
        margin = _real_part(upper - x.coords, x.coords - lower)
        nx, nG = norm(x), Gammas.norm
        return _report(margin, ConditionForm.REAL_PART, 1.0 + nx * nx + nG * nG)
    return _family_ball(x, fam, gammas, Gammas, _array_norm(Gammas.entries - gammas.entries))


def _family_ball(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
    diff: float,
) -> ConditionReport:
    """Ball form of `family_two_sided`, with x and the pair already checked against `fam` and
    diff = ||Gamma - gamma|| already taken."""
    center = _combination(0.5 * (gammas.entries + Gammas.entries), fam)
    return _ball(x, center, _array_norm(center), 0.5 * diff)
