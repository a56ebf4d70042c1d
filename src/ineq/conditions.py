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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DegeneratePairError, DimensionMismatchError, FieldMismatchError, PreconditionError
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Scalar,
    Vector,
    check_same_space,
    inner,
    norm,
    synthesize,
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
    """Outcome of an admissibility check; margin >= -tol iff holds."""

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
    tol = BOUNDARY_REL * scale
    return ConditionReport(margin >= -tol, float(margin), form, tol)


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
        mass = abs(complex(self.lo)) + abs(complex(self.hi))
        if mass == 0.0:
            return True
        cutoff = PAIR_DEGENERACY_REL * mass
        return abs(self.diff) < cutoff or abs(self.summ) < cutoff

    def require_nondegenerate(self) -> None:
        if self.is_degenerate():
            raise DegeneratePairError(
                f"pair ({self.lo!r}, {self.hi!r}): hi is within relative {PAIR_DEGENERACY_REL} of +/- lo"
            )


def quad_scale(x: Vector, y: Vector, pair: ScalarPair) -> float:
    """Boundary-band scale for real-part margins: 1 + ||x||^2 + |hi|^2 ||y||^2."""
    return 1.0 + norm(x) ** 2 + abs(complex(pair.hi)) ** 2 * norm(y) ** 2


def in_closed_ball(x: Vector, a: Vector, r: float) -> ConditionReport:
    """Membership of x in the closed ball of radius r about a."""
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    check_same_space(x, a)
    margin = r - norm(x - a)
    scale = 1.0 + norm(x) + norm(a) + r
    return _report(margin, ConditionForm.BALL, scale)


def two_sided_realpart(x: Vector, y: Vector, pair: ScalarPair) -> ConditionReport:
    """Re<hi*y - x, x - lo*y> >= 0, reported with its signed margin."""
    check_same_space(x, y)
    lo, hi = pair.coerced(x.field)
    margin = inner(y.scaled(hi) - x, x - y.scaled(lo))
    margin = margin.real if isinstance(margin, complex) else margin
    return _report(margin, ConditionForm.REAL_PART, quad_scale(x, y, pair))


def two_sided_ball(x: Vector, y: Vector, pair: ScalarPair) -> ConditionReport:
    """||x - mid*y|| <= |hi - lo|/2 * ||y||, reported with its signed margin."""
    check_same_space(x, y)
    lo, hi = pair.coerced(x.field)
    mid = (lo + hi) / 2
    radius = 0.5 * abs(hi - lo) * norm(y)
    margin = radius - norm(x - y.scaled(mid))
    scale = 1.0 + norm(x) + (abs(mid) + 0.5 * abs(hi - lo)) * norm(y)
    return _report(margin, ConditionForm.BALL, scale)


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


def family_two_sided(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
    form: ConditionForm = ConditionForm.BALL,
) -> ConditionReport:
    """Two-sided condition against a family: per-index pair (gamma_i, Gamma_i).

    Ball form:      ||x - sum((gamma_i+Gamma_i)/2) e_i|| <= (sum|Gamma_i-gamma_i|^2)^(1/2) / 2
    Real-part form: Re< sum(Gamma_i e_i) - x, x - sum(gamma_i e_i) > >= 0
    """
    check_same_space(x, fam.members[0])
    _family_pairs(fam, gammas, Gammas)
    if isinstance(form, str):
        form = ConditionForm(form)
    diff_sq = float(
        ((Gammas.entries - gammas.entries) * (Gammas.entries - gammas.entries).conj()).real.sum()
    )
    if form is ConditionForm.BALL:
        mid = CoefficientSequence(0.5 * (gammas.entries + Gammas.entries), gammas.field)
        center = synthesize(mid, fam)
        radius = 0.5 * float(diff_sq) ** 0.5
        margin = radius - norm(x - center)
        scale = 1.0 + norm(x) + norm(center) + radius
        return _report(margin, ConditionForm.BALL, scale)
    upper = synthesize(Gammas, fam)
    lower = synthesize(gammas, fam)
    margin = inner(upper - x, x - lower)
    margin = margin.real if isinstance(margin, complex) else margin
    scale = 1.0 + norm(x) ** 2 + Gammas.sq_norm
    return _report(margin, ConditionForm.REAL_PART, scale)
