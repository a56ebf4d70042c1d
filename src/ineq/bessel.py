"""Reverse Bessel inequalities and their Gruss-type analogues for orthonormal families.

With (e_i) orthonormal and c_i = <x, e_i>, Bessel gives
(sum |c_i|^2)^(1/2) <= ||x||.  Under the ball hypothesis
||x - sum lambda_i e_i|| <= r (lambda != 0) the defect is bounded:

    0 <= ||x|| - (sum|c_i|^2)^(1/2) <= r^2 / (2 (sum|lambda_i|^2)^(1/2)),

and the two-sided sequence hypothesis gives the same with the substitution
lambda_i = (Gamma_i + gamma_i)/2, r = (sum|Gamma_i - gamma_i|^2)^(1/2) / 2,
which is exactly how the pair bound

    1/4 * sum|Gamma_i - gamma_i|^2 / (sum|Gamma_i + gamma_i|^2)^(1/2)

arises; the implementation keeps the two code paths separate and the test
suite checks they agree.  Each report also carries the squared (additive)
chain obtained by multiplying through by ||x|| + (sum|c_i|^2)^(1/2).

The Gruss-type results bound |<x,y> - sum <x,e_i><e_i,y>| by applying the
Schwarz inequality to the projection residuals of x and y and then the
additive chains above to each factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .conditions import (
    ConditionReport,
    SingleCondition,
    _ball,
    _coefficient_pair,
    _family_ball,
)
from .errors import PreconditionError
from .gruss import GrussReport, _ordered_pair
from .schwarz import BoundChain
from .space import (
    CoefficientSequence,
    OrthonormalFamily,
    Vector,
    _array_norm,
    _synthesized,
    _vdot,
    check_same_space,
    fourier_coefficients,
    norm,
)

ADDITIVE_LABELS = ("zero", "residual_sq", "half_route", "bound")


@dataclass(frozen=True)
class BesselReport(SingleCondition):
    """Bessel defect ||x|| - (sum|<x,e_i>|^2)^(1/2) with its certified bound.

    additive_chain carries the squared-level chain; for the older squared
    results, `chain` carries the multiplicative chain and `bound` is the
    defect bound it implies.  Every link of both chains is asserted, then
    gap <= bound.
    """

    norm_x: float
    coeff_norm: float
    gap: float
    bound: float
    additive_chain: Optional[BoundChain]
    admissibility: ConditionReport
    chain: Optional[BoundChain] = None

    @property
    def comparisons(self) -> tuple[tuple[str, float, str, float], ...]:
        comps = () if self.chain is None else self.chain.comparisons
        if self.additive_chain is not None:
            comps += self.additive_chain.comparisons
        return comps + (("gap", self.gap, "bound", self.bound),)


def bessel_reverse_ball(
    x: Vector, fam: OrthonormalFamily, lam: CoefficientSequence, r: float
) -> BesselReport:
    """Defect bound r^2 / (2 ||lambda||) under ||x - sum lambda_i e_i|| <= r, formed as
    r (r / ||lambda||) so that no square leaves the range on its own."""
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    if lam.norm == 0.0:
        raise PreconditionError("lambda must be nonzero")
    report = _family_center_ball(x, fam, lam, r)
    nx = norm(x)
    cn = fourier_coefficients(x, fam).norm
    ratio = r * (r / lam.norm)
    bound = 0.5 * ratio
    chain = (0.0, nx * nx - cn * cn, 0.5 * ratio * (nx + cn), ratio * nx)
    additive = BoundChain(ADDITIVE_LABELS, chain, report)
    return BesselReport(nx, cn, nx - cn, bound, additive, report)


def bessel_reverse_pair(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
) -> BesselReport:
    """Defect bound ||G-g||^2 / (4 ||G+g||) under the family condition, formed as
    ||G-g|| (||G-g|| / ||G+g||) so that no square leaves the range on its own."""
    diff, summ = _coefficient_pair(fam, gammas, Gammas)
    check_same_space(x, fam.members[0])
    report = _family_ball(x, fam, gammas, Gammas, diff)
    nx = norm(x)
    cn = fourier_coefficients(x, fam).norm
    ratio = diff * (diff / summ)
    bound = 0.25 * ratio
    chain = (0.0, nx * nx - cn * cn, 0.25 * ratio * (nx + cn), 0.5 * ratio * nx)
    additive = BoundChain(ADDITIVE_LABELS, chain, report)
    return BesselReport(nx, cn, nx - cn, bound, additive, report)


def _family_center_ball(
    x: Vector, fam: OrthonormalFamily, lam: CoefficientSequence, r: float
) -> ConditionReport:
    """`in_closed_ball(x, synthesize(lam, fam), r)` for r > 0, the center left as coordinates."""
    center = _synthesized(lam, fam)
    check_same_space(x, fam.members[0])
    return _ball(x, center, _array_norm(center), r)


def _family_terms(x: Vector, y: Vector, fam: OrthonormalFamily) -> tuple[float, ...]:
    """(`gruss_orthonormal_gap`, ||x||, ||y||, (sum_i |<x,e_i>|^2)^(1/2), the y analogue)
    for x and y known to share a space."""
    cx = fourier_coefficients(x, fam)
    cy = fourier_coefficients(y, fam)
    # sum <x,e_i><e_i,y> = sum cx_i conj(cy_i)
    gap = abs(_vdot(x.coords, y.coords) - _vdot(cx.entries, cy.entries))
    return gap, norm(x), norm(y), cx.norm, cy.norm


def gruss_orthonormal_gap(x: Vector, y: Vector, fam: OrthonormalFamily) -> float:
    """|<x,y> - sum_i <x,e_i><e_i,y>|."""
    check_same_space(x, y)
    return _family_terms(x, y, fam)[0]


def gruss_orthonormal_ball(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    lam: CoefficientSequence,
    mu: CoefficientSequence,
    r1: float,
    r2: float,
) -> GrussReport:
    """Family Gruss bounds under ||x - sum lambda_i e_i|| <= r1 and the y analogue."""
    if lam.norm == 0.0 or mu.norm == 0.0:
        raise PreconditionError("lambda and mu must be nonzero")
    if not (r1 > 0 and r2 > 0):
        raise PreconditionError("radii must be positive")
    rep_x = _family_center_ball(x, fam, lam, r1)
    rep_y = _family_center_ball(y, fam, mu, r2)
    gap, nx, ny, cnx, cny = _family_terms(x, y, fam)
    denom = math.sqrt(lam.norm) * math.sqrt(mu.norm)
    first = 0.5 * r1 * r2 * math.sqrt(nx + cnx) * math.sqrt(ny + cny) / denom
    second = r1 * r2 * math.sqrt(nx * ny) / denom
    bounds = (("half_residual", first), ("norm_route", second))
    # first <= second (Bessel: cnx <= nx); the intermediates assert it
    return GrussReport(gap=gap, bounds=bounds, admissibility=(rep_x, rep_y), intermediates=bounds)


def gruss_orthonormal_pair(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    gammas_x: CoefficientSequence,
    Gammas_x: CoefficientSequence,
    phis_y: CoefficientSequence,
    Phis_y: CoefficientSequence,
) -> GrussReport:
    """Family Gruss bounds under the two-sided sequence conditions for x and y.

    Their factor ||G-g|| ||P-p|| / (||G+g|| ||P+p||)^(1/2) is formed one pair at a time, as
    `gruss_pair`'s is, so that no product of norms leaves the range on its own.
    """
    diff_x, summ_x = _coefficient_pair(fam, gammas_x, Gammas_x)
    diff_y, summ_y = _coefficient_pair(fam, phis_y, Phis_y)
    check_same_space(x, fam.members[0])
    rep_x = _family_ball(x, fam, gammas_x, Gammas_x, diff_x)
    check_same_space(y, fam.members[0])
    rep_y = _family_ball(y, fam, phis_y, Phis_y, diff_y)
    gap, nx, ny, cnx, cny = _family_terms(x, y, fam)
    factor = diff_x / math.sqrt(summ_x) * (diff_y / math.sqrt(summ_y))
    return _ordered_pair(gap, factor, nx, cnx, ny, cny, rep_x, rep_y)
