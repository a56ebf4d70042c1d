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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import (
    ConditionForm,
    ConditionReport,
    PAIR_DEGENERACY_REL,
    SingleCondition,
    family_two_sided,
    in_closed_ball,
)
from .errors import DegeneratePairError, PreconditionError
from .gruss import GrussReport
from .schwarz import BoundChain
from .space import (
    CoefficientSequence,
    OrthonormalFamily,
    Vector,
    check_same_space,
    fourier_coefficients,
    inner,
    norm,
    synthesize,
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


def _seq_pair_check(gammas: CoefficientSequence, Gammas: CoefficientSequence) -> tuple[float, float]:
    """Return (sum|G-g|^2, sum|G+g|^2), raising if either is degenerate."""
    diff = Gammas.entries - gammas.entries
    summ = Gammas.entries + gammas.entries
    diff_sq = float(np.vdot(diff, diff).real)
    summ_sq = float(np.vdot(summ, summ).real)
    mass = Gammas.norm + gammas.norm
    cutoff = (PAIR_DEGENERACY_REL * mass) ** 2
    if mass == 0.0 or diff_sq < cutoff or summ_sq < cutoff:
        raise DegeneratePairError(
            "coefficient sequences are degenerate: Gamma within relative "
            f"{PAIR_DEGENERACY_REL} of +/- gamma"
        )
    return diff_sq, summ_sq


def bessel_reverse_ball(
    x: Vector, fam: OrthonormalFamily, lam: CoefficientSequence, r: float
) -> BesselReport:
    """Defect bound r^2 / (2 sqrt(sum|lambda_i|^2)) under ||x - sum lambda_i e_i|| <= r."""
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    if lam.sq_norm == 0.0:
        raise PreconditionError("lambda must be nonzero")
    center = synthesize(lam, fam)
    report = in_closed_ball(x, center, r)
    nx = norm(x)
    cn = fourier_coefficients(x, fam).norm
    lam_norm = lam.sq_norm ** 0.5
    bound = 0.5 * r * r / lam_norm
    additive = BoundChain(
        ADDITIVE_LABELS,
        (
            0.0,
            nx * nx - cn * cn,
            0.5 * r * r * (nx + cn) / lam_norm,
            r * r * nx / lam_norm,
        ),
        report,
    )
    return BesselReport(nx, cn, nx - cn, bound, additive, report)


def bessel_reverse_pair(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
) -> BesselReport:
    """Defect bound sum|G_i-g_i|^2 / (4 sqrt(sum|G_i+g_i|^2)) under the family condition."""
    diff_sq, summ_sq = _seq_pair_check(gammas, Gammas)
    report = family_two_sided(x, fam, gammas, Gammas, ConditionForm.BALL)
    nx = norm(x)
    cn = fourier_coefficients(x, fam).norm
    ratio = diff_sq / summ_sq ** 0.5
    bound = 0.25 * ratio
    additive = BoundChain(
        ADDITIVE_LABELS,
        (
            0.0,
            nx * nx - cn * cn,
            0.25 * ratio * (nx + cn),
            0.5 * ratio * nx,
        ),
        report,
    )
    return BesselReport(nx, cn, nx - cn, bound, additive, report)


def _family_terms(x: Vector, y: Vector, fam: OrthonormalFamily) -> tuple[float, ...]:
    """(`gruss_orthonormal_gap`, ||x||, ||y||, (sum_i |<x,e_i>|^2)^(1/2), the y analogue)."""
    check_same_space(x, y)
    cx = fourier_coefficients(x, fam)
    cy = fourier_coefficients(y, fam)
    # sum <x,e_i><e_i,y> = sum cx_i conj(cy_i)
    gap = abs(complex(inner(x, y)) - complex(np.vdot(cy.entries, cx.entries)))
    return gap, norm(x), norm(y), cx.norm, cy.norm


def gruss_orthonormal_gap(x: Vector, y: Vector, fam: OrthonormalFamily) -> float:
    """|<x,y> - sum_i <x,e_i><e_i,y>|."""
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
    if lam.sq_norm == 0.0 or mu.sq_norm == 0.0:
        raise PreconditionError("lambda and mu must be nonzero")
    if not (r1 > 0 and r2 > 0):
        raise PreconditionError("radii must be positive")
    rep_x = in_closed_ball(x, synthesize(lam, fam), r1)
    rep_y = in_closed_ball(y, synthesize(mu, fam), r2)
    gap, nx, ny, cnx, cny = _family_terms(x, y, fam)
    denom = lam.sq_norm ** 0.25 * mu.sq_norm ** 0.25
    first = 0.5 * r1 * r2 * (nx + cnx) ** 0.5 * (ny + cny) ** 0.5 / denom
    second = r1 * r2 * (nx * ny) ** 0.5 / denom
    bounds = (("half_residual", first), ("norm_route", second))
    # first <= second (Bessel: cnx <= nx); the intermediates assert it
    return GrussReport(
        gap=gap,
        bounds=bounds,
        admissibility=(rep_x, rep_y),
        intermediates=bounds,
    )


def gruss_orthonormal_pair(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    gammas_x: CoefficientSequence,
    Gammas_x: CoefficientSequence,
    phis_y: CoefficientSequence,
    Phis_y: CoefficientSequence,
) -> GrussReport:
    """Family Gruss bounds under the two-sided sequence conditions for x and y."""
    diff_x, summ_x = _seq_pair_check(gammas_x, Gammas_x)
    diff_y, summ_y = _seq_pair_check(phis_y, Phis_y)
    rep_x = family_two_sided(x, fam, gammas_x, Gammas_x, ConditionForm.BALL)
    rep_y = family_two_sided(y, fam, phis_y, Phis_y, ConditionForm.BALL)
    gap, nx, ny, cnx, cny = _family_terms(x, y, fam)
    factor = (diff_x * diff_y) ** 0.5 / (summ_x * summ_y) ** 0.25
    first = 0.25 * factor * (nx + cnx) ** 0.5 * (ny + cny) ** 0.5
    second = 0.5 * factor * (nx * ny) ** 0.5
    bounds = (("quarter_residual", first), ("half_norm", second))
    # first <= second (Bessel: cnx <= nx); the intermediates assert it
    return GrussReport(
        gap=gap,
        bounds=bounds,
        admissibility=(rep_x, rep_y),
        intermediates=bounds,
    )
