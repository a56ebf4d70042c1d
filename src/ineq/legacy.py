"""Older reverse-inequality bounds, kept alongside the new ones for comparison.

These are the predecessors of the results in `schwarz`, `triangle`, `gruss`
and `bessel`: squared-level reverse Schwarz bounds, the square-root-shaped
triangle reverses, the unit-ball Gruss bound, and the multiplicative reverse
Bessel chains.  They are implemented exactly as stated — including the
stricter hypotheses (r < ||a||, radii in (0,1), sum|lambda|^2 > r^2) that the
newer results drop — so the verification harness can evaluate old and new
bounds on identical instances.  No ordering between old and new bounds is
asserted anywhere; none holds in general.
"""

from __future__ import annotations

import numpy as np

from .conditions import (
    ConditionForm,
    ConditionReport,
    ScalarPair,
    family_two_sided,
    in_closed_ball,
    two_sided_realpart,
)
from .errors import PreconditionError
from .bessel import BesselReport, _seq_pair_check
from .gruss import GrussReport, _terms, require_unit
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
from .triangle import TriangleDefect, _defect, _require_range

SQUARED_BALL_LABELS = ("zero", "abs_gap", "real_gap", "bound")
SQUARED_PAIR_LABELS = ("norm_product_sq", "real_route", "bound")
ADDITIVE_LABELS = ("zero", "gap", "bound")
BESSEL_BALL_LABELS = ("norm_sq", "real_route", "abs_route", "bound")

# The ratio form of the Gruss pair bound is recorded only when the coefficient
# product is nonzero at this relative cutoff.
RATIO_EMIT_REL = 1e-12


def _strict_ball(x: Vector, a: Vector, r: float) -> float:
    """||a||, after checking x and a share a space and 0 < r < ||a||."""
    check_same_space(x, a)
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    na = norm(a)
    if not r < na:
        raise PreconditionError(
            f"radius must be smaller than the center norm: r={r}, ||a||={na}"
        )
    return na


def legacy_schwarz_ball(x: Vector, a: Vector, r: float) -> BoundChain:
    """Squared-level chain ||x||^2||a||^2 - |<x,a>|^2 <= ... <= r^2 ||x||^2.

    Requires r < ||a|| strictly, unlike the half-constant bound which has no
    such restriction.
    """
    na = _strict_ball(x, a, r)
    report = in_closed_ball(x, a, r)
    nx = norm(x)
    ip = inner(x, a)
    prod_sq = nx * nx * na * na
    return BoundChain(
        SQUARED_BALL_LABELS,
        (0.0, prod_sq - abs(ip) ** 2, prod_sq - complex(ip).real ** 2, r * r * nx * nx),
        report,
    )


def legacy_schwarz_pair(x: Vector, y: Vector, pair: ScalarPair) -> BoundChain:
    """Squared-level chain with constant |G+g|^2 / (4 Re(G conj(g))), plus additive form."""
    check_same_space(x, y)
    lo, hi = pair.coerced(x.field)
    gamma, Gamma = complex(lo), complex(hi)
    re_prod = (Gamma * gamma.conjugate()).real
    if not re_prod > 0:
        raise PreconditionError(
            f"Re(Gamma * conj(gamma)) must be positive, got {re_prod}"
        )
    report = two_sided_realpart(x, y, pair)
    nx, ny = norm(x), norm(y)
    ip = complex(inner(x, y))
    prod_sq = nx * nx * ny * ny
    aligned = ((Gamma + gamma).conjugate() * ip).real
    chain = BoundChain(
        SQUARED_PAIR_LABELS,
        (
            prod_sq,
            0.25 * aligned * aligned / re_prod,
            0.25 * abs(Gamma + gamma) ** 2 / re_prod * abs(ip) ** 2,
        ),
        report,
        additive=BoundChain(
            ADDITIVE_LABELS,
            (
                0.0,
                prod_sq - abs(ip) ** 2,
                0.25 * abs(Gamma - gamma) ** 2 / re_prod * abs(ip) ** 2,
            ),
            report,
        ),
    )
    return chain


def legacy_triangle_ball(x: Vector, a: Vector, r: float) -> TriangleDefect:
    """Triangle defect bound sqrt(2) r sqrt(Re<x,a> / (s (s + ||a||))), s = sqrt(||a||^2 - r^2)."""
    na = _strict_ball(x, a, r)
    re_ip = complex(inner(x, a)).real
    if re_ip < 0:
        raise PreconditionError(f"Re<x,a> must be nonnegative, got {re_ip}")
    report = in_closed_ball(x, a, r)
    s = (na * na - r * r) ** 0.5
    bound = 2.0 ** 0.5 * r * (re_ip / (s * (s + na))) ** 0.5
    return TriangleDefect(_defect(x, a), bound, report)


def legacy_triangle_pair(x: Vector, y: Vector, m: float, M: float) -> TriangleDefect:
    """Triangle defect bound (sqrt(M) - sqrt(m)) / (M m)^(1/4) * sqrt(Re<x,y>)."""
    check_same_space(x, y)
    _require_range(m, M)
    re_ip = complex(inner(x, y)).real
    if re_ip < 0:
        raise PreconditionError(f"Re<x,y> must be nonnegative, got {re_ip}")
    report = two_sided_realpart(x, y, ScalarPair(float(m), float(M)))
    bound = (M ** 0.5 - m ** 0.5) / (M * m) ** 0.25 * re_ip ** 0.5
    return TriangleDefect(_defect(x, y), bound, report)


def legacy_gruss_ball(x: Vector, y: Vector, e: Vector, r1: float, r2: float) -> GrussReport:
    """Gruss gap bound r1 r2 ||x|| ||y|| for x, y in balls of radii r1, r2 < 1 around unit e."""
    check_same_space(x, y)
    require_unit(e)
    if not (0 < r1 < 1 and 0 < r2 < 1):
        raise PreconditionError(f"radii must lie in (0, 1), got r1={r1}, r2={r2}")
    rep_x = in_closed_ball(x, e, r1)
    rep_y = in_closed_ball(y, e, r2)
    gap, _, _, _, nx, ny = _terms(x, y, e)
    return GrussReport(
        gap=gap,
        bounds=(("norm_product", r1 * r2 * nx * ny),),
        admissibility=(rep_x, rep_y),
    )


def legacy_gruss_pair(
    x: Vector, y: Vector, e: Vector, pair_x: ScalarPair, pair_y: ScalarPair
) -> GrussReport:
    """Gruss gap bound with constant |G-g||P-p| / (4 sqrt(Re(G conj(g)) Re(P conj(p)))).

    The bound multiplies |<x,e><e,y>| rather than the norms; when that product
    is nonzero (relative cutoff 1e-12) the equivalent ratio form
    gap / |<x,e><e,y>| <= constant is recorded in the intermediates.
    """
    check_same_space(x, y)
    require_unit(e)
    lo_x, hi_x = pair_x.coerced(x.field)
    gamma, Gamma = complex(lo_x), complex(hi_x)
    lo_y, hi_y = pair_y.coerced(x.field)
    phi, Phi = complex(lo_y), complex(hi_y)
    re_x = (Gamma * gamma.conjugate()).real
    re_y = (Phi * phi.conjugate()).real
    if not (re_x > 0 and re_y > 0):
        raise PreconditionError(
            "Re(Gamma * conj(gamma)) and Re(Phi * conj(phi)) must be positive, "
            f"got {re_x} and {re_y}"
        )
    rep_x = two_sided_realpart(x, e, pair_x)
    rep_y = two_sided_realpart(y, e, pair_y)
    constant = 0.25 * abs(Gamma - gamma) * abs(Phi - phi) / (re_x * re_y) ** 0.5
    gap, abs_prod, _, _, nx, ny = _terms(x, y, e)
    intermediates: tuple[tuple[str, float], ...] = ()
    if abs_prod > RATIO_EMIT_REL * nx * ny:
        intermediates = (("ratio", gap / abs_prod), ("ratio_bound", constant))
    return GrussReport(
        gap=gap,
        bounds=(("coefficient_product", constant * abs_prod),),
        admissibility=(rep_x, rep_y),
        intermediates=intermediates,
    )


def _multiplicative_bessel(
    x: Vector,
    fam: OrthonormalFamily,
    report: ConditionReport,
    weights: np.ndarray,
    c: float,
    denom: float,
    chain_num: float,
    additive_num: float,
) -> BesselReport:
    """||x||^2 <= c Re(m)^2/denom <= c|m|^2/denom <= c chain_num/denom sum|c_i|^2 and the additive
    bound c additive_num/denom sum|c_i|^2, m = sum conj(w_i) c_i; c = 1.0 keeps the bits exactly."""
    nx = norm(x)
    coeffs = fourier_coefficients(x, fam)
    cn = coeffs.norm
    mixed = complex(np.vdot(weights, coeffs.entries))
    chain = BoundChain(
        BESSEL_BALL_LABELS,
        (
            nx * nx,
            c * mixed.real ** 2 / denom,
            c * abs(mixed) ** 2 / denom,
            c * chain_num / denom * cn * cn,
        ),
        report,
    )
    additive = BoundChain(
        ADDITIVE_LABELS,
        (0.0, nx * nx - cn * cn, c * additive_num / denom * cn * cn),
        report,
    )
    bound = chain.bound ** 0.5 - cn
    return BesselReport(nx, cn, nx - cn, bound, additive, report, chain=chain)


def legacy_bessel_ball(
    x: Vector, fam: OrthonormalFamily, lam: CoefficientSequence, r: float
) -> BesselReport:
    """Multiplicative reverse Bessel chain with factor sum|lam|^2 / (sum|lam|^2 - r^2).

    Requires sum |lambda_i|^2 > r^2.  The additive companion bounds
    ||x||^2 - sum|c_i|^2 by r^2/(sum|lam|^2 - r^2) * sum|c_i|^2.
    """
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    excess = lam.sq_norm - r * r
    if not excess > 0:
        raise PreconditionError(
            f"need sum|lambda|^2 > r^2, got {lam.sq_norm} <= {r * r}"
        )
    report = in_closed_ball(x, synthesize(lam, fam), r)
    return _multiplicative_bessel(x, fam, report, lam.entries, 1.0, excess, lam.sq_norm, r * r)


def legacy_bessel_pair(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
) -> BesselReport:
    """Multiplicative reverse Bessel chain with factor sum|G+g|^2 / (4 sum Re(G conj(g)))."""
    diff_sq, summ_sq = _seq_pair_check(gammas, Gammas)
    re_sum = float(np.vdot(gammas.entries, Gammas.entries).real)
    if not re_sum > 0:
        raise PreconditionError(
            f"sum Re(Gamma_i * conj(gamma_i)) must be positive, got {re_sum}"
        )
    report = family_two_sided(x, fam, gammas, Gammas, ConditionForm.BALL)
    weights = Gammas.entries + gammas.entries
    return _multiplicative_bessel(x, fam, report, weights, 0.25, re_sum, summ_sq, diff_sq)
