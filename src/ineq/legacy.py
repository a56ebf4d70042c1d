"""Older reverse-inequality bounds, kept alongside the new ones for comparison.

These are the predecessors of the results in `schwarz`, `triangle`, `gruss`
and `bessel`: squared-level reverse Schwarz bounds, the square-root-shaped
triangle reverses, the unit-ball Gruss bound, and the multiplicative reverse
Bessel chains.  They are implemented exactly as stated, including the
stricter hypotheses (r < ||a||, radii in (0,1), ||lambda|| > r) that the
newer results drop.  The harness certifies each on its own instances: a
legacy id draws from its own stream, through its new counterpart's sampler
with options that meet those hypotheses, so no instance is evaluated by
both.  No ordering between old and new bounds is asserted anywhere; none
holds in general.
"""

from __future__ import annotations

import math

import numpy as np

from .conditions import (
    ConditionReport,
    ScalarPair,
    _ball,
    _coefficient_pair,
    _family_ball,
    _pair_realpart,
    _real_part,
    in_closed_ball,
    two_sided_realpart,
)
from .errors import PreconditionError
from .bessel import BesselReport, _family_center_ball
from .gruss import GrussReport, _terms, require_unit
from .schwarz import BoundChain
from .space import (
    CoefficientSequence,
    OrthonormalFamily,
    Vector,
    _vdot,
    check_same_space,
    fourier_coefficients,
    norm,
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
    report = _ball(x, a.coords, na, r)
    nx = norm(x)
    ip = _vdot(x.coords, a.coords)
    prod_sq = nx * nx * na * na
    return BoundChain(
        SQUARED_BALL_LABELS,
        (0.0, prod_sq - abs(ip) ** 2, prod_sq - ip.real ** 2, r * r * nx * nx),
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
    report = _pair_realpart(x, y, lo, hi)
    nx, ny = norm(x), norm(y)
    ip = _vdot(x.coords, y.coords)
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
    re_ip = _real_part(x.coords, a.coords)
    if re_ip < 0:
        raise PreconditionError(f"Re<x,a> must be nonnegative, got {re_ip}")
    report = _ball(x, a.coords, na, r)
    s = math.sqrt(na * na - r * r)
    bound = math.sqrt(2.0) * r * math.sqrt(re_ip / (s * (s + na)))
    return TriangleDefect(_defect(x, a), bound, report)


def legacy_triangle_pair(x: Vector, y: Vector, m: float, M: float) -> TriangleDefect:
    """Triangle defect bound (sqrt(M) - sqrt(m)) / (M m)^(1/4) * sqrt(Re<x,y>)."""
    check_same_space(x, y)
    _require_range(m, M)
    re_ip = _real_part(x.coords, y.coords)
    if re_ip < 0:
        raise PreconditionError(f"Re<x,y> must be nonnegative, got {re_ip}")
    report = _pair_realpart(x, y, *ScalarPair(float(m), float(M)).coerced(x.field))
    bound = (math.sqrt(M) - math.sqrt(m)) / (M * m) ** 0.25 * math.sqrt(re_ip)
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
    bounds = (("norm_product", r1 * r2 * nx * ny),)
    return GrussReport(gap=gap, bounds=bounds, admissibility=(rep_x, rep_y))


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
    constant = 0.25 * abs(Gamma - gamma) * abs(Phi - phi) / math.sqrt(re_x * re_y)
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


def _unit_scaled(size: float, radius: float, *entries: np.ndarray) -> tuple:
    """size, radius and the float views of `entries`, each times 2^k ~ 1 / size, which is exact."""
    k = -math.frexp(size)[1]
    views = (np.ldexp(e.view(np.float64), k) for e in entries)
    return (math.ldexp(size, k), math.ldexp(radius, k), *views)


def _multiplicative_bessel(
    x: Vector, fam: OrthonormalFamily, report: ConditionReport, w: np.ndarray, s: float,
    r: float, q: float,
) -> BesselReport:
    """The chain ||x||^2 <= Re(m)^2/q <= |m|^2/q <= s^2/q sum|c_i|^2 and the additive bound
    r^2/q sum|c_i|^2 for x in the ball of radius r < s = ||w|| about sum w_i e_i, where
    m = sum conj(w_i) c_i and q = s^2 - r^2.

    w, s and r come from `_unit_scaled`, and q is scaled to match by 2^(2k).  That scaling is
    exact and cancels from every value, so none of them is squared past the range: the chain
    leaves it only where ||x||^2 does.
    """
    nx = norm(x)
    coeffs = fourier_coefficients(x, fam)
    cn = coeffs.norm
    mixed = _vdot(coeffs.entries, w)
    chain = BoundChain(
        BESSEL_BALL_LABELS,
        (nx * nx, mixed.real ** 2 / q, abs(mixed) ** 2 / q, s * s / q * cn * cn),
        report,
    )
    additive = BoundChain(ADDITIVE_LABELS, (0.0, nx * nx - cn * cn, r * r / q * cn * cn), report)
    bound = math.sqrt(chain.bound) - cn
    return BesselReport(nx, cn, nx - cn, bound, additive, report, chain=chain)


def legacy_bessel_ball(
    x: Vector, fam: OrthonormalFamily, lam: CoefficientSequence, r: float
) -> BesselReport:
    """Multiplicative reverse Bessel chain with factor ||lam||^2 / (||lam||^2 - r^2).

    Requires ||lambda|| > r.  The additive companion bounds ||x||^2 - sum|c_i|^2 by
    r^2/(||lam||^2 - r^2) * sum|c_i|^2.  The denominator is formed as
    (||lam|| - r)(||lam|| + r), which does not cancel as sum|lam|^2 - r^2 does.
    """
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    if not lam.norm > r:
        raise PreconditionError(f"need ||lambda|| > r, got {lam.norm} <= {r}")
    report = _family_center_ball(x, fam, lam, r)
    s, rs, w = _unit_scaled(lam.norm, r, lam.entries)
    return _multiplicative_bessel(
        x, fam, report, w.view(lam.entries.dtype), s, rs, (s - rs) * (s + rs)
    )


def legacy_bessel_pair(
    x: Vector,
    fam: OrthonormalFamily,
    gammas: CoefficientSequence,
    Gammas: CoefficientSequence,
) -> BesselReport:
    """Multiplicative reverse Bessel chain with factor sum|G+g|^2 / (4 sum Re(G conj(g))).

    That is `legacy_bessel_ball`'s chain over the weights G+g with radius ||G-g||, whose
    denominator ||G+g||^2 - ||G-g||^2 is taken as the dot 4 sum Re(G_i conj(g_i)) of the
    scaled float views: unlike the difference of the two norms, it does not cancel when g is
    small against G.  A dot that is not positive is decided exactly, over the unscaled views:
    a sum <= 0 fails the hypothesis, and a positive sum whose scaled form rounds to 0 raises
    ZeroDivisionError, as that denominator leaves double precision.
    """
    diff, summ = _coefficient_pair(fam, gammas, Gammas)
    s, d, g, G = _unit_scaled(summ, diff, gammas.entries, Gammas.entries)
    re_sum = _vdot(g, G).real  # 2^(2k) sum Re(G_i conj(g_i)), over the float views
    if not re_sum > 0:
        from fractions import Fraction  # this rare branch alone needs it

        views = (e.view(np.float64).tolist() for e in (gammas.entries, Gammas.entries))
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(*views))
        unscaled = _vdot(Gammas.entries, gammas.entries).real
        if not exact > 0:
            raise PreconditionError(
                f"sum Re(Gamma_i * conj(gamma_i)) must be positive, got {unscaled}"
            )
        re_sum = float(exact * Fraction(4) ** -math.frexp(summ)[1])  # the scale of the views
        if re_sum == 0.0:
            raise ZeroDivisionError(
                f"sum Re(Gamma_i * conj(gamma_i)) is {unscaled}, but 0 at the scale of ||G + g||"
            )
    check_same_space(x, fam.members[0])
    report = _family_ball(x, fam, gammas, Gammas, diff)
    weights = (G + g).view(Gammas.entries.dtype)
    return _multiplicative_bessel(x, fam, report, weights, s, d, 4.0 * re_sum)
