"""Gruss-type bounds for the functional <x,y> - <x,e><e,y> with ||e|| = 1.

Everything rests on the residual Schwarz step: applying the Schwarz
inequality to x - <x,e>e and y - <y,e>e gives

    |<x,y> - <x,e><e,y>|^2 <= (||x||^2 - |<x,e>|^2) (||y||^2 - |<y,e>|^2),

after which each theorem bounds the two residual factors using a reverse
Schwarz inequality under its own hypothesis (ball around e, or a two-sided
scalar pair against e).

Note on the ball bounds: the half-constant bound
(1/2) r1 r2 sqrt(||x||+|<x,e>|) sqrt(||y||+|<y,e>|) and the plain bound
r1 r2 ||x|| ||y|| are *separate* consequences of the hypothesis; neither
dominates the other pointwise (with x = y = e/2 and r1 = r2 = 1/2 the
half-constant bound is the larger one), so reports carry them as individual
certificates rather than as a chain.  The two-sided variants use
sqrt(||x|| ||y||) in their second bound, which restores the ordering there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditions import ConditionReport, ScalarPair, in_closed_ball, two_sided_realpart
from .errors import NotUnitVectorError
from .space import Vector, inner, norm

#: Base vectors must be unit within this tolerance; never renormalized.
UNIT_TOL = 1e-10


@dataclass(frozen=True)
class GrussReport:
    """Gap plus one or two labeled bounds and the per-vector admissibility reports.

    The gap is compared with every bound; the headline bound is the last.
    `intermediates` lists further asserted comparisons as consecutive
    (lhs, rhs) entries.
    """

    gap: float
    bounds: tuple[tuple[str, float], ...]
    admissibility: tuple[ConditionReport, ConditionReport]
    intermediates: tuple[tuple[str, float], ...] = ()

    @property
    def bound_values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.bounds)

    @property
    def admissible(self) -> bool:
        return all(rep.holds for rep in self.admissibility)

    @property
    def margin(self) -> float:
        return min(rep.margin for rep in self.admissibility)

    @property
    def bound(self) -> float:
        return self.bounds[-1][1]

    @property
    def comparisons(self) -> tuple[tuple[str, float, str, float], ...]:
        inter = self.intermediates
        return tuple(("gap", self.gap, label, value) for label, value in self.bounds) + tuple(
            inter[i] + inter[i + 1] for i in range(0, len(inter) - 1, 2)
        )


def require_unit(e: Vector) -> None:
    if abs(norm(e) - 1.0) > UNIT_TOL:
        raise NotUnitVectorError(f"||e|| = {norm(e)!r} is not 1 within {UNIT_TOL}")


def _terms(x: Vector, y: Vector, e: Vector) -> tuple[float, ...]:
    """(`gruss_gap`, |<x,e><e,y>|, |<x,e>|, |<e,y>|, ||x||, ||y||) for e past `require_unit`."""
    xy = complex(inner(x, y))
    xe, ey = complex(inner(x, e)), complex(inner(e, y))
    prod = xe * ey
    return abs(xy - prod), abs(prod), abs(xe), abs(ey), norm(x), norm(y)


def gruss_gap(x: Vector, y: Vector, e: Vector) -> float:
    """|<x,y> - <x,e><e,y>|."""
    require_unit(e)
    return _terms(x, y, e)[0]


def gruss_ball(x: Vector, y: Vector, e: Vector, r1: float, r2: float) -> GrussReport:
    """Both bounds of the ball theorem: hypotheses ||x-e|| <= r1, ||y-e|| <= r2."""
    require_unit(e)
    rep_x = in_closed_ball(x, e, r1)
    rep_y = in_closed_ball(y, e, r2)
    gap, _, axe, aye, nx, ny = _terms(x, y, e)
    half = 0.5 * r1 * r2 * (nx + axe) ** 0.5 * (ny + aye) ** 0.5
    plain = r1 * r2 * nx * ny
    return GrussReport(
        gap=gap,
        bounds=(("half_residual", half), ("norm_product", plain)),
        admissibility=(rep_x, rep_y),
    )


def gruss_ball_refined(x: Vector, y: Vector, e: Vector, r1: float, r2: float) -> GrussReport:
    """Refined single ball bound r1 r2 sqrt(r1^2/4 + |<x,e>|) sqrt(r2^2/4 + |<y,e>|).

    The squared-residual facts it rests on are exposed as intermediates:
    ||x||^2 - |<x,e>|^2 <= r1^2 (r1^2/4 + |<x,e>|), and the y analogue.
    """
    require_unit(e)
    rep_x = in_closed_ball(x, e, r1)
    rep_y = in_closed_ball(y, e, r2)
    gap, _, axe, aye, nx, ny = _terms(x, y, e)
    bound = r1 * r2 * (0.25 * r1 * r1 + axe) ** 0.5 * (0.25 * r2 * r2 + aye) ** 0.5
    inter = (
        ("residual_sq_x", nx * nx - axe * axe),
        ("residual_sq_x_bound", r1 * r1 * (0.25 * r1 * r1 + axe)),
        ("residual_sq_y", ny * ny - aye * aye),
        ("residual_sq_y_bound", r2 * r2 * (0.25 * r2 * r2 + aye)),
    )
    return GrussReport(
        gap=gap,
        bounds=(("refined", bound),),
        admissibility=(rep_x, rep_y),
        intermediates=inter,
    )


def _pair_factor(pair: ScalarPair) -> float:
    """|hi - lo| / sqrt(|hi + lo|) for one side of a two-sided Gruss bound."""
    pair.require_nondegenerate()
    return abs(pair.diff) / abs(pair.summ) ** 0.5


def gruss_pair(
    x: Vector, y: Vector, e: Vector, pair_x: ScalarPair, pair_y: ScalarPair
) -> GrussReport:
    """Two-sided Gruss bounds; hypotheses Re<A e - x, x - a e> >= 0 and the y analogue.

    bounds[0] = 1/4 |A-a||B-b|/sqrt(|A+a||B+b|) sqrt(||x||+|<x,e>|) sqrt(||y||+|<y,e>|)
    bounds[1] = 1/2 |A-a||B-b|/sqrt(|A+a||B+b|) sqrt(||x|| ||y||)

    Here bounds[0] <= bounds[1] always (Bessel: |<x,e>| <= ||x||), and the
    intermediates assert it.
    """
    require_unit(e)
    factor = _pair_factor(pair_x) * _pair_factor(pair_y)
    rep_x = two_sided_realpart(x, e, pair_x)
    rep_y = two_sided_realpart(y, e, pair_y)
    gap, _, axe, aye, nx, ny = _terms(x, y, e)
    first = 0.25 * factor * (nx + axe) ** 0.5 * (ny + aye) ** 0.5
    second = 0.5 * factor * (nx * ny) ** 0.5
    bounds = (("quarter_residual", first), ("half_norm", second))
    return GrussReport(
        gap=gap,
        bounds=bounds,
        admissibility=(rep_x, rep_y),
        intermediates=bounds,
    )


def gruss_pair_refined(
    x: Vector, y: Vector, e: Vector, pair_x: ScalarPair, pair_y: ScalarPair
) -> GrussReport:
    """Refined two-sided Gruss bound with the |A-a|^2/(8|A+a|) corrections.

    bound = 1/2 |A-a||B-b|/sqrt(|A+a||B+b|)
            * sqrt(|A-a|^2/(8|A+a|) + |<x,e>|) * sqrt(|B-b|^2/(8|B+b|) + |<y,e>|)

    Intermediates expose the squared-residual facts
    ||x||^2 - |<x,e>|^2 <= 1/2 |A-a|^2/|A+a| [ |<x,e>| + 1/8 |A-a|^2/|A+a| ]
    and the y analogue.
    """
    require_unit(e)
    factor = _pair_factor(pair_x) * _pair_factor(pair_y)
    rep_x = two_sided_realpart(x, e, pair_x)
    rep_y = two_sided_realpart(y, e, pair_y)
    gap, _, axe, aye, nx, ny = _terms(x, y, e)
    cx = abs(pair_x.diff) ** 2 / abs(pair_x.summ)
    cy = abs(pair_y.diff) ** 2 / abs(pair_y.summ)
    bound = 0.5 * factor * (0.125 * cx + axe) ** 0.5 * (0.125 * cy + aye) ** 0.5
    inter = (
        ("residual_sq_x", nx * nx - axe * axe),
        ("residual_sq_x_bound", 0.5 * cx * (axe + 0.125 * cx)),
        ("residual_sq_y", ny * ny - aye * aye),
        ("residual_sq_y_bound", 0.5 * cy * (aye + 0.125 * cy)),
    )
    return GrussReport(
        gap=gap,
        bounds=(("refined", bound),),
        admissibility=(rep_x, rep_y),
        intermediates=inter,
    )
