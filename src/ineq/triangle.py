"""Reverse triangle inequalities: bounds on ||x|| + ||y|| - ||x + y||.

Ball form: ||x - a|| <= r gives defect <= r.  Two-sided form: the condition
with a real pair 0 < m < M (against y) gives

    defect <= (sqrt(2)/2) * (M - m) / sqrt(M + m) * ||y||.

Intermediate routes used in the proofs, checked by the test suite:

    (||x|| + ||a||)^2 - ||x + a||^2 = 2(||x|| ||a|| - Re<x, a>) <= r^2
    ||x|| + ||y|| <= sqrt((M-m)^2/(2(M+m)) ||y||^2 + ||x+y||^2) <= bound + ||x+y||
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conditions import (
    ConditionReport,
    ScalarPair,
    SingleCondition,
    in_closed_ball,
    two_sided_realpart,
)
from .errors import PreconditionError
from .space import Vector, _checked_norm, norm

#: Defects in [-NONNEG_CLAMP_REL * (||x||+||y||), 0) are rounding noise; clamp to 0.
NONNEG_CLAMP_REL = 1e-12


@dataclass(frozen=True)
class TriangleDefect(SingleCondition):
    """Nonnegative triangle defect together with its certified bound."""

    defect: float
    bound: float
    admissibility: ConditionReport

    @property
    def gap(self) -> float:
        return self.defect

    @property
    def comparisons(self) -> tuple[tuple[str, float, str, float], ...]:
        return (("defect", self.defect, "bound", self.bound),)


def _clamped_defect(n1: float, n2: float, n_sum: float) -> float:
    """n1 + n2 - n_sum for norms n1, n2 and the norm of their sum, with the
    rounding noise in [-NONNEG_CLAMP_REL * (n1 + n2), 0) clamped to 0."""
    d = n1 + n2 - n_sum
    if -NONNEG_CLAMP_REL * (n1 + n2) <= d < 0.0:
        d = 0.0
    return d


def _defect(x: Vector, other: Vector) -> float:
    """The clamped defect of x and other, known to share a space; x + other is checked
    for finiteness through its norm."""
    return _clamped_defect(norm(x), norm(other), _checked_norm(x.coords + other.coords))


def triangle_reverse_ball(x: Vector, a: Vector, r: float) -> TriangleDefect:
    """Defect bound r under ||x - a|| <= r."""
    report = in_closed_ball(x, a, r)
    return TriangleDefect(_defect(x, a), float(r), report)


def _require_range(m: float, M: float) -> None:
    if not (M > m > 0):
        raise PreconditionError(f"need M > m > 0, got m={m}, M={M}")


def _range_bound(m: float, M: float, ny: float) -> float:
    """(sqrt(2)/2)(M-m)/sqrt(M+m) ||y|| from ||y||."""
    return math.sqrt(0.5) * (M - m) / math.sqrt(M + m) * ny


def triangle_reverse_pair(x: Vector, y: Vector, m: float, M: float) -> TriangleDefect:
    """Defect bound (sqrt(2)/2)(M-m)/sqrt(M+m) ||y|| under the (m, M) condition."""
    _require_range(m, M)
    report = two_sided_realpart(x, y, ScalarPair(float(m), float(M)))
    return TriangleDefect(_defect(x, y), _range_bound(m, M, norm(y)), report)
