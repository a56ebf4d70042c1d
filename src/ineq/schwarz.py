"""Reverse Schwarz inequalities: additive gap bounds under ball and two-sided hypotheses.

Ball form: for ||x - a|| <= r,

    0 <= ||x|| ||a|| - |<x,a>| <= ||x|| ||a|| - |Re<x,a>|
      <= ||x|| ||a|| - Re<x,a> <= r^2 / 2,

with 1/2 best possible.  Two-sided form: for Re<G y - x, x - g y> >= 0 and
G != +/- g,

    0 <= ||x|| ||y|| - |<x,y>|
      <= ||x|| ||y|| - | Re[ (conj(G)+conj(g))/|G+g| <x,y> ] |
      <= ||x|| ||y|| -   Re[ (conj(G)+conj(g))/|G+g| <x,y> ]
      <= |G - g|^2 / (4 |G + g|) * ||y||^2,

with 1/4 best possible.  Chains are computed even when the hypothesis fails
(the report then carries holds=False): that is how the harness demonstrates
the hypotheses are load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conditions import (
    ConditionReport,
    ScalarPair,
    SingleCondition,
    in_closed_ball,
    two_sided_realpart,
)
from .space import Vector, _vdot, norm

BALL_LABELS = ("zero", "abs_gap", "abs_real_gap", "real_gap", "bound")
PAIR_LABELS = ("zero", "abs_gap", "abs_aligned_gap", "aligned_gap", "bound")


@dataclass(frozen=True)
class BoundChain(SingleCondition):
    """A nondecreasing chain of reals ending in the theorem's bound.

    `additive` carries a companion chain for results stated with both a
    multiplicative and an additive version; it is then the headline, the
    chain whose last two links are `gap` and `bound`.  Every link of both
    chains is asserted.
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    admissibility: ConditionReport
    additive: Optional["BoundChain"] = None

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise ValueError("labels and values must have equal length")
        if len(self.values) < 2:
            raise ValueError("a chain needs at least a gap and a bound")

    @property
    def gap(self) -> float:
        return (self.additive or self).values[-2]

    @property
    def bound(self) -> float:
        return (self.additive or self).values[-1]

    @property
    def comparisons(self) -> tuple[tuple[str, float, str, float], ...]:
        links = tuple(zip(self.labels, self.values, self.labels[1:], self.values[1:]))
        return links if self.additive is None else links + self.additive.comparisons

    @property
    def slack(self) -> float:
        return self.values[-1] - max(self.values[:-1])

    def as_dict(self) -> dict:
        return dict(zip(self.labels, self.values))


def _ball_chain(nx: float, na: float, ip: complex, r: float, report) -> BoundChain:
    """The ball-form chain from ||x||, ||a||, <x,a> and the radius r."""
    values = (
        0.0,
        nx * na - abs(ip),
        nx * na - abs(ip.real),
        nx * na - ip.real,
        0.5 * r * r,
    )
    return BoundChain(BALL_LABELS, values, report)


def _pair_chain(nx: float, ny: float, ip: complex, pair: ScalarPair, report) -> BoundChain:
    """The two-sided chain from ||x||, ||y||, <x,y> and the pair (g, G)."""
    summ = pair.summ
    aligned = (summ.conjugate() / abs(summ) * ip).real
    bound = 0.25 * abs(pair.diff) ** 2 / abs(summ) * ny * ny
    values = (
        0.0,
        nx * ny - abs(ip),
        nx * ny - abs(aligned),
        nx * ny - aligned,
        bound,
    )
    return BoundChain(PAIR_LABELS, values, report)


def reverse_schwarz_ball(x: Vector, a: Vector, r: float) -> BoundChain:
    """Gap chain for the ball hypothesis ||x - a|| <= r; bound r^2/2.

    No r < ||a|| restriction: the proof needs only the ball membership.
    """
    report = in_closed_ball(x, a, r)
    return _ball_chain(norm(x), norm(a), _vdot(x.coords, a.coords), r, report)


def reverse_schwarz_pair(x: Vector, y: Vector, pair: ScalarPair) -> BoundChain:
    """Gap chain for the two-sided hypothesis with scalar pair (lo, hi) = (g, G)."""
    pair.require_nondegenerate()
    report = two_sided_realpart(x, y, pair)
    return _pair_chain(norm(x), norm(y), _vdot(x.coords, y.coords), pair, report)
