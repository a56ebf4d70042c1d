"""Sharpness sweeps: explicit families driving gap/bound ratios to 1.

Each construction evaluates its inequality on a one-parameter family whose
ratio (the report's gap over its bound) tends to 1 as the parameter eps
shrinks, demonstrating that the bound's constant cannot be improved.  The
sweep reports the ratio per grid point plus a Richardson-style extrapolation
to eps -> 0 from the last two grid points, assuming the leading error term is
linear in eps**order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import harness
from .conditions import ScalarPair
from .errors import PreconditionError
from .legacy import legacy_schwarz_ball
from .schwarz import reverse_schwarz_ball, reverse_schwarz_pair
from .space import FieldTag, vector


@dataclass(frozen=True)
class Construction:
    """A one-parameter family: its default eps grid (large to small), the
    leading order of 1 - ratio in eps, whether eps must lie in (0, 1), and
    the report of its inequality at one eps."""

    grid: tuple[float, ...]
    order: int
    open_unit: bool
    report: Callable[[float], object]


def _ball(operation: Callable) -> Callable[[float], object]:
    """Ball construction in the plane: a = e1, x = a + sqrt(eps) e2, r = sqrt(eps)."""
    a = vector([1.0, 0.0], FieldTag.REAL)
    return lambda e: operation(vector([1.0, math.sqrt(e)], FieldTag.REAL), a, math.sqrt(e))


def _two_sided(e: float):
    """Two-sided construction: y = (1,1), x = (1+eps, 1-eps), bounds 1 -+ eps."""
    x = vector([1.0 + e, 1.0 - e], FieldTag.REAL)
    y = vector([1.0, 1.0], FieldTag.REAL)
    return reverse_schwarz_pair(x, y, ScalarPair(1.0 - e, 1.0 + e))


_GRID = tuple(np.geomspace(1.0, 1e-6, 7))
_OPEN_GRID = tuple(np.geomspace(0.1, 1e-6, 6))

#: legacy11 is the squared-level ball form; eps < 1 keeps the ball inside ||a||.
_CONSTRUCTIONS = {
    "thm21": Construction(_GRID, 1, False, _ball(reverse_schwarz_ball)),
    "thm22": Construction(_OPEN_GRID, 2, True, _two_sided),
    "legacy11": Construction(_OPEN_GRID, 1, True, _ball(legacy_schwarz_ball)),
}

CONSTRUCTIONS = tuple(_CONSTRUCTIONS)


@dataclass(frozen=True)
class SweepResult:
    """Ratios along a decreasing eps grid and their extrapolated limit."""

    construction: str
    epsilons: tuple[float, ...]
    ratios: tuple[float, ...]
    extrapolated_limit: float

    def as_dict(self) -> dict:
        return {
            "construction": self.construction,
            "epsilons": list(self.epsilons),
            "ratios": list(self.ratios),
            "extrapolated_limit": self.extrapolated_limit,
        }


def _prepare_grid(epsilons, construction: str, open_unit: bool) -> tuple[float, ...]:
    eps = tuple(sorted((float(e) for e in epsilons), reverse=True))
    if not eps:
        raise PreconditionError(f"{construction}: empty epsilon grid")
    if any(e <= 0 for e in eps):
        raise PreconditionError(f"{construction}: epsilons must be positive")
    if open_unit and eps[0] >= 1.0:
        raise PreconditionError(f"{construction}: epsilons must lie in (0, 1)")
    if len(set(eps)) != len(eps):
        raise PreconditionError(f"{construction}: epsilons must be distinct")
    return eps


def _extrapolate(epsilons, ratios, order: int) -> float:
    if len(ratios) == 1:
        return ratios[0]
    e1, e2 = epsilons[-2] ** order, epsilons[-1] ** order
    r1, r2 = ratios[-2], ratios[-1]
    return r2 + (r2 - r1) * e2 / (e1 - e2)


def sweep(construction: str, epsilons=None) -> SweepResult:
    """gap/bound of `construction` along `epsilons` (default: its own grid)."""
    key = str(construction).strip().lower()
    if key not in _CONSTRUCTIONS:
        raise PreconditionError(
            f"unknown construction {construction!r} (expected one of {', '.join(CONSTRUCTIONS)})"
        )
    family = _CONSTRUCTIONS[key]
    eps = _prepare_grid(family.grid if epsilons is None else epsilons, key, family.open_unit)
    ratios = []
    for e in eps:
        report = family.report(e)
        if not report.bound > 0.0:
            raise PreconditionError(f"{key}: eps {e!r} leaves a bound of {report.bound!r}")
        ratios.append(report.gap / report.bound)
    return SweepResult(key, eps, tuple(ratios), _extrapolate(eps, ratios, family.order))


sweep_thm21 = partial(sweep, "thm21")
sweep_thm22 = partial(sweep, "thm22")
sweep_legacy11 = partial(sweep, "legacy11")


@dataclass(frozen=True)
class ProbeResult:
    """Largest gap/bound ratio seen over random admissible instances."""

    theorem: str
    trials: int
    dim: int
    seed: int
    max_ratio: float

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "dim": self.dim,
            "seed": self.seed,
            "max_ratio": self.max_ratio,
        }


def random_probe(
    theorem: str,
    trials: int = 1000,
    dim: int = 3,
    seed: int = 0,
    field: FieldTag | str = "real",
) -> ProbeResult:
    """Empirical sharpness floor: random sampling never exceeds the bound, and the
    maximum observed ratio lower-bounds how much of the bound is attainable."""
    tid = harness.normalize_theorem_id(theorem)
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    fields = ["real" if tid in harness.REAL_ONLY_IDS else field]
    report = harness.run_suite([tid], trials, [dim], fields, seed=seed)
    best = report.per_theorem[tid]["max_ratio"]
    return ProbeResult(tid, int(trials), int(dim), int(seed), max(0.0, best or 0.0))
