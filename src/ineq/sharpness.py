"""Sharpness sweeps: explicit families driving gap/bound ratios to 1.

Each construction evaluates its inequality on a one-parameter family whose
ratio (penultimate chain value over the final bound) tends to 1 as the
parameter eps shrinks, demonstrating that the bound's constant cannot be
improved.  The sweep reports the ratio per grid point plus a Richardson-style
extrapolation to eps -> 0 from the last two grid points, assuming the leading
error term is linear in eps**order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harness
from .conditions import ScalarPair
from .errors import PreconditionError
from .legacy import legacy_schwarz_ball
from .schwarz import reverse_schwarz_ball, reverse_schwarz_pair
from .space import FieldTag, vector

CONSTRUCTIONS = ("thm21", "thm22", "legacy11")

#: Grids run from large to small eps; thm22/legacy11 need eps strictly below 1.
DEFAULT_GRIDS = {
    "thm21": tuple(np.geomspace(1.0, 1e-6, 7)),
    "thm22": tuple(np.geomspace(0.1, 1e-6, 6)),
    "legacy11": tuple(np.geomspace(0.1, 1e-6, 6)),
}

#: Leading order of 1 - ratio in eps, used for the extrapolation step.
_ORDERS = {"thm21": 1, "thm22": 2, "legacy11": 1}


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


def sweep_thm21(epsilons=None) -> SweepResult:
    """Ball construction in the plane: a = e1, x = a + sqrt(eps) e2, r = sqrt(eps)."""
    eps = _prepare_grid(
        DEFAULT_GRIDS["thm21"] if epsilons is None else epsilons, "thm21", open_unit=False
    )
    a = vector([1.0, 0.0], FieldTag.REAL)
    ratios = []
    for e in eps:
        s = e**0.5
        x = vector([1.0, s], FieldTag.REAL)
        chain = reverse_schwarz_ball(x, a, s)
        ratios.append(chain.values[-2] / chain.values[-1])
    return SweepResult("thm21", eps, tuple(ratios), _extrapolate(eps, ratios, _ORDERS["thm21"]))


def sweep_thm22(epsilons=None) -> SweepResult:
    """Two-sided construction: y = (1,1), x = (1+eps, 1-eps), bounds 1 -+ eps."""
    eps = _prepare_grid(
        DEFAULT_GRIDS["thm22"] if epsilons is None else epsilons, "thm22", open_unit=True
    )
    y = vector([1.0, 1.0], FieldTag.REAL)
    ratios = []
    for e in eps:
        x = vector([1.0 + e, 1.0 - e], FieldTag.REAL)
        chain = reverse_schwarz_pair(x, y, ScalarPair(1.0 - e, 1.0 + e))
        ratios.append(chain.values[-2] / chain.values[-1])
    return SweepResult("thm22", eps, tuple(ratios), _extrapolate(eps, ratios, _ORDERS["thm22"]))


def sweep_legacy11(epsilons=None) -> SweepResult:
    """Squared-level ball construction, eps < 1 so the ball stays inside ||a||."""
    eps = _prepare_grid(
        DEFAULT_GRIDS["legacy11"] if epsilons is None else epsilons,
        "legacy11",
        open_unit=True,
    )
    a = vector([1.0, 0.0], FieldTag.REAL)
    ratios = []
    for e in eps:
        s = e**0.5
        x = vector([1.0, s], FieldTag.REAL)
        chain = legacy_schwarz_ball(x, a, s)
        ratios.append(chain.values[-2] / chain.values[-1])
    return SweepResult(
        "legacy11", eps, tuple(ratios), _extrapolate(eps, ratios, _ORDERS["legacy11"])
    )


_SWEEPS = {"thm21": sweep_thm21, "thm22": sweep_thm22, "legacy11": sweep_legacy11}


def sweep(construction: str, epsilons=None) -> SweepResult:
    key = str(construction).strip().lower()
    if key not in _SWEEPS:
        raise PreconditionError(
            f"unknown construction {construction!r} (expected one of {', '.join(CONSTRUCTIONS)})"
        )
    return _SWEEPS[key](epsilons)


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
    field: str = "real",
) -> ProbeResult:
    """Empirical sharpness floor: random sampling never exceeds the bound, and the
    maximum observed ratio lower-bounds how much of the bound is attainable."""
    tid = harness.normalize_theorem_id(theorem)
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    best = 0.0
    for i in range(int(trials)):
        inst = harness.sample_admissible(tid, field, dim, seed=seed, index=i)
        result = harness.evaluate_instance(inst)
        if result.admissible and result.bound > 1e-300:
            best = max(best, result.gap / result.bound)
    return ProbeResult(tid, int(trials), int(dim), int(seed), best)
