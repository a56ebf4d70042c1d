"""Weighted L^2 spaces on an interval, realized by quadrature.

A WeightedDomain holds nodes s_i and weights w_i >= 0 with sum w_i = 1, so

    <f, g> = sum_i w_i f(s_i) conj(g(s_i)),    ||f|| = <f, f>^(1/2)

is the inner product of the weight's probability measure restricted to the
nodes.  Everything downstream is then a finite-dimensional instance via the
embedding f |-> (sqrt(w_i) f(s_i))_i, which the test suite exercises against
the abstract modules.  The norms and inner products here come from the
quadrature sums, never from that embedding, so the two routes stay
independent.  The chain formulas applied to those sums are shared: the ball
and two-sided Schwarz chains are `schwarz`'s, and the range bound and its
M > m > 0 check are `triangle`'s.

Pointwise conditions (|f - g| <= r at every node, the two-sided scalar
condition at every node, m g <= f <= M g at every node) stand in for the
measure-theoretic "almost everywhere" hypotheses.  A function misbehaving
between nodes can pass them; the certified statement is about the discretized
instance, which is itself a legitimate member of the hypothesis class.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

import numpy as np

from .conditions import ConditionForm, ConditionReport, ScalarPair, _report
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotUnitVectorError,
    PreconditionError,
)
from .gruss import GrussReport
from .schwarz import BoundChain, _ball_chain, _pair_chain
from .space import FieldTag, Scalar, Vector, _as_coords
from .triangle import TriangleDefect, _clamped_defect, _range_bound, _require_range

#: Quadrature weights must sum to 1 within this, matching the unit-mass hypothesis.
MASS_TOL = 1e-8

#: ||h|| must be 1 within this for the Gruss proposition.
UNIT_NORM_TOL = 1e-8

#: Default Gauss-Legendre node count used when no rule is specified.
DEFAULT_NODES = 64

RANGE_LABELS = ("zero", "abs_gap", "bound")

WeightFunction = Callable[[np.ndarray], Union[np.ndarray, float]]


@dataclass(frozen=True, eq=False)
class DiscretizedFunction:
    """Node samples of a function, tagged with the scalar field."""

    values: np.ndarray
    field: FieldTag

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_coords(self.values, self.field))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class WeightedDomain:
    """Quadrature nodes and unit-mass weights defining a weighted L^2 inner product.

    `raw_mass` records the weight integral before the rescale to unit mass, so
    callers can see how far their density was from a probability density.
    """

    nodes: np.ndarray
    weights: np.ndarray
    raw_mass: float = 1.0
    normalization: float = dc_field(init=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=np.float64, copy=True)
        weights = np.array(self.weights, dtype=np.float64, copy=True)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise DimensionMismatchError("nodes and weights must be 1-D and equally long")
        if nodes.size < 2:
            raise DimensionMismatchError("need at least 2 nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(weights < 0.0):
            raise PreconditionError("weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > MASS_TOL:
            raise PreconditionError(
                f"weights must sum to 1 within {MASS_TOL}, got {total!r}"
            )
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "normalization", total)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def discretize(self, func, field: FieldTag | str | None = None) -> DiscretizedFunction:
        """Sample a callable at the nodes (or wrap an array of node values)."""
        values = func(self.nodes) if callable(func) else func
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(self.size, arr[()])
        if field is None:
            tag = FieldTag.COMPLEX if np.iscomplexobj(arr) else FieldTag.REAL
        else:
            tag = FieldTag.parse(field)
        f = DiscretizedFunction(arr, tag)
        if len(f) != self.size:
            raise DimensionMismatchError(f"{len(f)} values for {self.size} nodes")
        return f

    def inner(self, f: DiscretizedFunction, g: DiscretizedFunction) -> Scalar:
        """<f, g> = sum_i w_i f_i conj(g_i)."""
        self._check(f, g)
        v = np.sum(self.weights * f.values * np.conj(g.values))
        return float(np.real(v)) if f.field is FieldTag.REAL else complex(v)

    def norm(self, f: DiscretizedFunction) -> float:
        self._check(f)
        return float(np.sqrt(np.sum(self.weights * np.abs(f.values) ** 2)))

    def _check(self, *fs: DiscretizedFunction) -> None:
        for f in fs:
            if len(f) != self.size:
                raise DimensionMismatchError(f"{len(f)} values for {self.size} nodes")
            if f.field is not fs[0].field:
                raise FieldMismatchError("functions live over different fields")


def polynomial(coeffs) -> Callable[[np.ndarray], np.ndarray]:
    """Callable evaluating sum_k coeffs[k] * s^k (ascending order)."""
    c = np.atleast_1d(np.asarray(coeffs))
    return lambda s: np.polynomial.polynomial.polyval(s, c)


#: Newton on the Tricomi guesses takes 4 steps for n <= 88 and 3 above
#: (checked for every n up to 2048); the cap only guarantees termination.
_NEWTON_MAX_STEPS = 10

#: A correction no larger than this (one ulp of 1) is rounding noise: the
#: iterate it was computed at is already a root to working precision.
_NEWTON_TOL = float(np.finfo(np.float64).eps)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Newton's method on the three-term recurrence, started from Tricomi's
    asymptotic guesses (Hale and Townsend, "Fast and accurate computation of
    Gauss-Legendre and Gauss-Jacobi quadrature nodes and weights", SIAM J. Sci.
    Comput. 35 (2013)).  Only the ceil(n/2) non-negative roots are iterated, all
    at once; the negative half is their exact mirror.  O(n) memory and O(n^2)
    time.
    """
    m = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n, so Newton keeps it there
    for _ in range(_NEWTON_MAX_STEPS):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(1, n):
            # Bonnet: P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}), built in p_prev.
            xp = x * p
            np.subtract(xp, p_prev, out=p_prev)
            p_prev *= k / (k + 1)
            p_prev += xp
            p_prev, p = p, p_prev
        # (1-x)(1+x) rather than 1-x^2: no cancellation next to +-1.
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    # The last correction was at rounding level, so dp was taken at the root.
    w = 2.0 / (one_minus_x2 * dp * dp)
    nodes, weights = np.empty(n), np.empty(n)
    nodes[n - m :], weights[n - m :] = x[::-1], w[::-1]
    nodes[: n - m], weights[: n - m] = -x[: n - m], w[: n - m]
    return nodes, weights


def build_domain(
    interval: tuple[float, float],
    weight: Optional[WeightFunction] = None,
    rule: str = "gauss",
    n: int = DEFAULT_NODES,
) -> WeightedDomain:
    """Quadrature-discretize the measure weight(s) ds on [a, b], rescaled to mass 1.

    rule "gauss" uses Gauss-Legendre nodes (exact for polynomial integrands of
    degree <= 2n-1 against a polynomial weight), computed by Newton's method
    on the Legendre three-term recurrence in O(n) memory and O(n^2) time.
    Nodes agree with numpy's `leggauss` to about 1e-16.  Weights are within
    1e-13 relative of a 40-digit reference for n <= 65, and within 6e-11 of
    an 80-bit one at n = 2048, where leggauss is off by 6e-8.  "trapezoid"
    uses the composite trapezoid rule on equispaced nodes (O(n^-2) error).
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError(f"need b > a, got [{a}, {b}]")
    if n < 2:
        raise PreconditionError(f"need at least 2 nodes, got {n}")
    if rule == "gauss":
        t, wt = _gauss_legendre(int(n))
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * t
        base = 0.5 * (b - a) * wt
    elif rule == "trapezoid":
        nodes = np.linspace(a, b, int(n))
        h = (b - a) / (n - 1)
        base = np.full(int(n), h)
        base[0] = base[-1] = 0.5 * h
    else:
        raise PreconditionError(f"unknown rule {rule!r} (expected 'gauss' or 'trapezoid')")
    if weight is None:
        rho = np.ones_like(nodes)
    else:
        rho = np.asarray(weight(nodes), dtype=np.float64)
        if rho.ndim == 0:
            rho = np.full(nodes.size, float(rho))
    if not np.all(np.isfinite(rho)):
        raise ValueError("weight function produced non-finite values")
    if np.any(rho < 0.0):
        worst = float(np.min(rho))
        raise PreconditionError(f"weight function is negative at a node (min {worst!r})")
    w = base * rho
    mass = float(np.sum(w))
    if not mass > 0.0:
        raise PreconditionError("weight has zero mass on the interval")
    return WeightedDomain(nodes, w / mass, raw_mass=mass)


def embedded_vector(f: DiscretizedFunction, dom: WeightedDomain) -> Vector:
    """The coordinates (sqrt(w_i) f_i)_i, carrying the quadrature inner product."""
    dom._check(f)
    return Vector(np.sqrt(dom.weights) * f.values, f.field)


# ---------------------------------------------------------------------------
# Nodewise admissibility conditions.


def pointwise_ball(f: DiscretizedFunction, g: DiscretizedFunction, r: float) -> ConditionReport:
    """|f - g| <= r at every node; margin is the worst node's r - |f_i - g_i|."""
    if not r > 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    _check_pair(f, g)
    margin = float(r - np.max(np.abs(f.values - g.values)))
    scale = 1.0 + _amax(f) + _amax(g) + r
    return _report(margin, ConditionForm.BALL, scale)


def pointwise_pair(
    f: DiscretizedFunction, g: DiscretizedFunction, pair: ScalarPair
) -> ConditionReport:
    """Re[(hi*g - f)(conj(f) - conj(lo)*conj(g))] >= 0 at every node (worst-node margin)."""
    _check_pair(f, g)
    lo, hi = pair.coerced(f.field)
    vals = (hi * g.values - f.values) * np.conj(f.values - lo * g.values)
    margin = float(np.min(np.real(vals)))
    scale = 1.0 + _amax(f) ** 2 + abs(complex(hi)) ** 2 * _amax(g) ** 2
    return _report(margin, ConditionForm.REAL_PART, scale)


def pointwise_range(
    f: DiscretizedFunction, g: DiscretizedFunction, m: float, M: float
) -> ConditionReport:
    """m g <= f <= M g at every node; real-valued functions only."""
    _check_pair(f, g)
    if f.field is not FieldTag.REAL:
        raise FieldMismatchError("the range condition m g <= f <= M g needs real values")
    fv, gv = f.values, g.values
    margin = float(min(np.min(fv - m * gv), np.min(M * gv - fv)))
    scale = 1.0 + _amax(f) + max(abs(m), abs(M)) * _amax(g)
    return _report(margin, ConditionForm.BALL, scale)


def _amax(f: DiscretizedFunction) -> float:
    return float(np.max(np.abs(f.values)))


def _check_pair(f: DiscretizedFunction, g: DiscretizedFunction) -> None:
    if len(f) != len(g):
        raise DimensionMismatchError(f"node counts differ: {len(f)} vs {len(g)}")
    if f.field is not g.field:
        raise FieldMismatchError("functions live over different fields")


# ---------------------------------------------------------------------------
# The integral reverse inequalities.


def integral_schwarz_ball(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, r: float
) -> BoundChain:
    """Gap chain for |f - g| <= r at the nodes; bound r^2/2 (unit total mass)."""
    report = pointwise_ball(f, g, r)
    return _ball_chain(dom.norm(f), dom.norm(g), complex(dom.inner(f, g)), r, report)


def integral_schwarz_pair(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, pair: ScalarPair
) -> BoundChain:
    """Gap chain for the nodewise two-sided condition; bound |G-g|^2/(4|G+g|) ||g||^2."""
    pair.require_nondegenerate()
    report = pointwise_pair(f, g, pair)
    return _pair_chain(dom.norm(f), dom.norm(g), complex(dom.inner(f, g)), pair, report)


def integral_schwarz_range(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, m: float, M: float
) -> BoundChain:
    """Simplified real-range bound (M-m)^2 / (4(M+m)) ||g||^2 under m g <= f <= M g."""
    if not M > m:
        raise PreconditionError(f"need M > m, got m={m}, M={M}")
    if not M + m > 0:
        raise PreconditionError(f"need M + m > 0, got m={m}, M={M}")
    report = pointwise_range(f, g, m, M)
    nf, ng = dom.norm(f), dom.norm(g)
    ip = complex(dom.inner(f, g))
    values = (
        0.0,
        nf * ng - abs(ip),
        0.25 * (M - m) ** 2 / (M + m) * ng * ng,
    )
    return BoundChain(RANGE_LABELS, values, report)


def integral_triangle(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, m: float, M: float
) -> TriangleDefect:
    """Triangle defect ||f|| + ||g|| - ||f+g|| <= (sqrt(2)/2)(M-m)/sqrt(M+m) ||g||."""
    _require_range(m, M)
    report = pointwise_range(f, g, m, M)
    nf, ng = dom.norm(f), dom.norm(g)
    total = dom.norm(DiscretizedFunction(f.values + g.values, f.field))
    defect = _clamped_defect(nf, ng, total)
    return TriangleDefect(defect, _range_bound(m, M, ng), report)


def integral_gruss(
    f: DiscretizedFunction,
    g: DiscretizedFunction,
    h: DiscretizedFunction,
    dom: WeightedDomain,
    pair_f: ScalarPair,
    pair_g: ScalarPair,
) -> GrussReport:
    """Bound on |<f,g> - <f,h><h,g>| for ||h|| = 1 under nodewise conditions vs h.

    bound = 1/4 |A-a||B-b|/sqrt(|A+a||B+b|)
            * sqrt(||f|| + |<f,h>|) * sqrt(||g|| + |<g,h>|).
    """
    dom._check(f, g, h)
    nh = dom.norm(h)
    if abs(nh - 1.0) > UNIT_NORM_TOL:
        raise NotUnitVectorError(f"||h|| = {nh!r} is not 1 within {UNIT_NORM_TOL}")
    pair_f.require_nondegenerate()
    pair_g.require_nondegenerate()
    rep_f = pointwise_pair(f, h, pair_f)
    rep_g = pointwise_pair(g, h, pair_g)
    nf, ng = dom.norm(f), dom.norm(g)
    fh = complex(dom.inner(f, h))
    hg = complex(dom.inner(h, g))
    gap = abs(complex(dom.inner(f, g)) - fh * hg)
    factor = (
        0.25
        * abs(pair_f.diff)
        * abs(pair_g.diff)
        / (abs(pair_f.summ) * abs(pair_g.summ)) ** 0.5
    )
    bound = factor * (nf + abs(fh)) ** 0.5 * (ng + abs(hg)) ** 0.5
    return GrussReport(
        gap=gap,
        bounds=(("quarter_residual", bound),),
        admissibility=(rep_f, rep_g),
    )
