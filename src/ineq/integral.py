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

Every formula -- Horner's rule, the norms and inner products, the three
pointwise conditions and the five operations -- is written once, over rows
(`_Rows`): the node values of B functions, one per row, nodes along the last
axis, a per-row scalar as a column, and reductions along axis 1.  A public
function on one instance is the one-row call, and the harness evaluates a
group of instances as one call on B rows (`_ROW_OPERATIONS`).  The arithmetic
is elementwise, `np.add.reduce` along a row and min/max, never BLAS, so each
row comes out bit for bit as its instance alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .conditions import ConditionForm, ConditionReport, ScalarPair, _report
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotUnitVectorError,
    PreconditionError,
    _brief,
)
from .gruss import GrussReport
from .schwarz import BoundChain, _ball_chain, _pair_chain
from .space import (
    FieldTag,
    Scalar,
    Vector,
    _as_coords,
    _check_finite,
    _computed_coords,
    _field_for,
)
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

    @classmethod
    def _computed(cls, values: np.ndarray, field: FieldTag) -> "DiscretizedFunction":
        """Trusted constructor for node values the library just computed."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", _computed_coords(values, field))
        object.__setattr__(self, "field", field)
        return self

    def __len__(self) -> int:
        return int(self.values.size)

    def _row(self) -> "_Rows":
        """This function as the one row of a `_Rows`, built once, so that its |values| are
        computed once for the norm and the pointwise scales alike.

        Not a `cached_property`: before Python 3.12 that takes a lock on every
        first read, and a decoded function is read here only a few times.
        """
        row = self.__dict__.get("_rows")
        if row is None:
            row = self.__dict__["_rows"] = _Rows(self.values[None], self.field)
        return row


class _Rows:
    """The node values of B functions over one field, one function per row of a (B, n) array."""

    __slots__ = ("values", "field", "_mags")

    def __init__(self, values: np.ndarray, field: FieldTag):
        self.values = values
        self.field = field
        self._mags = None

    def __len__(self) -> int:
        return self.values.shape[1]

    def magnitudes(self) -> np.ndarray:
        """|f_i| of every row, computed once."""
        if self._mags is None:
            self._mags = np.abs(self.values)
        return self._mags

    def amax(self) -> list:
        """max_i |f_i| of each row."""
        return np.maximum.reduce(self.magnitudes(), axis=1).tolist()


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
        f = DiscretizedFunction(arr, _field_for(arr, field))
        if len(f) != self.size:
            raise DimensionMismatchError(f"{len(f)} values for {self.size} nodes")
        return f

    @cached_property
    def _complex_nodes(self) -> np.ndarray:
        """The nodes cast to complex128 once, for products with complex values."""
        return self.nodes.astype(np.complex128)

    @cached_property
    def _complex_weights(self) -> np.ndarray:
        """The weights cast to complex128 once, for products with complex values."""
        return self.weights.astype(np.complex128)

    def _poly(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] s_i^k at the nodes, bit for bit as numpy's polyval; a 2-D coeffs
        gives one row of node values per row of ascending coefficients."""
        c = coeffs.T[..., None] if coeffs.ndim == 2 else coeffs
        if coeffs.dtype.kind == "c":
            return _horner(c, self.nodes, self._complex_nodes)
        return _horner(c, self.nodes)

    def inner(self, f: DiscretizedFunction, g: DiscretizedFunction) -> Scalar:
        """<f, g> = sum_i w_i f_i conj(g_i)."""
        return self._inners(f._row(), g._row())[0]

    def norm(self, f: DiscretizedFunction) -> float:
        return self._norms(f._row())[0]

    def _inners(self, f: _Rows, g: _Rows) -> list:
        """<f, g> of each row: floats over the reals, complexes over C."""
        self._check(f, g)
        if f.field is FieldTag.REAL:
            terms = self.weights * f.values
            terms *= g.values
        else:
            # The product numpy forms after casting the weights, in the same order.
            terms = self._complex_weights * f.values
            terms *= np.conj(g.values)
        return np.add.reduce(terms, axis=1).tolist()

    def _norms(self, f: _Rows) -> list:
        """||f|| of each row."""
        self._check(f)
        terms = np.square(f.magnitudes())
        terms *= self.weights
        return np.sqrt(np.add.reduce(terms, axis=1)).tolist()

    def _check(self, *fs) -> None:
        for f in fs:
            if len(f) != self.size:
                raise DimensionMismatchError(f"{len(f)} values for {self.size} nodes")
            if f.field is not fs[0].field:
                raise FieldMismatchError("functions live over different fields")


def polynomial(coeffs) -> Callable[[np.ndarray], np.ndarray]:
    """Callable evaluating sum_k coeffs[k] * s^k (ascending order)."""
    c = np.atleast_1d(np.asarray(coeffs))
    if c.dtype.kind in "biu":
        c = c + 0.0
    return lambda s: _horner(c, np.asarray(s) if isinstance(s, (list, tuple)) else s)


def _horner(c: np.ndarray, s, s_complex: Optional[np.ndarray] = None):
    """numpy's polyval(s, c) for a float or complex c, bit for bit.

    c[k] is the k-th coefficient: a scalar for a 1-D c, or, as in polyval's
    tensor form, an array broadcasting against s; coefficients of shape
    (L, B, 1) against n nodes give B rows of n values.  polyval starts from
    c[-1] + s*0 and builds a new array c[k] + c0*s per coefficient; here c0
    is updated in place.  For complex c every step is a complex multiply by s
    cast to complex128, which polyval casts anew each step and this casts
    once (or takes as `s_complex`).
    """
    c0 = c[-1] + s * 0
    if c.dtype.kind == "c" and len(c) > 1:
        s = np.asarray(s, dtype=np.complex128) if s_complex is None else s_complex
    for k in range(len(c) - 2, -1, -1):
        c0 *= s
        c0 += c[k]
    return c0


def _poly_values(dom: WeightedDomain, coeffs: np.ndarray, field: FieldTag) -> np.ndarray:
    """The node values, in field's dtype, of the polynomial with ascending coefficients coeffs,
    or one row of them per row of a 2-D coeffs; not yet checked finite."""
    values = dom._poly(coeffs)
    return values if values.dtype == field.dtype else values.astype(field.dtype)


def _discretized_rows(dom: WeightedDomain, parts: list, field: FieldTag) -> _Rows:
    """One row per function of `parts`: DiscretizedFunctions on dom, or the 1-D coefficients
    of polynomials, all of one dtype and length, evaluated and checked finite as one array."""
    if isinstance(parts[0], DiscretizedFunction):
        return _Rows(_stacked([f.values for f in parts]), field)
    values = _poly_values(dom, _stacked(parts), field)
    _check_finite(values)
    return _Rows(values, field)


def _stacked(rows: list) -> np.ndarray:
    """Equally long 1-D arrays as the rows of one array (np.stack, at a quarter of its cost)."""
    return np.concatenate(rows).reshape(len(rows), -1)


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c without its trailing zeros, keeping at least one entry, as numpy.polynomial trims."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_add(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """numpy's polyadd(c1, c2) for 1-D float or complex c1, c2: value, dtype and length."""
    c1, c2 = _trimmed(c1), _trimmed(c2)
    if len(c1) < len(c2):
        c1, c2 = c2, c1
    out = c1.astype(np.result_type(c1, c2))
    out[: len(c2)] += c2
    return _trimmed(out)


def _poly_mul(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """numpy's polymul(c1, c2) for 1-D float or complex c1, c2: value, dtype and length."""
    return _trimmed(np.convolve(_trimmed(c1), _trimmed(c2)))


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
    # the recurrence's three buffers, written in place at every step
    p_prev, p, xp = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(_NEWTON_MAX_STEPS):
        p_prev.fill(1.0)
        np.copyto(p, x)
        for k in range(1, n):
            # Bonnet: P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}), built in p_prev.
            np.multiply(x, p, out=xp)
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
        raise PreconditionError(f"unknown rule {_brief(rule)} (expected 'gauss' or 'trapezoid')")
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
    return _ball_rows(f._row(), g._row(), [r])[0]


def _ball_rows(f: _Rows, g: _Rows, r: list) -> list:
    """`pointwise_ball` of each row, with radius r[k] for row k."""
    for rk in r:
        if not rk > 0:
            raise PreconditionError(f"radius must be positive, got {rk}")
    _check_pair(f, g)
    diff = f.values - g.values
    dist = np.abs(diff, out=diff) if f.field is FieldTag.REAL else np.abs(diff)
    worst = np.maximum.reduce(dist, axis=1).tolist()
    return [
        _report(rk - wk, ConditionForm.BALL, 1.0 + fk + gk + rk)
        for rk, wk, fk, gk in zip(r, worst, f.amax(), g.amax())
    ]


def pointwise_pair(
    f: DiscretizedFunction, g: DiscretizedFunction, pair: ScalarPair
) -> ConditionReport:
    """Re[(hi*g - f)(conj(f) - conj(lo)*conj(g))] >= 0 at every node (worst-node margin)."""
    return _pair_rows(f._row(), g._row(), [pair])[0]


def _pair_rows(f: _Rows, g: _Rows, pairs: list) -> list:
    """`pointwise_pair` of each row, with pairs[k] for row k."""
    _check_pair(f, g)
    scalars = [pair.coerced(f.field) for pair in pairs]
    lo, hi = (np.array(col, dtype=f.field.dtype)[:, None] for col in zip(*scalars))
    upper = hi * g.values
    upper -= f.values
    lower = lo * g.values
    np.subtract(f.values, lower, out=lower)
    if f.field is FieldTag.REAL:
        upper *= lower
        margins = np.minimum.reduce(upper, axis=1)
    else:
        upper *= np.conjugate(lower, out=lower)
        margins = np.minimum.reduce(upper.real, axis=1)
    # squared by *, as `conditions._pair_realpart` squares: a square past the range is
    # then inf, where ** would raise
    return [
        _report(mk, ConditionForm.REAL_PART, 1.0 + fk * fk + abs(complex(hk)) ** 2 * (gk * gk))
        for mk, (_, hk), fk, gk in zip(margins.tolist(), scalars, f.amax(), g.amax())
    ]


def pointwise_range(
    f: DiscretizedFunction, g: DiscretizedFunction, m: float, M: float
) -> ConditionReport:
    """m g <= f <= M g at every node; real-valued functions only."""
    return _range_rows(f._row(), g._row(), [m], [M])[0]


def _range_rows(f: _Rows, g: _Rows, m: list, M: list) -> list:
    """`pointwise_range` of each row, with m[k] and M[k] for row k."""
    _check_pair(f, g)
    if f.field is not FieldTag.REAL:
        raise FieldMismatchError("the range condition m g <= f <= M g needs real values")
    fv, gv = f.values, g.values
    below = np.array(m, dtype=np.float64)[:, None] * gv
    np.subtract(fv, below, out=below)
    above = np.array(M, dtype=np.float64)[:, None] * gv
    above -= fv
    lows = np.minimum.reduce(below, axis=1).tolist()
    highs = np.minimum.reduce(above, axis=1).tolist()
    return [
        _report(min(lk, hk), ConditionForm.BALL, 1.0 + fk + max(abs(mk), abs(Mk)) * gk)
        for lk, hk, mk, Mk, fk, gk in zip(lows, highs, m, M, f.amax(), g.amax())
    ]


def _check_pair(f: _Rows, g: _Rows) -> None:
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
    return _schwarz_ball_rows(f._row(), g._row(), dom, [r])[0]


def _schwarz_ball_rows(f: _Rows, g: _Rows, dom: WeightedDomain, r: list) -> list:
    reports = _ball_rows(f, g, r)
    rows = zip(dom._norms(f), dom._norms(g), dom._inners(f, g), r, reports)
    return [_ball_chain(nf, ng, complex(ip), rk, rep) for nf, ng, ip, rk, rep in rows]


def integral_schwarz_pair(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, pair: ScalarPair
) -> BoundChain:
    """Gap chain for the nodewise two-sided condition; bound |G-g|^2/(4|G+g|) ||g||^2."""
    return _schwarz_pair_rows(f._row(), g._row(), dom, [pair])[0]


def _schwarz_pair_rows(f: _Rows, g: _Rows, dom: WeightedDomain, pairs: list) -> list:
    for pair in pairs:
        pair.require_nondegenerate()
    reports = _pair_rows(f, g, pairs)
    rows = zip(dom._norms(f), dom._norms(g), dom._inners(f, g), pairs, reports)
    return [_pair_chain(nf, ng, complex(ip), pair, rep) for nf, ng, ip, pair, rep in rows]


def integral_schwarz_range(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, m: float, M: float
) -> BoundChain:
    """Simplified real-range bound (M-m)^2 / (4(M+m)) ||g||^2 under m g <= f <= M g."""
    return _schwarz_range_rows(f._row(), g._row(), dom, [m], [M])[0]


def _schwarz_range_rows(f: _Rows, g: _Rows, dom: WeightedDomain, m: list, M: list) -> list:
    for mk, Mk in zip(m, M):
        if not Mk > mk:
            raise PreconditionError(f"need M > m, got m={mk}, M={Mk}")
        if not Mk + mk > 0:
            raise PreconditionError(f"need M + m > 0, got m={mk}, M={Mk}")
    reports = _range_rows(f, g, m, M)
    rows = zip(dom._norms(f), dom._norms(g), dom._inners(f, g), m, M, reports)
    return [
        BoundChain(
            RANGE_LABELS,
            (0.0, nf * ng - abs(complex(ip)), 0.25 * (Mk - mk) ** 2 / (Mk + mk) * ng * ng),
            rep,
        )
        for nf, ng, ip, mk, Mk, rep in rows
    ]


def integral_triangle(
    f: DiscretizedFunction, g: DiscretizedFunction, dom: WeightedDomain, m: float, M: float
) -> TriangleDefect:
    """Triangle defect ||f|| + ||g|| - ||f+g|| <= (sqrt(2)/2)(M-m)/sqrt(M+m) ||g||."""
    return _triangle_rows(f._row(), g._row(), dom, [m], [M])[0]


def _triangle_rows(f: _Rows, g: _Rows, dom: WeightedDomain, m: list, M: list) -> list:
    for mk, Mk in zip(m, M):
        _require_range(mk, Mk)
    reports = _range_rows(f, g, m, M)
    nfs, ngs = dom._norms(f), dom._norms(g)
    total = f.values + g.values
    _check_finite(total)
    rows = zip(nfs, ngs, dom._norms(_Rows(total, f.field)), m, M, reports)
    return [
        TriangleDefect(_clamped_defect(nf, ng, nt), _range_bound(mk, Mk, ng), rep)
        for nf, ng, nt, mk, Mk, rep in rows
    ]


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
    return _gruss_rows(f._row(), g._row(), h._row(), dom, [pair_f], [pair_g])[0]


def _gruss_rows(
    f: _Rows, g: _Rows, h: _Rows, dom: WeightedDomain, pairs_f: list, pairs_g: list
) -> list:
    dom._check(f, g, h)
    for nh in dom._norms(h):
        if abs(nh - 1.0) > UNIT_NORM_TOL:
            raise NotUnitVectorError(f"||h|| = {nh!r} is not 1 within {UNIT_NORM_TOL}")
    for pair_f, pair_g in zip(pairs_f, pairs_g):
        pair_f.require_nondegenerate()
        pair_g.require_nondegenerate()
    reports_f, reports_g = _pair_rows(f, h, pairs_f), _pair_rows(g, h, pairs_g)
    rows = zip(
        dom._norms(f), dom._norms(g), dom._inners(f, h), dom._inners(h, g), dom._inners(f, g),
        pairs_f, pairs_g, reports_f, reports_g,
    )
    out = []
    for nf, ng, fh, hg, fg, pair_f, pair_g, rep_f, rep_g in rows:
        fh, hg = complex(fh), complex(hg)
        gap = abs(complex(fg) - fh * hg)
        factor = (
            0.25
            * abs(pair_f.diff)
            * abs(pair_g.diff)
            / (abs(pair_f.summ) * abs(pair_g.summ)) ** 0.5
        )
        bound = factor * (nf + abs(fh)) ** 0.5 * (ng + abs(hg)) ** 0.5
        out.append(GrussReport(
            gap=gap,
            bounds=(("quarter_residual", bound),),
            admissibility=(rep_f, rep_g),
        ))
    return out


#: The operation over rows behind each public integral operation, by name.
_ROW_OPERATIONS = {
    "integral_schwarz_ball": _schwarz_ball_rows,
    "integral_schwarz_pair": _schwarz_pair_rows,
    "integral_schwarz_range": _schwarz_range_rows,
    "integral_triangle": _triangle_rows,
    "integral_gruss": _gruss_rows,
}
