"""Randomized verification harness: samplers, evaluators, suite runner, file eval.

Each supported result gets a wire id (below).  For every id there is a
sampler producing an instance whose hypothesis holds *by construction* (no
rejection sampling against the condition itself: the point is sampled as
center + scaled in-ball residual, so instances land arbitrarily close to the
hypothesis boundary), and an evaluator that runs the corresponding operation
on it and reports every asserted comparison.

Samplers produce *typed* instances: a dict with "theorem", "field" and the
operation's parameters as the objects the operations take -- `Vector` and
`CoefficientSequence` for coordinates and coefficients, `ScalarPair` for
scalar pairs, {"poly": ndarray} for functions, floats for radii and bounds.
The `Vector`/`CoefficientSequence` types carry the validation: the public
constructors check and copy their input, and the arrays a sampler or an
arithmetic operation computes are adopted after a finiteness check.

JSON exists only at the boundary.  `sample_admissible` encodes a typed
instance into the document schema below, and `evaluate_instance` (hence
`ineq eval`) decodes documents with full per-element validation; a typed
value met while decoding passes through when its field matches.  `run_suite`
samples and evaluates typed instances without any JSON round trip.

Document schema: a dict with "theorem", "field", and the operation's
parameters -- vectors as number lists ({"re","im"} objects over the complex
field), scalar pairs as {"lo","hi"}, orthonormal families as {"size": k}
meaning the first k standard basis vectors, integral instances with a
"domain" object {"interval","weight":{"poly":[...]},"rule":{"kind","n"}} and
functions as {"poly":[...]} or {"values":[...]}.

In adversarial mode the samplers inflate the residual far beyond the
admissible limit while keeping every scalar precondition valid, so the
evaluator still runs and the suite can demonstrate that the bare inequalities
fail without their hypotheses.  A record is a "violation" when its hypothesis
holds and some asserted comparison fails; it is a "counterexample" when the
hypothesis fails and a comparison fails.  Theorems whose hypotheses hold
guarantee zero violations; counterexamples in adversarial mode are the
desired outcome, not errors.

The range-condition results (prop7.11, prop7.12) are real-field only: their
hypothesis m*g <= f <= M*g is an ordering of real values.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .bessel import (
    bessel_reverse_ball,
    bessel_reverse_pair,
    gruss_orthonormal_ball,
    gruss_orthonormal_pair,
)
from .conditions import ScalarPair
from .errors import FieldMismatchError, IneqError, InputFormatError
from .gruss import gruss_ball, gruss_ball_refined, gruss_pair, gruss_pair_refined
from .integral import (
    DiscretizedFunction,
    WeightedDomain,
    build_domain,
    integral_gruss,
    integral_schwarz_ball,
    integral_schwarz_pair,
    integral_schwarz_range,
    integral_triangle,
    polynomial,
)
from .legacy import (
    legacy_bessel_ball,
    legacy_bessel_pair,
    legacy_gruss_ball,
    legacy_gruss_pair,
    legacy_schwarz_ball,
    legacy_schwarz_pair,
    legacy_triangle_ball,
    legacy_triangle_pair,
)
from .numutil import CHAIN_REL_TOL, leq_with_slack, render_json
from .schwarz import BoundChain, reverse_schwarz_ball, reverse_schwarz_pair
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Vector,
    _array_norm,
    coefficients,
    standard_basis,
    vector,
)
from .triangle import triangle_reverse_ball, triangle_reverse_pair

#: Wire ids in canonical report order.
THEOREM_IDS = (
    "thm2.1",
    "thm2.2",
    "prop2.3",
    "prop2.4",
    "thm4.1",
    "thm4.2",
    "thm4.3",
    "thm4.4",
    "thm5.1",
    "thm5.2",
    "thm6.1",
    "thm6.2",
    "legacy1.1",
    "legacy1.3",
    "legacy1.7",
    "legacy1.8",
    "legacy1.10",
    "legacy1.13",
    "legacy1.18",
    "legacy1.20",
    "prop7.1",
    "prop7.2",
    "prop7.11",
    "prop7.12",
    "prop7.3",
)

#: Ids whose hypothesis is an ordering of real values.
REAL_ONLY_IDS = frozenset({"prop7.11", "prop7.12"})

DEFAULT_DIMS = (1, 2, 3, 8)
DEFAULT_FIELDS = ("real", "complex")
DEFAULT_TRIALS = 1000

_RESAMPLE_CAP = 64


@dataclass(frozen=True)
class InstanceResult:
    """One evaluated instance: every asserted comparison plus the headline pair."""

    theorem: str
    field: str
    dim: int
    admissible: bool
    margin: float
    gap: float
    bound: float
    comparisons: tuple[tuple[str, float, str, float], ...]

    def passed(self, tol: float = CHAIN_REL_TOL) -> bool:
        return all(leq_with_slack(lhs, rhs, tol) for _, lhs, _, rhs in self.comparisons)


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate (and optionally per-instance) outcome of a verification run."""

    metadata: dict
    aggregate: dict
    per_theorem: dict
    records: Optional[list] = None

    @property
    def violations(self) -> int:
        return int(self.aggregate["violations"])

    @property
    def counterexamples(self) -> int:
        return int(self.aggregate["counterexamples"])

    def as_dict(self) -> dict:
        doc = {
            "metadata": self.metadata,
            "aggregate": self.aggregate,
            "per_theorem": self.per_theorem,
        }
        if self.records is not None:
            doc["records"] = self.records
        return doc

    def to_json(self) -> str:
        return render_json(self.as_dict())


# ---------------------------------------------------------------------------
# Deterministic per-instance RNG.


def _rng_for(seed: int, theorem: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, theorem, index) so execution order is irrelevant."""
    tag = zlib.crc32(theorem.encode("ascii"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(index)]))


# ---------------------------------------------------------------------------
# Raw draws.


def _rand_coords(rng: np.random.Generator, dim: int, field: FieldTag) -> np.ndarray:
    re = rng.uniform(-2.0, 2.0, dim)
    if field is FieldTag.COMPLEX:
        return re + 1j * rng.uniform(-2.0, 2.0, dim)
    return re


def _nonzero_coords(rng, dim, field, floor: float = 1e-3) -> np.ndarray:
    for _ in range(_RESAMPLE_CAP):
        v = _rand_coords(rng, dim, field)
        if _array_norm(v) >= floor:
            return v
    v = np.zeros(dim, dtype=field.dtype)
    v[0] = 1.0
    return v


def _unit_coords(rng, dim, field) -> np.ndarray:
    v = _nonzero_coords(rng, dim, field)
    return v / _array_norm(v)


def _radius(rng, lo: float = 1e-3, hi: float = 10.0) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _frac(rng, adversarial: bool) -> float:
    """In-ball fraction of the sampled residual; > 1 breaks the hypothesis."""
    if adversarial:
        return 2.0 + 9.0 * float(rng.uniform())
    return float(rng.uniform(0.0, 0.999))


def _rand_scalar(rng, field: FieldTag):
    if field is FieldTag.COMPLEX:
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    return float(rng.uniform(-2.0, 2.0))


def _sample_pair(rng, field: FieldTag, positive_real: bool = False):
    """(lo, hi) with |hi-lo|, |hi+lo| >= 1e-3 * mass; optionally Re(hi*conj(lo)) > 0."""
    for _ in range(_RESAMPLE_CAP):
        lo, hi = _rand_scalar(rng, field), _rand_scalar(rng, field)
        mass = abs(lo) + abs(hi)
        if mass < 1e-6:
            continue
        if abs(hi - lo) < 1e-3 * mass or abs(hi + lo) < 1e-3 * mass:
            continue
        if positive_real:
            re = (complex(hi) * complex(lo).conjugate()).real
            if abs(re) < 1e-3 * abs(lo) * abs(hi):
                continue
            if re < 0:
                lo = -lo  # flips the sign of Re(hi*conj(lo)); separations swap roles
        return lo, hi
    one = 1.0 if field is FieldTag.REAL else complex(1.0)
    return one, 2.5 * one


def _sample_seq_pair(rng, field: FieldTag, k: int, positive_sum: bool = False):
    """Sequences (lo_i), (hi_i) jointly nondegenerate; optionally sum Re(hi conj(lo)) > 0."""
    for _ in range(_RESAMPLE_CAP):
        lo = _rand_coords(rng, k, field)
        hi = _rand_coords(rng, k, field)
        mass = _array_norm(lo) + _array_norm(hi)
        if mass < 1e-6:
            continue
        if _array_norm(hi - lo) < 1e-3 * mass or _array_norm(hi + lo) < 1e-3 * mass:
            continue
        if positive_sum:
            re = float(np.vdot(lo, hi).real)
            if abs(re) < 1e-3 * _array_norm(lo) * _array_norm(hi):
                continue
            if re < 0:
                lo = -lo
        return lo, hi
    ones = np.ones(k, dtype=field.dtype)
    return ones, 2.5 * ones


# ---------------------------------------------------------------------------
# Typed instance values, and their JSON encoding/decoding.


def _enc_scalar(c, field: FieldTag):
    c = complex(c)
    if field is FieldTag.REAL:
        return c.real
    return {"re": c.real, "im": c.imag}


def _enc_array(arr: np.ndarray, field: FieldTag) -> list:
    return [_enc_scalar(v, field) for v in arr]


def _enc_value(value, field: FieldTag):
    if isinstance(value, Vector):
        return _enc_array(value.coords, field)
    if isinstance(value, CoefficientSequence):
        return _enc_array(value.entries, field)
    if isinstance(value, ScalarPair):
        return {"lo": _enc_scalar(value.lo, field), "hi": _enc_scalar(value.hi, field)}
    if isinstance(value, dict) and isinstance(value.get("poly"), np.ndarray):
        return {"poly": _enc_array(value["poly"], field)}
    return value


def _encode_instance(inst: dict) -> dict:
    """The JSON-able document form of a typed instance, keys in the same order."""
    field = FieldTag.parse(inst["field"])
    return {key: _enc_value(value, field) for key, value in inst.items()}


def _same_field(value, field: FieldTag):
    if value.field is not field:
        raise FieldMismatchError(
            f"{value.field.value} {type(value).__name__} in a {field.value} instance"
        )
    return value


def _dec_scalar(v):
    if isinstance(v, bool):
        raise InputFormatError(f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, dict) and v and set(v) <= {"re", "im"}:
        try:
            return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
        except (TypeError, ValueError):
            raise InputFormatError(f"bad complex scalar {v!r}")
    raise InputFormatError(f"expected a number or {{'re','im'}} object, got {v!r}")


def _dec_vector(obj, field: FieldTag) -> Vector:
    if isinstance(obj, Vector):
        return _same_field(obj, field)
    if not isinstance(obj, (list, tuple)):
        raise InputFormatError(f"expected a coordinate list, got {obj!r}")
    return vector([_dec_scalar(v) for v in obj], field)


def _dec_seq(obj, field: FieldTag) -> CoefficientSequence:
    if isinstance(obj, CoefficientSequence):
        return _same_field(obj, field)
    if not isinstance(obj, (list, tuple)):
        raise InputFormatError(f"expected a coefficient list, got {obj!r}")
    return coefficients([_dec_scalar(v) for v in obj], field)


def _dec_pair(obj) -> ScalarPair:
    if isinstance(obj, ScalarPair):
        return obj
    if not isinstance(obj, dict) or "lo" not in obj or "hi" not in obj:
        raise InputFormatError(f"expected {{'lo','hi'}}, got {obj!r}")
    return ScalarPair(_dec_scalar(obj["lo"]), _dec_scalar(obj["hi"]))


_FAMILY_CACHE: dict = {}


def _family(field: FieldTag, dim: int, size: int) -> OrthonormalFamily:
    key = (field, dim, size)
    fam = _FAMILY_CACHE.get(key)
    if fam is None:
        fam = standard_basis(field, dim, size)
        _FAMILY_CACHE[key] = fam
    return fam


_DOMAIN_CACHE: dict = {}

DEFAULT_DOMAIN_SPEC = {
    "interval": [0.0, 1.0],
    "weight": {"poly": [1.0]},
    "rule": {"kind": "gauss", "n": 64},
}


def _dec_domain(obj) -> WeightedDomain:
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a domain object, got {obj!r}")
    try:
        interval = obj.get("interval", [0.0, 1.0])
        a, b = float(interval[0]), float(interval[1])
        weight = obj.get("weight", {"poly": [1.0]})
        wpoly = tuple(float(c) for c in weight["poly"])
        rule = obj.get("rule", {"kind": "gauss", "n": 64})
        kind = str(rule.get("kind", "gauss"))
        n = int(rule.get("n", 64))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputFormatError(f"bad domain object {obj!r}: {exc}")
    key = (a, b, wpoly, kind, n)
    dom = _DOMAIN_CACHE.get(key)
    if dom is None:
        dom = build_domain((a, b), polynomial(wpoly), kind, n)
        _DOMAIN_CACHE[key] = dom
    return dom


def _dec_function(obj, dom: WeightedDomain, field: FieldTag) -> DiscretizedFunction:
    if isinstance(obj, dict) and "poly" in obj:
        coeffs = obj["poly"]
        if not isinstance(coeffs, np.ndarray):
            coeffs = np.array([_dec_scalar(v) for v in coeffs])
        return dom.discretize(np.polynomial.polynomial.polyval(dom.nodes, coeffs), field)
    if isinstance(obj, dict) and "values" in obj:
        return dom.discretize([_dec_scalar(v) for v in obj["values"]], field)
    raise InputFormatError(f"expected {{'poly'}} or {{'values'}} function, got {obj!r}")


def _poly_minmax_scale(coeffs, nodes) -> float:
    """max |p(s_i)| over the nodes, used to scale sampled perturbations."""
    vals = np.polynomial.polynomial.polyval(nodes, np.asarray(coeffs))
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Samplers.  Each returns a typed instance dict whose hypothesis holds by
# construction (or is deliberately broken when adversarial=True).


def _base(theorem: str, field: FieldTag) -> dict:
    return {"theorem": theorem, "field": field.value}


def _sample_ball_instance(theorem, rng, dim, field, adversarial, restrict=False):
    """x in the ball around a; restrict=True keeps r < ||a|| (strict form)."""
    if restrict:
        a = _nonzero_coords(rng, dim, field)
        na = _array_norm(a)
        if theorem == "legacy1.7" and adversarial:
            # keep Re<x,a> >= 0 evaluable: small radius, capped inflation
            s = float(rng.uniform(0.05, 0.3))
            r = s * na
            t = 2.0 + float(rng.uniform()) * (0.9 / s - 2.0)
        else:
            r = float(rng.uniform(0.05, 0.95)) * na
            t = _frac(rng, adversarial)
    else:
        a = _rand_coords(rng, dim, field)
        r = _radius(rng)
        t = _frac(rng, adversarial)
    x = a + t * r * _unit_coords(rng, dim, field)
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["a"] = Vector._computed(a, field)
    inst["r"] = r
    return inst


def _sample_two_sided_instance(theorem, rng, dim, field, adversarial):
    y = _nonzero_coords(rng, dim, field)
    ny = _array_norm(y)
    positive = theorem in ("legacy1.3",)
    lo, hi = _sample_pair(rng, field, positive_real=positive)
    mid = (complex(lo) + complex(hi)) / 2.0
    radius = 0.5 * abs(complex(hi) - complex(lo)) * ny
    t = _frac(rng, adversarial)
    x = (mid if field is FieldTag.COMPLEX else mid.real) * y + t * radius * _unit_coords(
        rng, dim, field
    )
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["y"] = Vector._computed(y, field)
    inst["pair"] = ScalarPair(lo, hi)
    return inst


def _sample_real_range_instance(theorem, rng, dim, field, adversarial):
    """Real pair 0 < m < M against y; Re<x,y> stays >= 0 for the strict triangle form."""
    y = _nonzero_coords(rng, dim, field)
    ny = _array_norm(y)
    m = _radius(rng, 0.05, 2.0)
    if theorem == "legacy1.8" and adversarial:
        dfrac = float(rng.uniform(0.05, 0.5))
        M = m * (1.0 + dfrac)
        cap = 0.9 * (M + m) / (M - m)
        t = 2.0 + float(rng.uniform()) * (min(11.0, cap) - 2.0)
    else:
        M = m + _radius(rng, 0.01, 5.0)
        t = _frac(rng, adversarial)
    mid = 0.5 * (m + M)
    radius = 0.5 * (M - m) * ny
    x = mid * y + t * radius * _unit_coords(rng, dim, field)
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["y"] = Vector._computed(y, field)
    inst["m"] = m
    inst["M"] = M
    return inst


def _sample_gruss_ball_instance(theorem, rng, dim, field, adversarial):
    e = _unit_coords(rng, dim, field)
    if theorem == "legacy1.10":
        r1 = float(rng.uniform(0.05, 0.95))
        r2 = float(rng.uniform(0.05, 0.95))
    elif adversarial:
        r1, r2 = _radius(rng, 1e-3, 0.5), _radius(rng, 1e-3, 0.5)
    else:
        r1, r2 = _radius(rng), _radius(rng)
    x = e + _frac(rng, adversarial) * r1 * _unit_coords(rng, dim, field)
    y = e + _frac(rng, adversarial) * r2 * _unit_coords(rng, dim, field)
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["y"] = Vector._computed(y, field)
    inst["e"] = Vector._computed(e, field)
    inst["r1"] = r1
    inst["r2"] = r2
    return inst


def _sample_gruss_pair_instance(theorem, rng, dim, field, adversarial):
    e = _unit_coords(rng, dim, field)
    positive = theorem == "legacy1.13"
    lo_x, hi_x = _sample_pair(rng, field, positive_real=positive)
    lo_y, hi_y = _sample_pair(rng, field, positive_real=positive)

    def point(lo, hi):
        mid = (complex(lo) + complex(hi)) / 2.0
        radius = 0.5 * abs(complex(hi) - complex(lo))  # ||e|| = 1
        t = _frac(rng, adversarial)
        c = mid if field is FieldTag.COMPLEX else mid.real
        return c * e + t * radius * _unit_coords(rng, dim, field)

    inst = _base(theorem, field)
    inst["x"] = Vector._computed(point(lo_x, hi_x), field)
    inst["y"] = Vector._computed(point(lo_y, hi_y), field)
    inst["e"] = Vector._computed(e, field)
    inst["pair_x"] = ScalarPair(lo_x, hi_x)
    inst["pair_y"] = ScalarPair(lo_y, hi_y)
    return inst


def _family_size(dim: int) -> int:
    return dim - 1 if dim >= 2 else 1


def _sample_bessel_ball_instance(theorem, rng, dim, field, adversarial):
    k = _family_size(dim)
    lam = _nonzero_coords(rng, k, field)
    lam_norm = _array_norm(lam)
    if theorem == "legacy1.18":
        r = float(rng.uniform(0.05, 0.95)) * lam_norm
    else:
        r = _radius(rng)
    center = np.zeros(dim, dtype=field.dtype)
    center[:k] = lam
    x = center + _frac(rng, adversarial) * r * _unit_coords(rng, dim, field)
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["size"] = k
    inst["lam"] = CoefficientSequence._computed(lam, field)
    inst["r"] = r
    return inst


def _sample_bessel_pair_instance(theorem, rng, dim, field, adversarial):
    k = _family_size(dim)
    lo, hi = _sample_seq_pair(rng, field, k, positive_sum=(theorem == "legacy1.20"))
    center = np.zeros(dim, dtype=field.dtype)
    center[:k] = 0.5 * (lo + hi)
    radius = 0.5 * _array_norm(hi - lo)
    x = center + _frac(rng, adversarial) * radius * _unit_coords(rng, dim, field)
    inst = _base(theorem, field)
    inst["x"] = Vector._computed(x, field)
    inst["size"] = k
    inst["gammas"] = CoefficientSequence._computed(lo, field)
    inst["Gammas"] = CoefficientSequence._computed(hi, field)
    return inst


def _sample_family_gruss_ball_instance(theorem, rng, dim, field, adversarial):
    k = _family_size(dim)
    lam = _nonzero_coords(rng, k, field)
    mu = _nonzero_coords(rng, k, field)
    if adversarial:
        r1, r2 = _radius(rng, 1e-3, 0.5), _radius(rng, 1e-3, 0.5)
    else:
        r1, r2 = _radius(rng), _radius(rng)

    def point(coeffs, r):
        center = np.zeros(dim, dtype=field.dtype)
        center[:k] = coeffs
        return center + _frac(rng, adversarial) * r * _unit_coords(rng, dim, field)

    inst = _base(theorem, field)
    inst["x"] = Vector._computed(point(lam, r1), field)
    inst["y"] = Vector._computed(point(mu, r2), field)
    inst["size"] = k
    inst["lam"] = CoefficientSequence._computed(lam, field)
    inst["mu"] = CoefficientSequence._computed(mu, field)
    inst["r1"] = r1
    inst["r2"] = r2
    return inst


def _sample_family_gruss_pair_instance(theorem, rng, dim, field, adversarial):
    k = _family_size(dim)
    lo_x, hi_x = _sample_seq_pair(rng, field, k)
    lo_y, hi_y = _sample_seq_pair(rng, field, k)

    def point(lo, hi):
        center = np.zeros(dim, dtype=field.dtype)
        center[:k] = 0.5 * (lo + hi)
        radius = 0.5 * _array_norm(hi - lo)
        return center + _frac(rng, adversarial) * radius * _unit_coords(rng, dim, field)

    inst = _base(theorem, field)
    inst["x"] = Vector._computed(point(lo_x, hi_x), field)
    inst["y"] = Vector._computed(point(lo_y, hi_y), field)
    inst["size"] = k
    inst["gammas_x"] = CoefficientSequence._computed(lo_x, field)
    inst["Gammas_x"] = CoefficientSequence._computed(hi_x, field)
    inst["phis_y"] = CoefficientSequence._computed(lo_y, field)
    inst["Phis_y"] = CoefficientSequence._computed(hi_y, field)
    return inst


def _default_domain() -> WeightedDomain:
    return _dec_domain(DEFAULT_DOMAIN_SPEC)


def _rand_poly(rng, deg: int, field: FieldTag) -> np.ndarray:
    return _rand_coords(rng, deg + 1, field)


def _scaled_perturbation(rng, deg, field, nodes, limit) -> np.ndarray:
    """Polynomial q with max_node |q| = limit (zero polynomial if limit is 0)."""
    p = _rand_poly(rng, deg, field)
    m = _poly_minmax_scale(p, nodes)
    if m < 1e-12:
        p = np.zeros_like(p)
        p[0] = 1.0
        m = 1.0
    return p * (limit / m)


def _sample_integral_ball_instance(theorem, rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_poly(rng, 3, field)
    r = _radius(rng)
    t = _frac(rng, adversarial)
    delta = _scaled_perturbation(rng, 3, field, dom.nodes, t * r)
    f = np.polynomial.polynomial.polyadd(g, delta)
    inst = _base(theorem, field)
    inst["domain"] = DEFAULT_DOMAIN_SPEC
    inst["f"] = {"poly": f}
    inst["g"] = {"poly": g}
    inst["r"] = r
    return inst


def _sample_integral_pair_instance(theorem, rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_poly(rng, 2, field)
    lo, hi = _sample_pair(rng, field)
    mid = (complex(lo) + complex(hi)) / 2.0
    t = _frac(rng, adversarial)
    q = _scaled_perturbation(rng, 2, field, dom.nodes, t * 0.5 * abs(complex(hi) - complex(lo)))
    mid_c = mid if field is FieldTag.COMPLEX else mid.real
    factor = np.polynomial.polynomial.polyadd(np.array([mid_c]), q)
    f = np.polynomial.polynomial.polymul(factor, g)
    inst = _base(theorem, field)
    inst["domain"] = DEFAULT_DOMAIN_SPEC
    inst["f"] = {"poly": f}
    inst["g"] = {"poly": g}
    inst["pair"] = ScalarPair(lo, hi)
    return inst


def _sample_integral_range_instance(theorem, rng, dim, field, adversarial):
    dom = _default_domain()
    q = _rand_poly(rng, 2, FieldTag.REAL)
    g = np.polynomial.polynomial.polymul(q, q)
    g = np.polynomial.polynomial.polyadd(g, np.array([float(rng.uniform(0.1, 1.0))]))
    m = _radius(rng, 0.05, 2.0)
    M = m + _radius(rng, 0.01, 5.0)
    t = _frac(rng, adversarial)
    q2 = _scaled_perturbation(rng, 2, FieldTag.REAL, dom.nodes, t * 0.5 * (M - m))
    factor = np.polynomial.polynomial.polyadd(np.array([0.5 * (m + M)]), q2)
    f = np.polynomial.polynomial.polymul(factor, g)
    inst = _base(theorem, FieldTag.REAL)
    inst["domain"] = DEFAULT_DOMAIN_SPEC
    inst["f"] = {"poly": f}
    inst["g"] = {"poly": g}
    inst["m"] = m
    inst["M"] = M
    return inst


def _sample_integral_gruss_instance(theorem, rng, dim, field, adversarial):
    dom = _default_domain()
    h0 = _rand_poly(rng, 2, field)
    nh = dom.norm(dom.discretize(np.polynomial.polynomial.polyval(dom.nodes, h0), field))
    if nh < 1e-3:
        h0 = np.zeros_like(h0)
        h0[0] = 1.0
        nh = 1.0
    h = h0 / nh

    def side(inflate):
        lo, hi = _sample_pair(rng, field)
        mid = (complex(lo) + complex(hi)) / 2.0
        t = _frac(rng, inflate)
        q = _scaled_perturbation(
            rng, 2, field, dom.nodes, t * 0.5 * abs(complex(hi) - complex(lo))
        )
        mid_c = mid if field is FieldTag.COMPLEX else mid.real
        factor = np.polynomial.polynomial.polyadd(np.array([mid_c]), q)
        return np.polynomial.polynomial.polymul(factor, h), lo, hi

    f, lo_f, hi_f = side(adversarial)
    g, lo_g, hi_g = side(False)
    inst = _base(theorem, field)
    inst["domain"] = DEFAULT_DOMAIN_SPEC
    inst["f"] = {"poly": f}
    inst["g"] = {"poly": g}
    inst["h"] = {"poly": h}
    inst["pair_f"] = ScalarPair(lo_f, hi_f)
    inst["pair_g"] = ScalarPair(lo_g, hi_g)
    return inst


_SAMPLERS: dict[str, Callable] = {
    "thm2.1": lambda *a: _sample_ball_instance("thm2.1", *a),
    "prop2.3": lambda *a: _sample_ball_instance("prop2.3", *a),
    "thm2.2": lambda *a: _sample_two_sided_instance("thm2.2", *a),
    "prop2.4": lambda *a: _sample_real_range_instance("prop2.4", *a),
    "thm4.1": lambda *a: _sample_gruss_ball_instance("thm4.1", *a),
    "thm4.2": lambda *a: _sample_gruss_ball_instance("thm4.2", *a),
    "thm4.3": lambda *a: _sample_gruss_pair_instance("thm4.3", *a),
    "thm4.4": lambda *a: _sample_gruss_pair_instance("thm4.4", *a),
    "thm5.1": lambda *a: _sample_bessel_ball_instance("thm5.1", *a),
    "thm5.2": lambda *a: _sample_bessel_pair_instance("thm5.2", *a),
    "thm6.1": lambda *a: _sample_family_gruss_ball_instance("thm6.1", *a),
    "thm6.2": lambda *a: _sample_family_gruss_pair_instance("thm6.2", *a),
    "legacy1.1": lambda *a: _sample_ball_instance("legacy1.1", *a, restrict=True),
    "legacy1.3": lambda *a: _sample_two_sided_instance("legacy1.3", *a),
    "legacy1.7": lambda *a: _sample_ball_instance("legacy1.7", *a, restrict=True),
    "legacy1.8": lambda *a: _sample_real_range_instance("legacy1.8", *a),
    "legacy1.10": lambda *a: _sample_gruss_ball_instance("legacy1.10", *a),
    "legacy1.13": lambda *a: _sample_gruss_pair_instance("legacy1.13", *a),
    "legacy1.18": lambda *a: _sample_bessel_ball_instance("legacy1.18", *a),
    "legacy1.20": lambda *a: _sample_bessel_pair_instance("legacy1.20", *a),
    "prop7.1": lambda *a: _sample_integral_ball_instance("prop7.1", *a),
    "prop7.2": lambda *a: _sample_integral_pair_instance("prop7.2", *a),
    "prop7.11": lambda *a: _sample_integral_range_instance("prop7.11", *a),
    "prop7.12": lambda *a: _sample_integral_range_instance("prop7.12", *a),
    "prop7.3": lambda *a: _sample_integral_gruss_instance("prop7.3", *a),
}


# ---------------------------------------------------------------------------
# Evaluators.


def _chain_comparisons(chain: BoundChain) -> list:
    comps = [
        (chain.labels[i], chain.values[i], chain.labels[i + 1], chain.values[i + 1])
        for i in range(len(chain.values) - 1)
    ]
    if chain.additive is not None:
        comps.extend(_chain_comparisons(chain.additive))
    return comps


def _intermediate_comparisons(report) -> list:
    inter = report.intermediates
    return [
        (inter[i][0], inter[i][1], inter[i + 1][0], inter[i + 1][1])
        for i in range(0, len(inter) - 1, 2)
    ]


def _result_from_chain(inst, chain: BoundChain, gap_index: int) -> InstanceResult:
    rep = chain.admissibility
    return InstanceResult(
        theorem=inst["theorem"],
        field=inst["field"],
        dim=_inst_dim(inst),
        admissible=rep.holds,
        margin=rep.margin,
        gap=chain.values[gap_index],
        bound=chain.values[-1],
        comparisons=tuple(_chain_comparisons(chain)),
    )


def _result_from_defect(inst, defect) -> InstanceResult:
    rep = defect.admissibility
    return InstanceResult(
        theorem=inst["theorem"],
        field=inst["field"],
        dim=_inst_dim(inst),
        admissible=rep.holds,
        margin=rep.margin,
        gap=defect.defect,
        bound=defect.bound,
        comparisons=(("defect", defect.defect, "bound", defect.bound),),
    )


def _result_from_gruss(inst, report, ordered: bool) -> InstanceResult:
    comps = [("gap", report.gap, label, value) for label, value in report.bounds]
    if ordered and len(report.bounds) == 2:
        (l0, v0), (l1, v1) = report.bounds
        comps.append((l0, v0, l1, v1))
    comps.extend(_intermediate_comparisons(report))
    margins = [rep.margin for rep in report.admissibility]
    return InstanceResult(
        theorem=inst["theorem"],
        field=inst["field"],
        dim=_inst_dim(inst),
        admissible=report.admissible,
        margin=min(margins),
        gap=report.gap,
        bound=report.bounds[-1][1],
        comparisons=tuple(comps),
    )


def _result_from_bessel(inst, report, dim) -> InstanceResult:
    comps = []
    if report.chain is not None:
        comps.extend(_chain_comparisons(report.chain))
    if report.additive_chain is not None:
        comps.extend(_chain_comparisons(report.additive_chain))
    comps.append(("gap", report.gap, "bound", report.bound))
    rep = report.admissibility
    return InstanceResult(
        theorem=inst["theorem"],
        field=inst["field"],
        dim=dim,
        admissible=rep.holds,
        margin=rep.margin,
        gap=report.gap,
        bound=report.bound,
        comparisons=tuple(comps),
    )


def _inst_dim(inst) -> int:
    if "domain" in inst:
        rule = inst["domain"].get("rule", {}) if isinstance(inst["domain"], dict) else {}
        return int(rule.get("n", 64))
    x = inst["x"]
    return x.dim if isinstance(x, Vector) else len(x)


def _field_of(inst) -> FieldTag:
    return FieldTag.parse(inst["field"])


def _eval_thm21(inst):
    field = _field_of(inst)
    chain = reverse_schwarz_ball(
        _dec_vector(inst["x"], field), _dec_vector(inst["a"], field), float(inst["r"])
    )
    return _result_from_chain(inst, chain, gap_index=3)


def _eval_prop23(inst):
    field = _field_of(inst)
    defect = triangle_reverse_ball(
        _dec_vector(inst["x"], field), _dec_vector(inst["a"], field), float(inst["r"])
    )
    return _result_from_defect(inst, defect)


def _eval_thm22(inst):
    field = _field_of(inst)
    chain = reverse_schwarz_pair(
        _dec_vector(inst["x"], field), _dec_vector(inst["y"], field), _dec_pair(inst["pair"])
    )
    return _result_from_chain(inst, chain, gap_index=3)


def _eval_prop24(inst):
    field = _field_of(inst)
    defect = triangle_reverse_pair(
        _dec_vector(inst["x"], field),
        _dec_vector(inst["y"], field),
        float(inst["m"]),
        float(inst["M"]),
    )
    return _result_from_defect(inst, defect)


def _eval_gruss(inst, op, ordered):
    field = _field_of(inst)
    report = op(
        _dec_vector(inst["x"], field),
        _dec_vector(inst["y"], field),
        _dec_vector(inst["e"], field),
        float(inst["r1"]) if "r1" in inst else _dec_pair(inst["pair_x"]),
        float(inst["r2"]) if "r2" in inst else _dec_pair(inst["pair_y"]),
    )
    return _result_from_gruss(inst, report, ordered)


def _eval_bessel_ball(inst, op):
    field = _field_of(inst)
    x = _dec_vector(inst["x"], field)
    fam = _family(field, x.dim, int(inst["size"]))
    report = op(x, fam, _dec_seq(inst["lam"], field), float(inst["r"]))
    return _result_from_bessel(inst, report, x.dim)


def _eval_bessel_pair(inst, op):
    field = _field_of(inst)
    x = _dec_vector(inst["x"], field)
    fam = _family(field, x.dim, int(inst["size"]))
    report = op(x, fam, _dec_seq(inst["gammas"], field), _dec_seq(inst["Gammas"], field))
    return _result_from_bessel(inst, report, x.dim)


def _eval_thm61(inst):
    field = _field_of(inst)
    x = _dec_vector(inst["x"], field)
    fam = _family(field, x.dim, int(inst["size"]))
    report = gruss_orthonormal_ball(
        x,
        _dec_vector(inst["y"], field),
        fam,
        _dec_seq(inst["lam"], field),
        _dec_seq(inst["mu"], field),
        float(inst["r1"]),
        float(inst["r2"]),
    )
    return _result_from_gruss(inst, report, ordered=True)


def _eval_thm62(inst):
    field = _field_of(inst)
    x = _dec_vector(inst["x"], field)
    fam = _family(field, x.dim, int(inst["size"]))
    report = gruss_orthonormal_pair(
        x,
        _dec_vector(inst["y"], field),
        fam,
        _dec_seq(inst["gammas_x"], field),
        _dec_seq(inst["Gammas_x"], field),
        _dec_seq(inst["phis_y"], field),
        _dec_seq(inst["Phis_y"], field),
    )
    return _result_from_gruss(inst, report, ordered=True)


def _eval_integral_chain(inst, which):
    field = _field_of(inst)
    dom = _dec_domain(inst["domain"])
    f = _dec_function(inst["f"], dom, field)
    g = _dec_function(inst["g"], dom, field)
    if which == "ball":
        chain = integral_schwarz_ball(f, g, dom, float(inst["r"]))
        return _result_from_chain(inst, chain, gap_index=3)
    if which == "pair":
        chain = integral_schwarz_pair(f, g, dom, _dec_pair(inst["pair"]))
        return _result_from_chain(inst, chain, gap_index=3)
    chain = integral_schwarz_range(f, g, dom, float(inst["m"]), float(inst["M"]))
    return _result_from_chain(inst, chain, gap_index=1)


def _eval_prop712(inst):
    field = _field_of(inst)
    dom = _dec_domain(inst["domain"])
    defect = integral_triangle(
        _dec_function(inst["f"], dom, field),
        _dec_function(inst["g"], dom, field),
        dom,
        float(inst["m"]),
        float(inst["M"]),
    )
    return _result_from_defect(inst, defect)


def _eval_prop73(inst):
    field = _field_of(inst)
    dom = _dec_domain(inst["domain"])
    report = integral_gruss(
        _dec_function(inst["f"], dom, field),
        _dec_function(inst["g"], dom, field),
        _dec_function(inst["h"], dom, field),
        dom,
        _dec_pair(inst["pair_f"]),
        _dec_pair(inst["pair_g"]),
    )
    return _result_from_gruss(inst, report, ordered=False)


def _eval_legacy13(inst):
    field = _field_of(inst)
    chain = legacy_schwarz_pair(
        _dec_vector(inst["x"], field), _dec_vector(inst["y"], field), _dec_pair(inst["pair"])
    )
    rep = chain.admissibility
    comps = _chain_comparisons(chain)
    return InstanceResult(
        theorem=inst["theorem"],
        field=inst["field"],
        dim=_inst_dim(inst),
        admissible=rep.holds,
        margin=rep.margin,
        gap=chain.additive.values[1],
        bound=chain.additive.values[2],
        comparisons=tuple(comps),
    )


def _eval_legacy11(inst):
    field = _field_of(inst)
    chain = legacy_schwarz_ball(
        _dec_vector(inst["x"], field), _dec_vector(inst["a"], field), float(inst["r"])
    )
    return _result_from_chain(inst, chain, gap_index=2)


def _eval_legacy17(inst):
    field = _field_of(inst)
    defect = legacy_triangle_ball(
        _dec_vector(inst["x"], field), _dec_vector(inst["a"], field), float(inst["r"])
    )
    return _result_from_defect(inst, defect)


def _eval_legacy18(inst):
    field = _field_of(inst)
    defect = legacy_triangle_pair(
        _dec_vector(inst["x"], field),
        _dec_vector(inst["y"], field),
        float(inst["m"]),
        float(inst["M"]),
    )
    return _result_from_defect(inst, defect)


def _eval_legacy110(inst):
    field = _field_of(inst)
    report = legacy_gruss_ball(
        _dec_vector(inst["x"], field),
        _dec_vector(inst["y"], field),
        _dec_vector(inst["e"], field),
        float(inst["r1"]),
        float(inst["r2"]),
    )
    return _result_from_gruss(inst, report, ordered=False)


def _eval_legacy113(inst):
    field = _field_of(inst)
    report = legacy_gruss_pair(
        _dec_vector(inst["x"], field),
        _dec_vector(inst["y"], field),
        _dec_vector(inst["e"], field),
        _dec_pair(inst["pair_x"]),
        _dec_pair(inst["pair_y"]),
    )
    return _result_from_gruss(inst, report, ordered=False)


_EVALUATORS: dict[str, Callable] = {
    "thm2.1": _eval_thm21,
    "thm2.2": _eval_thm22,
    "prop2.3": _eval_prop23,
    "prop2.4": _eval_prop24,
    "thm4.1": lambda inst: _eval_gruss(inst, gruss_ball, ordered=False),
    "thm4.2": lambda inst: _eval_gruss(inst, gruss_ball_refined, ordered=False),
    "thm4.3": lambda inst: _eval_gruss(inst, gruss_pair, ordered=True),
    "thm4.4": lambda inst: _eval_gruss(inst, gruss_pair_refined, ordered=False),
    "thm5.1": lambda inst: _eval_bessel_ball(inst, bessel_reverse_ball),
    "thm5.2": lambda inst: _eval_bessel_pair(inst, bessel_reverse_pair),
    "thm6.1": _eval_thm61,
    "thm6.2": _eval_thm62,
    "legacy1.1": _eval_legacy11,
    "legacy1.3": _eval_legacy13,
    "legacy1.7": _eval_legacy17,
    "legacy1.8": _eval_legacy18,
    "legacy1.10": _eval_legacy110,
    "legacy1.13": _eval_legacy113,
    "legacy1.18": lambda inst: _eval_bessel_ball(inst, legacy_bessel_ball),
    "legacy1.20": lambda inst: _eval_bessel_pair(inst, legacy_bessel_pair),
    "prop7.1": lambda inst: _eval_integral_chain(inst, "ball"),
    "prop7.2": lambda inst: _eval_integral_chain(inst, "pair"),
    "prop7.11": lambda inst: _eval_integral_chain(inst, "range"),
    "prop7.12": _eval_prop712,
    "prop7.3": _eval_prop73,
}


def normalize_theorem_id(theorem: str) -> str:
    tid = str(theorem).strip().lower()
    if tid not in _EVALUATORS:
        raise InputFormatError(
            f"unknown theorem id {theorem!r} (expected one of {', '.join(THEOREM_IDS)})"
        )
    return tid


def sample_admissible(
    theorem: str,
    field: FieldTag | str = FieldTag.REAL,
    dim: int = 3,
    seed: int = 0,
    adversarial: bool = False,
    index: int = 0,
) -> dict:
    """Deterministically sample one instance whose hypothesis holds by construction.

    Returns the instance as a JSON-able document, the schema `evaluate_instance`
    and `ineq eval` read.
    """
    tid = normalize_theorem_id(theorem)
    tag = field if isinstance(field, FieldTag) else FieldTag.parse(field)
    if tid in REAL_ONLY_IDS:
        tag = FieldTag.REAL
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
    rng = _rng_for(seed, tid, index)
    inst = _encode_instance(_SAMPLERS[tid](rng, int(dim), tag, bool(adversarial)))
    inst["seed"] = int(seed)
    return inst


def evaluate_instance(inst: dict) -> InstanceResult:
    """Decode one instance dict (a document, or typed) and run its theorem's operation."""
    if not isinstance(inst, dict):
        raise InputFormatError(f"instance must be an object, got {type(inst).__name__}")
    if "theorem" not in inst:
        raise InputFormatError("instance is missing the 'theorem' key")
    tid = normalize_theorem_id(inst["theorem"])
    if "field" not in inst:
        raise InputFormatError("instance is missing the 'field' key")
    try:
        return _EVALUATORS[tid](inst)
    except KeyError as exc:
        raise InputFormatError(f"instance for {tid} is missing key {exc.args[0]!r}")


# ---------------------------------------------------------------------------
# Suite runner.


class _Stats:
    __slots__ = ("count", "violations", "counterexamples", "min_slack", "max_ratio")

    def __init__(self):
        self.count = 0
        self.violations = 0
        self.counterexamples = 0
        self.min_slack = None
        self.max_ratio = None

    def add(self, result: InstanceResult, ok: bool) -> None:
        self.count += 1
        if result.admissible:
            if not ok:
                self.violations += 1
            slack = result.bound - result.gap
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack
            if result.bound > 1e-300:
                ratio = result.gap / result.bound
                if self.max_ratio is None or ratio > self.max_ratio:
                    self.max_ratio = ratio
        elif not ok:
            self.counterexamples += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "violations": self.violations,
            "counterexamples": self.counterexamples,
            "min_slack": self.min_slack,
            "max_ratio": self.max_ratio,
        }


def _record(index: int, result: InstanceResult, tol: float, ok: bool) -> dict:
    return {
        "index": index,
        "theorem": result.theorem,
        "field": result.field,
        "dim": result.dim,
        "admissible": result.admissible,
        "margin": result.margin,
        "gap": result.gap,
        "bound": result.bound,
        "slack": result.bound - result.gap,
        "passed": ok,
        "comparisons": [
            [l1, v1, l2, v2, leq_with_slack(v1, v2, tol)]
            for l1, v1, l2, v2 in result.comparisons
        ],
    }


def run_suite(
    theorems: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    dims: Sequence[int] = DEFAULT_DIMS,
    fields: Sequence[str] = DEFAULT_FIELDS,
    tol: float = CHAIN_REL_TOL,
    seed: int = 0,
    adversarial: bool = False,
    keep_records: bool = False,
) -> SuiteReport:
    """Sample and evaluate `trials` instances per theorem over the dims x fields grid.

    Each instance i of a theorem uses an RNG stream derived from (seed,
    theorem, i), so reports depend only on the arguments, never on execution
    order.  Instances stay typed from sampler to evaluator; none is encoded
    to JSON, and records hold only results.  Instance i is drawn on grid
    cell i mod len(grid), the grid being dims x the theorem's fields in
    order; `sample_admissible(theorem, field, dim, seed, adversarial,
    index=i)` returns the same instance as a document, and evaluating that
    document gives the same record bit for bit.

    Violations count admissible instances failing an asserted comparison at
    relative tolerance tol (the theorems guarantee zero); counterexamples
    count hypothesis-violating instances whose bare inequality fails
    (adversarial mode exists to show these are found).
    """
    ids = (
        list(THEOREM_IDS)
        if theorems is None
        else [normalize_theorem_id(t) for t in theorems]
    )
    if trials < 1:
        raise InputFormatError(f"trials must be >= 1, got {trials}")
    if int(seed) < 0:
        raise InputFormatError(f"seed must be nonnegative, got {seed}")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise InputFormatError(f"dimensions must be >= 1, got {dims}")
    field_tags = [FieldTag.parse(f) for f in fields]
    if not field_tags:
        raise InputFormatError("need at least one field")

    total = _Stats()
    per_theorem: dict[str, _Stats] = {}
    records: Optional[list] = [] if keep_records else None
    for tid in ids:
        stats = per_theorem.setdefault(tid, _Stats())
        tags = [t for t in field_tags if not (tid in REAL_ONLY_IDS and t is FieldTag.COMPLEX)]
        if not tags:
            continue
        grid = [(d, t) for d in dims for t in tags]
        sampler = _SAMPLERS[tid]
        evaluator = _EVALUATORS[tid]
        for i in range(int(trials)):
            dim, tag = grid[i % len(grid)]
            rng = _rng_for(seed, tid, i)
            inst = sampler(rng, dim, tag, adversarial)
            result = evaluator(inst)
            ok = result.passed(tol)
            stats.add(result, ok)
            total.add(result, ok)
            if records is not None:
                records.append(_record(i, result, tol, ok))

    metadata = {
        "mode": "verify",
        "version": __version__,
        "seed": int(seed),
        "tol": float(tol),
        "trials": int(trials),
        "dims": dims,
        "fields": [t.value for t in field_tags],
        "theorems": ids,
        "adversarial": bool(adversarial),
    }
    return SuiteReport(
        metadata=metadata,
        aggregate=total.as_dict(),
        per_theorem={tid: per_theorem[tid].as_dict() for tid in ids},
        records=records,
    )


# ---------------------------------------------------------------------------
# File-based evaluation.


def _first_non_finite(result: InstanceResult) -> Optional[tuple[str, float]]:
    """(name, value) of the first reported quantity that is NaN or infinite."""
    named = [("gap", result.gap), ("bound", result.bound), ("margin", result.margin)]
    for lhs_label, lhs, rhs_label, rhs in result.comparisons:
        named += [(lhs_label, lhs), (rhs_label, rhs)]
    for name, value in named:
        if not math.isfinite(value):
            return name, float(value)
    return None


def evaluate_file(path: str, tol: float = CHAIN_REL_TOL) -> SuiteReport:
    """Evaluate an instance document: {"instances": [instance, ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "instances" not in doc:
        raise InputFormatError(f"{path}: top level must be an object with 'instances'")
    instances = doc["instances"]
    if not isinstance(instances, list):
        raise InputFormatError(f"{path}: 'instances' must be a list")

    total = _Stats()
    per_theorem: dict[str, _Stats] = {}
    records: list = []
    order: list[str] = []
    # Overflow is classified below as bad input, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, inst in enumerate(instances):
            try:
                result = evaluate_instance(inst)
            except InputFormatError as exc:
                raise InputFormatError(f"instance {i}: {exc}")
            except (IneqError, ValueError, TypeError) as exc:
                raise InputFormatError(f"instance {i}: {exc}")
            bad = _first_non_finite(result)
            if bad is not None:
                raise InputFormatError(
                    f"instance {i}: {result.theorem} {bad[0]} is {bad[1]!r}; "
                    "the inputs overflow double precision"
                )
            ok = result.passed(tol)
            if result.theorem not in per_theorem:
                order.append(result.theorem)
            per_theorem.setdefault(result.theorem, _Stats()).add(result, ok)
            total.add(result, ok)
            records.append(_record(i, result, tol, ok))

    metadata = {"mode": "eval", "version": __version__, "tol": float(tol)}
    return SuiteReport(
        metadata=metadata,
        aggregate=total.as_dict(),
        per_theorem={tid: per_theorem[tid].as_dict() for tid in order},
        records=records,
    )


CSV_COLUMNS = (
    "index",
    "theorem",
    "field",
    "dim",
    "admissible",
    "margin",
    "gap",
    "bound",
    "slack",
    "passed",
)


def emit_report(report: SuiteReport, path: str, format: str = "json") -> None:
    """Write a report as JSON (full) or CSV (flat per-instance records)."""
    if format == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_json())
        return
    if format != "csv":
        raise InputFormatError(f"unknown format {format!r} (expected 'json' or 'csv')")
    if report.records is None:
        raise InputFormatError("CSV output needs per-instance records")
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            writer.writerow([_csv_cell(rec[c]) for c in CSV_COLUMNS])


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return v
