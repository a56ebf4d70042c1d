"""Randomized verification harness: theorem registry, samplers, suite runner, file eval.

Each supported result has a wire id and one `TheoremSpec` in `_SPECS`, whose
order is the canonical report order.  A spec holds everything the harness
knows about its theorem:

- `params`, the operation's parameters in call order as (key, kind) pairs.
  The kinds are "vector", "seq" (coefficient sequence), "pair" (scalar pair),
  "real", "count" (size k of an orthonormal family, meaning the first k
  standard basis vectors of x's space), "domain" (a quadrature domain) and
  "function" (discretized on that domain);
- `sampler`, called with the keyword `options` that set its theorem-specific
  choices.  It draws the operation's arguments, whose hypothesis holds *by
  construction* (no rejection sampling against the condition itself: the
  point is sampled as center + scaled in-ball residual, so instances land
  arbitrarily close to the hypothesis boundary);
- `operation`, the name of the bound-chain function in this module's
  namespace, looked up each time an instance is evaluated;
- `real_only`, for hypotheses that order real values (m*g <= f <= M*g in
  prop7.11 and prop7.12).

Reports carry their own certificate: each report type states `admissible`,
`margin`, `gap`, `bound` and the `comparisons` it asserts, and `_result`
copies them into an `InstanceResult`.

`THEOREM_IDS`, `REAL_ONLY_IDS` and `_SAMPLERS` are derived from `_SPECS`.
One decoder, `_decode`, walks every document schema: `_Decoding` has one
decoder per kind, and each spec's (position, key, decoder) steps are built
at import, the domain first because {"values"} functions are discretized on
its nodes.  A decoding error names its key; a missing key also lists the
keys the theorem needs.  A record's `dim` is x's dimension, or the node
count of an integral instance.

A row is an instance in the one shape its operation takes: (field, record
dim, args), with `args` in `params` order -- `Vector` and
`CoefficientSequence` for coordinates and coefficients, `ScalarPair` for
scalar pairs, floats for radii and bounds, the `standard_basis` family for a
"count", a `WeightedDomain` for a "domain", and for a "function" its
polynomial coefficients, or a document's {"values"} already discretized.
Samplers return rows, `_document_row` decodes a document into one, and
`_row_result`, the one evaluator, discretizes the coefficients on the
domain and calls the operation.  The `Vector`/`CoefficientSequence` types
carry the validation: the public constructors check and copy their input,
public arithmetic checks what it computes, and the arrays a sampler draws
are adopted unscanned, as are the arrays `_decode` builds from a document's
float lists.  Their finiteness is read off the norms that read every entry:
the square norm a `CoefficientSequence` keeps, and the norm every operation
takes of every vector it is given (`space.norm`), which raises the same
ValueError; `_decode` takes a decoded vector's norm, so the error names its key.

Randomness comes from one Philox stream per theorem (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), keyed by
SeedSequence([seed, crc32(theorem)]).  Instance i reads the counter blocks
from i * 2**64 on, so it depends only on (seed, theorem, i): a run's
prefix and the order of its theorems do not matter, and
`sample_admissible(index=i)` replays instance i alone.

Samplers read randomness only through `rng.uniform(low, high, size)`, with
numpy `Generator` defaults for omitted arguments, and every in-ball point is
drawn by `_in_ball` (t first, then the direction).  Any object with that one
method is a draw source: a sampled instance is a function of the values it
returns, in call order.  The tests hold every sampler to this contract.

`run_suite` and `evaluate_file` share one runner, `_run`, which uses every
CPU available to the process, with no option to choose how many: each job's
index range is cut into one contiguous slice per worker, forked children
tally all slices but the first, and this process merges the tallies in
serial (job, slice) order, so the report does not depend on the worker
count.  Runs of fewer than two workers' worth of instances, one-CPU hosts,
platforms without `os.fork` and processes running more than one Python
thread stay serial.

Within a slice, both runners take one results path, `_results`.  It
takes a window of consecutive rows, groups the integral ones by theorem,
field, domain and the form of each function (`_member`), and evaluates each
group as one call of its operation over rows (`integral._ROW_OPERATIONS`),
in chunks of at most `_GROUP_CHUNK_NODES` node values per function.  That
arithmetic is elementwise, row sums and min/max, so each row of a group is
bit for bit the instance evaluated alone.  A chunk that raises, and a row
with a non-finite number, are evaluated again one at a time, as is every
other instance: an error is then the one-instance path's, raised after the
results before it.  The other ids are not grouped: their sums go through
BLAS, whose order depends on the array's shape.

JSON exists only at the boundary.  `sample_admissible` writes a sampled
row as the document schema below, one encoder per parameter kind
(`_ENCODERS`).  `_document_row` (hence `evaluate_instance` and `ineq eval`)
decodes each document instance once into its row, with full per-element
validation: `_decode` is the only reader of untrusted input, and a value
that is not JSON, a `Vector` say, is refused by its key.  `run_suite` never
encodes or decodes what a sampler drew.  From the row on, both runners take
the same path.

Document schema: a dict with "theorem", "field", and the operation's
parameters -- vectors as number lists ({"re","im"} objects over the complex
field), scalar pairs as {"lo","hi"}, orthonormal families as {"size": k}
meaning the first k standard basis vectors, integral instances with a
"domain" object {"interval","weight":{"poly":[...]},"rule":{"kind","n"}} and
functions as non-empty {"poly":[...]} or {"values":[...]} lists.  Every
number is a JSON int or float, never a bool or a string; "size" and "rule.n"
are integral.

In adversarial mode the samplers inflate the residual far beyond the
admissible limit while keeping every scalar precondition valid, so the
evaluator still runs and the suite can demonstrate that the bare inequalities
fail without their hypotheses.  A record is a "violation" when its hypothesis
holds and some asserted comparison fails; it is a "counterexample" when the
hypothesis fails and a comparison fails.  Theorems whose hypotheses hold
guarantee zero violations; counterexamples in adversarial mode are the
desired outcome, not errors.

`run_suite` (verify) and `evaluate_file` (eval) both report through one
`_Tally`: it decides each asserted comparison once, and those flags set a
record's "passed", its per-comparison booleans and the per-theorem and
aggregate counts.  A record or a per-theorem entry thus means the same in
both reports.  A kept record is rendered where it is counted, once, by
`_record_text`: a forked child sends its slice's records as one JSON text,
`SuiteReport.to_json` splices the texts in after the head, which is all that
`render_json` writes of a report, and `SuiteReport.records` is a parsed view
of them.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import pickle
import signal
import threading
import zlib
from contextlib import closing
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, partial
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
from .errors import FieldMismatchError, IneqError, InputFormatError, _brief
from .gruss import gruss_ball, gruss_ball_refined, gruss_pair, gruss_pair_refined
from .integral import (
    _ROW_OPERATIONS,
    DiscretizedFunction,
    WeightedDomain,
    _discretized_rows,
    _poly_add,
    _poly_mul,
    _poly_values,
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
from .numutil import (
    BOOL_TEXT,
    CHAIN_REL_TOL,
    FLOAT_SLOT,
    _emit,
    encode_basestring_ascii,
    leq_with_slack,
    render_json,
)
from .schwarz import reverse_schwarz_ball, reverse_schwarz_pair
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Vector,
    _BoundedCache,
    _array_norm,
    _checked_norm,
    coefficients,
    standard_basis,
    vector,
)
from .triangle import triangle_reverse_ball, triangle_reverse_pair

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


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate (and optionally per-instance) outcome of a verification run.

    `record_texts` holds the records as `to_json` writes them: runs of
    consecutive records, each run rendered by `_record_text` and joined by
    `_RECORD_SEP`.  `records` is the parsed view of those texts.
    """

    metadata: dict
    aggregate: dict
    per_theorem: dict
    record_texts: Optional[list] = None

    @property
    def violations(self) -> int:
        return int(self.aggregate["violations"])

    @property
    def counterexamples(self) -> int:
        return int(self.aggregate["counterexamples"])

    @cached_property
    def records(self) -> Optional[list]:
        """One dict per record, or None; "index" and "dim" are ints, every other number a float."""
        if self.record_texts is None:
            return None
        records = json.loads("[" + _RECORD_SEP.join(self.record_texts) + "]", parse_int=float)
        for rec in records:
            rec["index"], rec["dim"] = int(rec["index"]), int(rec["dim"])
        return records

    def as_dict(self) -> dict:
        doc = {
            "metadata": self.metadata,
            "aggregate": self.aggregate,
            "per_theorem": self.per_theorem,
        }
        if self.record_texts is not None:
            doc["records"] = self.records
        return doc

    def to_json(self) -> str:
        return "".join(self._json_pieces())

    def _json_pieces(self) -> list:
        """The report's JSON text in pieces: the rendered head, then the record texts."""
        head = render_json({
            "metadata": self.metadata,
            "aggregate": self.aggregate,
            "per_theorem": self.per_theorem,
        })
        if self.record_texts is None:
            return [head]
        if not self.record_texts:
            return [head[:-3], ',\n  "records": []\n}\n']
        pieces = [head[:-3], ',\n  "records": [\n    ']
        for text in self.record_texts:
            pieces += [text, _RECORD_SEP]
        pieces[-1] = "\n  ]\n}\n"
        return pieces


# ---------------------------------------------------------------------------
# Deterministic per-instance RNG: one Philox stream per (seed, theorem).


class _Stream:
    """A Philox generator keyed by (seed, theorem); `_rng_for` places it on an instance."""

    __slots__ = ("generator", "bits", "key")

    def __init__(self, seed: int, theorem: str):
        tag = zlib.crc32(theorem.encode("ascii"))
        self.bits = np.random.Philox(np.random.SeedSequence([int(seed), tag]))
        # the key Philox derived from the SeedSequence, read once for `_rng_for`
        self.key = tuple(int(k) for k in self.bits.state["state"]["key"])
        self.generator = np.random.Generator(self.bits)


def _rng_for(stream: _Stream, index: int) -> np.random.Generator:
    """The stream's generator, reset to instance `index`'s counter block.

    The 256-bit counter is set to index * 2**64 with an empty buffer, so
    instance i draws from blocks [i * 2**64, (i + 1) * 2**64): no rejection
    loop reaches instance i + 1, and whatever instance i - 1 drew does not
    matter.  Assigning a state built here skips the state getter.
    """
    stream.bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, index, 0, 0), "key": stream.key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return stream.generator


# ---------------------------------------------------------------------------
# Raw draws.


def _rand_coords(rng: np.random.Generator, dim: int, field: FieldTag) -> np.ndarray:
    if field is FieldTag.COMPLEX:
        # (re, im) interleaved: one draw fills the complex array
        return rng.uniform(-2.0, 2.0, 2 * dim).view(np.complex128)
    return rng.uniform(-2.0, 2.0, dim)


def _nonzero_coords(rng, dim, field) -> tuple[np.ndarray, float]:
    """(v, ||v||) for a draw v with ||v|| >= 1e-3."""
    for _ in range(_RESAMPLE_CAP):
        v = _rand_coords(rng, dim, field)
        n = _array_norm(v)
        if n >= 1e-3:
            return v, n
    v = np.zeros(dim, dtype=field.dtype)
    v[0] = 1.0
    return v, 1.0


def _unit_coords(rng, dim, field) -> np.ndarray:
    v, n = _nonzero_coords(rng, dim, field)
    return v / n


def _in_ball(rng, field, center: np.ndarray, radius: float, t: float) -> np.ndarray:
    """center + t * radius * (random unit direction), in the closed ball iff 0 <= t <= 1."""
    return center + t * radius * _unit_coords(rng, center.size, field)


def _padded(coeffs: np.ndarray, dim: int, field) -> np.ndarray:
    """sum coeffs_i e_i in dimension dim: coeffs followed by zeros."""
    center = np.zeros(dim, dtype=field.dtype)
    center[: len(coeffs)] = coeffs
    return center


def _radius(rng, lo: float = 1e-3, hi: float = 10.0) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _radius_pair(rng, adversarial: bool) -> tuple[float, float]:
    """Two ball radii, below 0.5 when adversarial so an inflated residual stays below 5.5."""
    hi = 0.5 if adversarial else 10.0
    return _radius(rng, 1e-3, hi), _radius(rng, 1e-3, hi)


def _frac(rng, adversarial: bool) -> float:
    """In-ball fraction of the sampled residual; > 1 breaks the hypothesis."""
    if adversarial:
        return 2.0 + 9.0 * float(rng.uniform())
    return float(rng.uniform(0.0, 0.999))


def _sample_seq_pair(rng, field: FieldTag, k: int, positive_sum: bool = False):
    """Sequences (lo_i), (hi_i) jointly nondegenerate, and ||hi - lo||; optionally
    sum Re(hi conj(lo)) > 0."""
    for _ in range(_RESAMPLE_CAP):
        lo = _rand_coords(rng, k, field)
        hi = _rand_coords(rng, k, field)
        norm_lo, norm_hi = _array_norm(lo), _array_norm(hi)
        mass = norm_lo + norm_hi
        if mass < 1e-6:
            continue
        sep_diff = _array_norm(hi - lo)
        if sep_diff < 1e-3 * mass:
            continue
        sep_summ = _array_norm(hi + lo)
        if sep_summ < 1e-3 * mass:
            continue
        if positive_sum:
            re = float(np.vdot(lo, hi).real)
            if abs(re) < 1e-3 * norm_lo * norm_hi:
                continue
            if re < 0:
                # flips the sign of the sum; separations swap roles (hi - (-lo) is hi + lo bit for bit)
                lo, sep_diff = -lo, sep_summ
        return lo, hi, sep_diff
    lo = np.ones(k, dtype=field.dtype)
    hi = 2.5 * lo
    return lo, hi, _array_norm(hi - lo)


def _sample_pair(rng, field: FieldTag, positive_real: bool = False):
    """Scalars (lo, hi): `_sample_seq_pair`'s draws and tests at length 1, in Python scalars.

    A real draw is held as a complex with imaginary part 0, which changes no bit of
    the norms, sums and products the tests read."""
    size = 2 if field is FieldTag.COMPLEX else 1
    for _ in range(_RESAMPLE_CAP):
        lo = complex(*rng.uniform(-2.0, 2.0, size).tolist())
        hi = complex(*rng.uniform(-2.0, 2.0, size).tolist())
        norm_lo, norm_hi = _scalar_norm(lo), _scalar_norm(hi)
        mass = norm_lo + norm_hi
        if mass < 1e-6:
            continue
        if _scalar_norm(hi - lo) < 1e-3 * mass or _scalar_norm(hi + lo) < 1e-3 * mass:
            continue
        if positive_real:
            re = lo.real * hi.real + lo.imag * hi.imag
            if abs(re) < 1e-3 * norm_lo * norm_hi:
                continue
            if re < 0:
                lo = -lo
        break
    else:
        lo, hi = 1.0 + 0j, 2.5 + 0j
    return (lo.real, hi.real) if field is FieldTag.REAL else (lo, hi)


def _scalar_norm(c: complex) -> float:
    """`_array_norm` of the one-entry array [c], bit for bit; abs(c) is a hypot, which rounds
    differently."""
    return math.sqrt(c.real * c.real + c.imag * c.imag)


# ---------------------------------------------------------------------------
# Typed instance values, and their JSON encoding/decoding.


def _enc_scalar(c, field: FieldTag):
    c = complex(c)
    if field is FieldTag.REAL:
        return c.real
    return {"re": c.real, "im": c.imag}


def _enc_array(arr: np.ndarray, field: FieldTag) -> list:
    if field is FieldTag.REAL:
        return arr.tolist()
    return [{"re": c.real, "im": c.imag} for c in arr.tolist()]


#: One encoder per parameter kind: (sampled argument, field) -> its document
#: form, fresh JSON-able objects that the decoder of the kind reads back bit
#: for bit.  Samplers draw on the default domain only, so a domain is written
#: as a copy of its spec.
_ENCODERS = {
    "vector": lambda x, field: _enc_array(x.coords, field),
    "seq": lambda seq, field: _enc_array(seq.entries, field),
    "pair": lambda p, field: {"lo": _enc_scalar(p.lo, field), "hi": _enc_scalar(p.hi, field)},
    "real": lambda v, field: v,
    "count": lambda family, field: family.size,
    "domain": lambda dom, field: {
        "interval": [*DEFAULT_DOMAIN_SPEC["interval"]],
        "weight": {"poly": [*DEFAULT_DOMAIN_SPEC["weight"]["poly"]]},
        "rule": {**DEFAULT_DOMAIN_SPEC["rule"]},
    },
    "function": lambda coeffs, field: {"poly": _enc_array(coeffs, field)},
}


def _dec_real(v) -> float:
    """The one rule for numbers in a document: an int or a float, not a bool or a string."""
    if type(v) is float:
        return v
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            pass
    raise InputFormatError(f"expected a number, got {_brief(v)}")


def _dec_count(v) -> int:
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputFormatError(f"expected an integer, got {_brief(v)}")


def _dec_list(obj) -> list:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InputFormatError(f"expected a non-empty list, got {_brief(obj)}")
    return obj


def _dec_scalar(v):
    if type(v) is float:
        return v
    if isinstance(v, dict) and v and set(v) <= {"re", "im"}:
        return complex(_dec_real(v.get("re", 0.0)), _dec_real(v.get("im", 0.0)))
    try:
        return _dec_real(v)
    except InputFormatError:
        raise InputFormatError(
            f"expected a number or {{'re','im'}} object, got {_brief(v)}"
        ) from None


def _finite(v, what: str = "number"):
    """v, a decoded real or complex parameter, unless it is NaN or infinite."""
    if cmath.isfinite(v):
        return v
    raise InputFormatError(f"expected a finite {what}, got {_brief(v)}")


def _exact_finite(v):
    """A finite float v, or the finite complex of a {"re","im"} object of floats; else None."""
    if type(v) is float:
        return v if math.isfinite(v) else None
    if type(v) is dict and len(v) == 2:
        re, im = v.get("re"), v.get("im")
        if type(re) is float and type(im) is float:
            c = complex(re, im)
            return c if cmath.isfinite(c) else None
    return None


def _dec_pair(obj) -> ScalarPair:
    if not isinstance(obj, dict) or "lo" not in obj or "hi" not in obj:
        raise InputFormatError(f"expected {{'lo','hi'}}, got {_brief(obj)}")
    lo, hi = _exact_finite(obj["lo"]), _exact_finite(obj["hi"])
    if lo is None or hi is None:
        lo, hi = _dec_scalar(obj["lo"]), _dec_scalar(obj["hi"])
        lo, hi = _finite(lo, "'lo'"), _finite(hi, "'hi'")
    return ScalarPair(lo, hi)


def _dec_coords(obj: list, field: FieldTag):
    """The coordinates of a document list: a fresh array, or scalars for the constructors.

    A list of exact floats (real field) or of exact {"re": float, "im": float}
    objects (complex field), as `sample_admissible` writes them, becomes one
    array in one call.  At the first element of any other type the whole list
    takes the per-element `_dec_scalar` route, with its rules and messages.
    """
    if field is FieldTag.REAL:
        if set(map(type, obj)) == {float}:
            return np.array(obj, dtype=np.float64)
    elif obj:
        parts = []
        for v in obj:
            if type(v) is not dict or len(v) != 2:
                break
            re, im = v.get("re"), v.get("im")
            if type(re) is not float or type(im) is not float:
                break
            parts += (re, im)
        else:
            return np.array(parts).view(np.complex128)
    return [_dec_scalar(v) for v in obj]


#: Most coordinates (size x dim) of a "count" family in an untrusted document,
#: checked before anything is allocated.  Building one costs O(size x dim)
#: memory and an O(size^2 x dim) orthonormality check.
_MAX_FAMILY_COORDS = 2**18


#: Most quadrature nodes the decoded-domain cache holds: about 32 MB of nodes
#: and weights, and up to 64 MB more for the complex128 casts a domain keeps
#: once complex functions are evaluated on it.  A document naming more
#: distinct domains rebuilds evicted ones.
_DOMAIN_CACHE_NODES = 2**21


#: Domains by decode key, bounded by their node count.
_DOMAIN_CACHE = _BoundedCache(_DOMAIN_CACHE_NODES, lambda dom: dom.size)

DEFAULT_DOMAIN_SPEC = {
    "interval": [0.0, 1.0],
    "weight": {"poly": [1.0]},
    "rule": {"kind": "gauss", "n": 64},
}


#: Node caps per rule for untrusted documents, checked before anything is
#: allocated.  Both rules take O(n) memory; gauss takes O(n^2) time (Newton on
#: the Legendre recurrence, tens of ms at n = 2048), trapezoid O(n).  No cap
#: exceeds _DOMAIN_CACHE_NODES, so the domain just built is never evicted.
_MAX_NODES = {"gauss": 2048, "trapezoid": 2**20}


def _dec_domain(obj) -> WeightedDomain:
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a domain object, got {_brief(obj)}")
    part = "interval"
    try:
        interval = obj.get("interval", DEFAULT_DOMAIN_SPEC["interval"])
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise InputFormatError(f"expected [a, b], got {_brief(interval)}")
        a, b = _dec_real(interval[0]), _dec_real(interval[1])
        part = "weight"
        weight = obj.get("weight", DEFAULT_DOMAIN_SPEC["weight"])
        if not isinstance(weight, dict):
            raise InputFormatError(f"expected a {{'poly'}} object, got {_brief(weight)}")
        part = "weight.poly"
        wpoly = tuple([_dec_real(c) for c in _dec_list(weight.get("poly"))])
        part = "rule"
        rule = obj.get("rule", DEFAULT_DOMAIN_SPEC["rule"])
        if not isinstance(rule, dict):
            raise InputFormatError(f"expected an object, got {_brief(rule)}")
        kind = str(rule.get("kind", "gauss"))
        part = "rule.n"
        n = _dec_count(rule.get("n", 64))
        cap = _MAX_NODES.get(kind)
        if cap is not None and n > cap:
            raise InputFormatError(f"{kind} rules take at most {cap} nodes, got {_brief(n)}")
    except InputFormatError as exc:
        raise InputFormatError(f"{part}: {exc}") from None
    key = (a, b, wpoly, kind, n)
    dom = _DOMAIN_CACHE.get(key)
    if dom is None:
        dom = build_domain((a, b), polynomial(wpoly), kind, n)
        _DOMAIN_CACHE.add(key, dom)
    return dom


def _dec_function(obj, dom: WeightedDomain, field: FieldTag):
    """A {"values"} function discretized on dom, or the coefficients of a {"poly"} one."""
    if isinstance(obj, dict) and "poly" in obj:
        coeffs = np.asarray(_dec_coords(_dec_list(obj["poly"]), field))
        if coeffs.dtype.kind == "c" and field is FieldTag.REAL:
            raise FieldMismatchError("complex entries are not representable over real")
        return coeffs
    if isinstance(obj, dict) and "values" in obj:
        return dom.discretize(_dec_coords(_dec_list(obj["values"]), field), field)
    raise InputFormatError(f"expected {{'poly'}} or {{'values'}} function, got {_brief(obj)}")


# ---------------------------------------------------------------------------
# Samplers.  Each returns (field, record dim, args), its operation's arguments
# in `params` order, whose hypothesis holds by construction (or is deliberately
# broken when adversarial=True).  A "count" is the `standard_basis` family, a
# "domain" is `_default_domain()`, and a "function" is its polynomial
# coefficients; `_row_result` discretizes them on the domain.


_vec = Vector._sampled
_seq = CoefficientSequence._computed


def _sample_ball(rng, dim, field, adversarial, restrict=False, capped=False):
    """x in the ball around a; restrict=True keeps r < ||a|| (strict form), and
    capped=True keeps Re<x,a> >= 0 when adversarial (the triangle form)."""
    if restrict:
        a, na = _nonzero_coords(rng, dim, field)
        if capped and adversarial:
            # keep Re<x,a> >= 0 evaluable: small radius, capped inflation
            s = float(rng.uniform(0.05, 0.3))
            r = s * na
            t = 2.0 + float(rng.uniform()) * (0.9 / s - 2.0)
        else:
            r = float(rng.uniform(0.05, 0.95)) * na
            t = _frac(rng, adversarial)
    else:
        a, na = _rand_coords(rng, dim, field), None
        r = _radius(rng)
        t = _frac(rng, adversarial)
    x = _in_ball(rng, field, a, r, t)
    return field, dim, (_vec(x, field), _vec(a, field, na), r)


def _pair_point(rng, field, adversarial, base, scale, lo, hi) -> np.ndarray:
    """x with Re<hi*base - x, x - lo*base> >= 0 when not adversarial: the midpoint
    times base plus a residual of length t * |hi - lo|/2 * scale, scale = ||base||."""
    mid = (complex(lo) + complex(hi)) / 2.0
    radius = 0.5 * abs(complex(hi) - complex(lo)) * scale
    t = _frac(rng, adversarial)
    c = mid if field is FieldTag.COMPLEX else mid.real
    return _in_ball(rng, field, c * base, radius, t)


def _sample_two_sided(rng, dim, field, adversarial, positive_real=False):
    y, ny = _nonzero_coords(rng, dim, field)
    lo, hi = _sample_pair(rng, field, positive_real=positive_real)
    x = _pair_point(rng, field, adversarial, y, ny, lo, hi)
    return field, dim, (_vec(x, field), _vec(y, field, ny), ScalarPair(lo, hi))


def _sample_real_range(rng, dim, field, adversarial, capped=False):
    """Real pair 0 < m < M against y; capped=True keeps Re<x,y> >= 0 when
    adversarial (the strict triangle form)."""
    y, ny = _nonzero_coords(rng, dim, field)
    m = _radius(rng, 0.05, 2.0)
    if capped and adversarial:
        dfrac = float(rng.uniform(0.05, 0.5))
        M = m * (1.0 + dfrac)
        cap = 0.9 * (M + m) / (M - m)
        t = 2.0 + float(rng.uniform()) * (min(11.0, cap) - 2.0)
    else:
        M = m + _radius(rng, 0.01, 5.0)
        t = _frac(rng, adversarial)
    mid = 0.5 * (m + M)
    radius = 0.5 * (M - m) * ny
    x = _in_ball(rng, field, mid * y, radius, t)
    return field, dim, (_vec(x, field), _vec(y, field, ny), m, M)


def _sample_gruss_ball(rng, dim, field, adversarial, unit_radii=False):
    """unit_radii=True draws r1, r2 below 1 (the squared-level legacy form)."""
    e = _unit_coords(rng, dim, field)
    if unit_radii:
        r1 = float(rng.uniform(0.05, 0.95))
        r2 = float(rng.uniform(0.05, 0.95))
    else:
        r1, r2 = _radius_pair(rng, adversarial)
    x = _in_ball(rng, field, e, r1, _frac(rng, adversarial))
    y = _in_ball(rng, field, e, r2, _frac(rng, adversarial))
    return field, dim, (_vec(x, field), _vec(y, field), _vec(e, field), r1, r2)


def _sample_gruss_pair(rng, dim, field, adversarial, positive_real=False):
    e = _unit_coords(rng, dim, field)
    lo_x, hi_x = _sample_pair(rng, field, positive_real=positive_real)
    lo_y, hi_y = _sample_pair(rng, field, positive_real=positive_real)
    x = _vec(_pair_point(rng, field, adversarial, e, 1.0, lo_x, hi_x), field)
    y = _vec(_pair_point(rng, field, adversarial, e, 1.0, lo_y, hi_y), field)
    return field, dim, (x, y, _vec(e, field), ScalarPair(lo_x, hi_x), ScalarPair(lo_y, hi_y))


def _family_size(dim: int) -> int:
    return dim - 1 if dim >= 2 else 1


def _check_dim(dim: int) -> None:
    """Refuse a dimension >= 1 whose sampled family would pass the family cap of `eval`:
    one rule for every id, so at most 512 with the cap at 2**18."""
    if dim * _family_size(dim) > _MAX_FAMILY_COORDS:
        raise InputFormatError(
            f"dimension {_brief(dim)} is too large: a family sampled in it takes more "
            f"than {_MAX_FAMILY_COORDS} coordinates"
        )


def _sample_bessel_ball(rng, dim, field, adversarial, restrict=False):
    """restrict=True keeps r < ||lam|| (strict form)."""
    k = _family_size(dim)
    lam, nlam = _nonzero_coords(rng, k, field)
    if restrict:
        r = float(rng.uniform(0.05, 0.95)) * nlam
    else:
        r = _radius(rng)
    x = _in_ball(rng, field, _padded(lam, dim, field), r, _frac(rng, adversarial))
    return field, dim, (_vec(x, field), standard_basis(field, dim, k), _seq(lam, field), r)


def _seq_pair_point(rng, dim, field, adversarial, lo, hi, sep) -> np.ndarray:
    """sum (lo_i + hi_i)/2 e_i plus a residual of length t * ||hi - lo||/2, sep = ||hi - lo||."""
    center = _padded(0.5 * (lo + hi), dim, field)
    return _in_ball(rng, field, center, 0.5 * sep, _frac(rng, adversarial))


def _sample_bessel_pair(rng, dim, field, adversarial, positive_sum=False):
    k = _family_size(dim)
    lo, hi, sep = _sample_seq_pair(rng, field, k, positive_sum=positive_sum)
    x = _seq_pair_point(rng, dim, field, adversarial, lo, hi, sep)
    family = standard_basis(field, dim, k)
    return field, dim, (_vec(x, field), family, _seq(lo, field), _seq(hi, field))


def _sample_family_gruss_ball(rng, dim, field, adversarial):
    k = _family_size(dim)
    lam, _ = _nonzero_coords(rng, k, field)
    mu, _ = _nonzero_coords(rng, k, field)
    r1, r2 = _radius_pair(rng, adversarial)
    x = _vec(_in_ball(rng, field, _padded(lam, dim, field), r1, _frac(rng, adversarial)), field)
    y = _vec(_in_ball(rng, field, _padded(mu, dim, field), r2, _frac(rng, adversarial)), field)
    family = standard_basis(field, dim, k)
    return field, dim, (x, y, family, _seq(lam, field), _seq(mu, field), r1, r2)


def _sample_family_gruss_pair(rng, dim, field, adversarial):
    k = _family_size(dim)
    lo_x, hi_x, sep_x = _sample_seq_pair(rng, field, k)
    lo_y, hi_y, sep_y = _sample_seq_pair(rng, field, k)
    x = _vec(_seq_pair_point(rng, dim, field, adversarial, lo_x, hi_x, sep_x), field)
    y = _vec(_seq_pair_point(rng, dim, field, adversarial, lo_y, hi_y, sep_y), field)
    seqs = (_seq(lo_x, field), _seq(hi_x, field), _seq(lo_y, field), _seq(hi_y, field))
    return field, dim, (x, y, standard_basis(field, dim, k), *seqs)


@cache
def _default_domain() -> WeightedDomain:
    """The domain of every sampled integral instance: `DEFAULT_DOMAIN_SPEC`, built on first use."""
    spec = DEFAULT_DOMAIN_SPEC
    weight = polynomial(tuple(spec["weight"]["poly"]))
    return build_domain(spec["interval"], weight, spec["rule"]["kind"], spec["rule"]["n"])


def _scaled_perturbation(rng, deg, field, dom, limit) -> np.ndarray:
    """Polynomial q with max_node |q| = limit (zero polynomial if limit is 0)."""
    p = _rand_coords(rng, deg + 1, field)
    m = float(np.abs(dom._poly(p)).max())
    if m < 1e-12:
        p = np.zeros_like(p)
        p[0] = 1.0
        m = 1.0
    return p * (limit / m)


def _sample_integral_ball(rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_coords(rng, 4, field)
    r = _radius(rng)
    t = _frac(rng, adversarial)
    delta = _scaled_perturbation(rng, 3, field, dom, t * r)
    f = _poly_add(g, delta)
    return field, dom.size, (f, g, dom, r)


def _pair_multiple(rng, field, dom, adversarial, base, lo, hi) -> np.ndarray:
    """f = c * base for a polynomial c within t * |hi - lo|/2 of (lo + hi)/2 at
    the nodes, so f meets the two-sided condition against base."""
    mid = (complex(lo) + complex(hi)) / 2.0
    t = _frac(rng, adversarial)
    q = _scaled_perturbation(rng, 2, field, dom, t * 0.5 * abs(complex(hi) - complex(lo)))
    mid_c = mid if field is FieldTag.COMPLEX else mid.real
    return _poly_mul(_poly_add(np.array([mid_c]), q), base)


def _sample_integral_pair(rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_coords(rng, 3, field)
    lo, hi = _sample_pair(rng, field)
    f = _pair_multiple(rng, field, dom, adversarial, g, lo, hi)
    return field, dom.size, (f, g, dom, ScalarPair(lo, hi))


def _sample_integral_range(rng, dim, field, adversarial):
    dom = _default_domain()
    q = _rand_coords(rng, 3, FieldTag.REAL)
    g = _poly_add(_poly_mul(q, q), np.array([float(rng.uniform(0.1, 1.0))]))
    m = _radius(rng, 0.05, 2.0)
    M = m + _radius(rng, 0.01, 5.0)
    f = _pair_multiple(rng, FieldTag.REAL, dom, adversarial, g, m, M)
    return FieldTag.REAL, dom.size, (f, g, dom, m, M)


def _sample_integral_gruss(rng, dim, field, adversarial):
    dom = _default_domain()
    h0 = _rand_coords(rng, 3, field)
    nh = dom.norm(DiscretizedFunction._computed(dom._poly(h0), field))
    if nh < 1e-3:
        h0 = np.zeros_like(h0)
        h0[0] = 1.0
        nh = 1.0
    h = h0 / nh
    lo_f, hi_f = _sample_pair(rng, field)
    f = _pair_multiple(rng, field, dom, adversarial, h, lo_f, hi_f)
    lo_g, hi_g = _sample_pair(rng, field)
    g = _pair_multiple(rng, field, dom, False, h, lo_g, hi_g)
    return field, dom.size, (f, g, h, dom, ScalarPair(lo_f, hi_f), ScalarPair(lo_g, hi_g))


# ---------------------------------------------------------------------------
# The registry.


class _Decoding:
    """One decoder per parameter kind, and what later parameters depend on:
    the field, the record's dim and the domain functions are discretized on."""

    __slots__ = ("field", "dim", "dom")

    def __init__(self, field: FieldTag):
        self.field = field
        self.dim = None
        self.dom = None

    def vector(self, obj) -> Vector:
        if not isinstance(obj, (list, tuple)):
            raise InputFormatError(f"expected a coordinate list, got {_brief(obj)}")
        coords = _dec_coords(obj, self.field)
        if type(coords) is np.ndarray:
            # the norm every operation takes of x, taken here: it reads the finiteness
            x = _vec(coords, self.field, _checked_norm(coords))
        else:
            x = vector(coords, self.field)
        if self.dim is None:
            self.dim = x.dim
        return x

    def seq(self, obj) -> CoefficientSequence:
        if not isinstance(obj, (list, tuple)):
            raise InputFormatError(f"expected a coefficient list, got {_brief(obj)}")
        entries = _dec_coords(obj, self.field)
        if type(entries) is np.ndarray:
            return _seq(entries, self.field)  # its square norm reads the finiteness
        return coefficients(entries, self.field)

    def pair(self, obj) -> ScalarPair:
        return _dec_pair(obj)

    def real(self, obj) -> float:
        return _finite(_dec_real(obj))

    def count(self, obj) -> OrthonormalFamily:
        size = _dec_count(obj)
        if size <= self.dim and size * self.dim > _MAX_FAMILY_COORDS:
            raise InputFormatError(
                f"size {size} in dimension {self.dim} takes {size * self.dim} "
                f"coordinates, more than {_MAX_FAMILY_COORDS}"
            )
        return standard_basis(self.field, self.dim, size)

    def domain(self, obj) -> WeightedDomain:
        self.dom = _dec_domain(obj)
        self.dim = self.dom.size
        return self.dom

    def function(self, obj):
        return _dec_function(obj, self.dom, self.field)


@dataclass(frozen=True)
class TheoremSpec:
    """Schema, sampler and operation of one theorem id."""

    params: tuple[tuple[str, str], ...]
    sampler: Callable
    operation: str
    options: dict = dc_field(default_factory=dict)
    real_only: bool = False
    steps: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        steps = [(i, key, getattr(_Decoding, kind)) for i, (key, kind) in enumerate(self.params)]
        # the domain first: functions are discretized on its nodes
        steps.sort(key=lambda step: step[2] is not _Decoding.domain)
        object.__setattr__(self, "steps", tuple(steps))


_BALL = (("x", "vector"), ("a", "vector"), ("r", "real"))
_TWO_SIDED = (("x", "vector"), ("y", "vector"), ("pair", "pair"))
_RANGE = (("x", "vector"), ("y", "vector"), ("m", "real"), ("M", "real"))
_GRUSS = (("x", "vector"), ("y", "vector"), ("e", "vector"))
_GRUSS_BALL = _GRUSS + (("r1", "real"), ("r2", "real"))
_GRUSS_PAIR = _GRUSS + (("pair_x", "pair"), ("pair_y", "pair"))
_BESSEL_BALL = (("x", "vector"), ("size", "count"), ("lam", "seq"), ("r", "real"))
_BESSEL_PAIR = (("x", "vector"), ("size", "count"), ("gammas", "seq"), ("Gammas", "seq"))
_FAMILY = (("x", "vector"), ("y", "vector"), ("size", "count"))
_FAMILY_BALL = _FAMILY + (("lam", "seq"), ("mu", "seq"), ("r1", "real"), ("r2", "real"))
_FAMILY_PAIR = _FAMILY + (
    ("gammas_x", "seq"), ("Gammas_x", "seq"), ("phis_y", "seq"), ("Phis_y", "seq")
)
_INTEGRAL = (("f", "function"), ("g", "function"))
_INTEGRAL_BALL = _INTEGRAL + (("domain", "domain"), ("r", "real"))
_INTEGRAL_PAIR = _INTEGRAL + (("domain", "domain"), ("pair", "pair"))
_INTEGRAL_RANGE = _INTEGRAL + (("domain", "domain"), ("m", "real"), ("M", "real"))
_INTEGRAL_GRUSS = _INTEGRAL + (
    ("h", "function"), ("domain", "domain"), ("pair_f", "pair"), ("pair_g", "pair")
)


_SPECS: dict[str, TheoremSpec] = {
    "thm2.1": TheoremSpec(_BALL, _sample_ball, "reverse_schwarz_ball"),
    "thm2.2": TheoremSpec(_TWO_SIDED, _sample_two_sided, "reverse_schwarz_pair"),
    "prop2.3": TheoremSpec(_BALL, _sample_ball, "triangle_reverse_ball"),
    "prop2.4": TheoremSpec(_RANGE, _sample_real_range, "triangle_reverse_pair"),
    "thm4.1": TheoremSpec(_GRUSS_BALL, _sample_gruss_ball, "gruss_ball"),
    "thm4.2": TheoremSpec(_GRUSS_BALL, _sample_gruss_ball, "gruss_ball_refined"),
    "thm4.3": TheoremSpec(_GRUSS_PAIR, _sample_gruss_pair, "gruss_pair"),
    "thm4.4": TheoremSpec(_GRUSS_PAIR, _sample_gruss_pair, "gruss_pair_refined"),
    "thm5.1": TheoremSpec(_BESSEL_BALL, _sample_bessel_ball, "bessel_reverse_ball"),
    "thm5.2": TheoremSpec(_BESSEL_PAIR, _sample_bessel_pair, "bessel_reverse_pair"),
    "thm6.1": TheoremSpec(_FAMILY_BALL, _sample_family_gruss_ball, "gruss_orthonormal_ball"),
    "thm6.2": TheoremSpec(_FAMILY_PAIR, _sample_family_gruss_pair, "gruss_orthonormal_pair"),
    "legacy1.1": TheoremSpec(_BALL, _sample_ball, "legacy_schwarz_ball", {"restrict": True}),
    "legacy1.3": TheoremSpec(
        _TWO_SIDED, _sample_two_sided, "legacy_schwarz_pair", {"positive_real": True}
    ),
    "legacy1.7": TheoremSpec(
        _BALL, _sample_ball, "legacy_triangle_ball", {"restrict": True, "capped": True}
    ),
    "legacy1.8": TheoremSpec(
        _RANGE, _sample_real_range, "legacy_triangle_pair", {"capped": True}
    ),
    "legacy1.10": TheoremSpec(
        _GRUSS_BALL, _sample_gruss_ball, "legacy_gruss_ball", {"unit_radii": True}
    ),
    "legacy1.13": TheoremSpec(
        _GRUSS_PAIR, _sample_gruss_pair, "legacy_gruss_pair", {"positive_real": True}
    ),
    "legacy1.18": TheoremSpec(
        _BESSEL_BALL, _sample_bessel_ball, "legacy_bessel_ball", {"restrict": True}
    ),
    "legacy1.20": TheoremSpec(
        _BESSEL_PAIR, _sample_bessel_pair, "legacy_bessel_pair", {"positive_sum": True}
    ),
    "prop7.1": TheoremSpec(_INTEGRAL_BALL, _sample_integral_ball, "integral_schwarz_ball"),
    "prop7.2": TheoremSpec(_INTEGRAL_PAIR, _sample_integral_pair, "integral_schwarz_pair"),
    "prop7.11": TheoremSpec(
        _INTEGRAL_RANGE, _sample_integral_range, "integral_schwarz_range", real_only=True
    ),
    "prop7.12": TheoremSpec(
        _INTEGRAL_RANGE, _sample_integral_range, "integral_triangle", real_only=True
    ),
    "prop7.3": TheoremSpec(_INTEGRAL_GRUSS, _sample_integral_gruss, "integral_gruss"),
}

#: Wire ids in canonical report order.
THEOREM_IDS = tuple(_SPECS)

#: Ids whose hypothesis is an ordering of real values.
REAL_ONLY_IDS = frozenset(tid for tid, spec in _SPECS.items() if spec.real_only)


def _decode(tid: str, inst: dict, decoding: _Decoding) -> list:
    """The operation's arguments, `inst` decoded along its theorem's schema by `decoding`."""
    spec = _SPECS[tid]
    args = [None] * len(spec.params)
    for pos, key, decode in spec.steps:
        try:
            obj = inst[key]
        except KeyError:
            needs = ", ".join(name for _, name, _ in spec.steps)
            raise InputFormatError(
                f"instance for {tid} is missing key {key!r} (needs {needs})"
            ) from None
        try:
            args[pos] = decode(decoding, obj)
        except (IneqError, ValueError) as exc:
            raise type(exc)(f"{tid} {key!r}: {exc}") from None
    return args


def _result(tid: str, field: FieldTag, dim: int, report) -> InstanceResult:
    """The record of a report: what it certifies, copied from its own certificate."""
    return InstanceResult(
        tid, field.value, dim, report.admissible, report.margin, report.gap, report.bound,
        report.comparisons,
    )


# perfbench/tracing.py wraps the entries of this table, so `run_suite` looks
# its samplers up here.
_SAMPLERS = {tid: partial(spec.sampler, **spec.options) for tid, spec in _SPECS.items()}


def normalize_theorem_id(theorem: str) -> str:
    tid = str(theorem).strip().lower()
    if tid not in _SPECS:
        raise InputFormatError(
            f"unknown theorem id {_brief(theorem)} (expected one of {', '.join(THEOREM_IDS)})"
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
    and `ineq eval` read, its parameters in decoding order (the domain first).
    It is instance `index` (0 <= index < 2**64) of the theorem's stream for
    `seed`, the one `run_suite` draws at that index.
    """
    tid = normalize_theorem_id(theorem)
    tag = FieldTag.parse(field)
    if tid in REAL_ONLY_IDS:
        tag = FieldTag.REAL
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
    _check_dim(int(dim))
    if int(seed) < 0:
        raise InputFormatError(f"seed must be nonnegative, got {seed}")
    if not 0 <= int(index) < 2**64:
        raise InputFormatError(f"index must be in [0, 2**64), got {index}")
    rng = _rng_for(_Stream(seed, tid), int(index))
    tag, _, args = _SAMPLERS[tid](rng, int(dim), tag, bool(adversarial))
    spec = _SPECS[tid]
    doc = {"theorem": tid, "field": tag.value}
    for pos, key, _ in spec.steps:
        doc[key] = _ENCODERS[spec.params[pos][1]](args[pos], tag)
    doc["seed"] = int(seed)
    return doc


def _document_row(inst) -> tuple:
    """(theorem id, row) of an instance document: the (field, record dim, args) its
    sampler would draw, decoded once with full per-element validation.

    A {"poly"} function stays its coefficients, which `_row_result` or a group
    discretizes; a {"values"} function is already discretized."""
    if not isinstance(inst, dict):
        raise InputFormatError(f"instance must be an object, got {type(inst).__name__}")
    if "theorem" not in inst:
        raise InputFormatError("instance is missing the 'theorem' key")
    tid = normalize_theorem_id(inst["theorem"])
    if "field" not in inst:
        raise InputFormatError("instance is missing the 'field' key")
    decoding = _Decoding(FieldTag.parse(inst["field"]))
    args = _decode(tid, inst, decoding)
    return tid, (decoding.field, decoding.dim, args)


def evaluate_instance(inst: dict) -> InstanceResult:
    """Decode one instance document and certify it on `run_suite`'s path (`_row_result`)."""
    return _row_result(*_document_row(inst))


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

    def merge(self, later: "_Stats") -> None:
        """Fold in the stats of the rows after these, as `add` would have: ties keep the first.

        Exact for NaN-free values only: sampled instances are finite, and
        `evaluate_file` rejects non-finite results before tallying."""
        self.count += later.count
        self.violations += later.violations
        self.counterexamples += later.counterexamples
        slack, ratio = later.min_slack, later.max_ratio
        if slack is not None and (self.min_slack is None or slack < self.min_slack):
            self.min_slack = slack
        if ratio is not None and (self.max_ratio is None or ratio > self.max_ratio):
            self.max_ratio = ratio

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "violations": self.violations,
            "counterexamples": self.counterexamples,
            "min_slack": self.min_slack,
            "max_ratio": self.max_ratio,
        }


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

#: A record's keys in report order: the CSV columns, then its comparisons.
_RECORD_KEYS = CSV_COLUMNS + ("comparisons",)
#: The types of a plain record's values, and of a plain comparison's
#: [lhs label, lhs, rhs label, rhs, flag]: what evaluations give.
_PLAIN_RECORD = (int, str, str, int, bool, float, float, float, float, bool)
_PLAIN_COMPARISON = (str, float, str, float, bool)
#: Printf slots that write a plain value's text once the str and bool values are JSON texts.
_SLOTS = {int: "%d", float: FLOAT_SLOT, str: "%s", bool: "%s"}
#: Between two records of a report, and between two comparisons of a record.
_RECORD_SEP = ",\n    "
_COMPARISON_SEP = ",\n        "


#: A plain record's text at the records indent of a report, its comparisons one "%s".
_PLAIN_RECORD_TEXT = "{%s\n    }" % ",".join(
    f"\n      {encode_basestring_ascii(key)}: {slot}"
    for key, slot in zip(_RECORD_KEYS, [_SLOTS[t] for t in _PLAIN_RECORD] + ["%s"])
)
#: A plain comparison's text at its indent in a record.
_PLAIN_COMPARISON_TEXT = "[%s\n        ]" % ",".join(
    f"\n          {_SLOTS[t]}" for t in _PLAIN_COMPARISON
)


def _comparisons_text(texts: list) -> str:
    return "[\n        " + _COMPARISON_SEP.join(texts) + "\n      ]" if texts else "[]"


def _record_text(index: int, result: InstanceResult, ok: bool, flags: list) -> str:
    """The one definition of a record: its text at the records indent of a report.

    Byte for byte what `render_json` writes for the record's dict there, and
    raising what it raises: a non-finite number is a ValueError, an
    unrenderable value a TypeError.  A record of plain types and finite
    numbers is formatted in one step; any other is the record's dict through
    `render_json`'s walk.
    """
    margin, gap, bound = result.margin, result.gap, result.bound
    try:
        slack = bound - gap
    except RuntimeWarning:
        # numpy scalars warn on inf - inf or an overflow, and warnings may be errors;
        # the NaN or inf is then render_json's ValueError below, as for the dict
        with np.errstate(invalid="ignore", over="ignore"):
            slack = bound - gap
    values = (
        index, result.theorem, result.field, result.dim, result.admissible,
        margin, gap, bound, slack, ok,
    )
    comparisons = [(l1, v1, l2, v2, f) for (l1, v1, l2, v2), f in zip(result.comparisons, flags)]
    if tuple(map(type, values)) == _PLAIN_RECORD:
        total = margin + gap + bound + slack
        texts = []
        for l1, v1, l2, v2, flag in comparisons:
            if (type(l1), type(v1), type(l2), type(v2), type(flag)) != _PLAIN_COMPARISON:
                break
            total += v1 + v2
            texts.append(_PLAIN_COMPARISON_TEXT % (
                encode_basestring_ascii(l1), v1, encode_basestring_ascii(l2), v2, BOOL_TEXT[flag]
            ))
        else:
            # a sum of finite floats is finite or overflows; one NaN or inf makes it non-finite
            if total - total == 0.0:
                return _PLAIN_RECORD_TEXT % (
                    index, encode_basestring_ascii(result.theorem),
                    encode_basestring_ascii(result.field), result.dim,
                    BOOL_TEXT[result.admissible], margin, gap, bound, slack, BOOL_TEXT[ok],
                    _comparisons_text(texts),
                )
    out: list = []
    _emit(dict(zip(_RECORD_KEYS, values + (comparisons,))), out, "\n    ")
    return "".join(out)


class _Tally:
    """Stats and records of `run_suite` and `evaluate_file`, from one flag per comparison.

    Per-theorem entries appear in the order of `ids`, then of first appearance.
    """

    __slots__ = ("tol", "total", "per_theorem", "records")

    def __init__(self, tol: float, keep_records: bool, ids: Sequence[str] = ()):
        if not math.isfinite(tol):
            raise InputFormatError(f"tol must be finite, got {tol!r}")
        self.tol = tol
        self.total = _Stats()
        self.per_theorem = {tid: _Stats() for tid in ids}
        self.records: Optional[list] = [] if keep_records else None

    def add(self, index: int, result: InstanceResult) -> None:
        flags = [leq_with_slack(lhs, rhs, self.tol) for _, lhs, _, rhs in result.comparisons]
        ok = all(flags)
        stats = self.per_theorem.get(result.theorem)
        if stats is None:
            stats = self.per_theorem[result.theorem] = _Stats()
        stats.add(result, ok)
        self.total.add(result, ok)
        if self.records is not None:
            self.records.append(_record_text(index, result, ok, flags))

    def counted(self, job, lo: int, hi: int) -> "_Tally":
        """A new tally, with this one's tol and records choice, of `job(lo, hi)`.

        Its records, if any, are one text: a child sends its slice's records
        as one string, and the report splices it in as it is."""
        part = _Tally(self.tol, self.records is not None)
        for i, result in zip(range(lo, hi), job(lo, hi)):
            part.add(i, result)
        if part.records:
            part.records = [_RECORD_SEP.join(part.records)]
        return part

    def merge(self, later: "_Tally") -> None:
        """Fold in the tally of the results that follow every one counted here."""
        self.total.merge(later.total)
        for tid, stats in later.per_theorem.items():
            self.per_theorem.setdefault(tid, _Stats()).merge(stats)
        if self.records is not None:
            self.records += later.records

    def report(self, metadata: dict) -> SuiteReport:
        per_theorem = {tid: stats.as_dict() for tid, stats in self.per_theorem.items()}
        return SuiteReport(metadata, self.total.as_dict(), per_theorem, self.records)


#: Instances per worker below which one more forked worker costs `_run`
#: more than it saves: a fork, its copy-on-write faults and its reaping cost
#: about as much as this many instances (CHANGES.md has the measurement).
_FORK_BREAK_EVEN = 128


def _worker_count(instances: int) -> int:
    """Processes `_run` splits `instances` over: 1 means serial, no fork.

    One per CPU available to this process, but no more than leaves each
    worker `_FORK_BREAK_EVEN` instances.  Forking needs `os.fork` and a
    process with a single Python thread.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), instances // _FORK_BREAK_EVEN))


def _suite_results(tid: str, grid: list, seed: int, adversarial: bool, lo: int, hi: int):
    """Instances lo..hi-1 of one theorem, sampled and evaluated in index order."""
    sampler = _SAMPLERS[tid]
    stream = _Stream(seed, tid)
    rows = (
        (tid, sampler(_rng_for(stream, i), *grid[i % len(grid)], adversarial))
        for i in range(lo, hi)
    )
    return _results(rows)


def _row_result(tid: str, row: tuple) -> InstanceResult:
    """Certify a row, the (field, record dim, args) a sampler drew or `_document_row`
    decoded: the one place an instance reaches its operation.

    A function given by its coefficients is discretized on the instance's
    domain first, an error naming its key as `_decode` does; every other
    argument goes to the operation as it is."""
    field, dim, args = row
    spec = _SPECS[tid]
    if tid in _GROUPED:
        dom = next(arg for arg in args if isinstance(arg, WeightedDomain))
        args = list(args)
        for pos, (key, kind) in enumerate(spec.params):
            if kind == "function" and not isinstance(args[pos], DiscretizedFunction):
                try:
                    values = _poly_values(dom, args[pos], field)
                    args[pos] = DiscretizedFunction._computed(values, field)
                except ValueError as exc:
                    raise ValueError(f"{tid} {key!r}: {exc}") from None
    return _result(tid, field, dim, globals()[spec.operation](*args))


# ---------------------------------------------------------------------------
# Integral instances in groups.

#: The integral ids, whose instances a worker evaluates in groups, and the
#: operation over rows that each group takes.
_GROUPED = {
    tid: _ROW_OPERATIONS[spec.operation]
    for tid, spec in _SPECS.items()
    if spec.operation in _ROW_OPERATIONS
}

#: Most node values per function in one grouped evaluation: a group is
#: evaluated in chunks of max(1, _GROUP_CHUNK_NODES // n) rows on n nodes.
#: Evaluating the quadrature benchmark's 480 instances on one CPU took a
#: median 107 ms one row at a time and 72 ms in chunks of this size; chunks
#: of 4096 to 32768 node values were within the noise of it, and whole
#: groups were slower (91 against 76 ms in another run; CHANGES.md).
_GROUP_CHUNK_NODES = 8192

#: Most consecutive instances, and most nodes over their decoded integral
#: instances, that one window holds decoded before its groups are evaluated.
_GROUP_WINDOW = 1024
_GROUP_WINDOW_NODES = 2**20


def _member(tid: str, row: tuple) -> Optional[tuple]:
    """(group key, nodes, arguments) of a row, or None for an id that is not grouped.

    Rows of one group share theorem, field, domain, and the form of each
    function: node values, or 1-D polynomial coefficients of one dtype
    (float64 or complex128, as samplers draw and `_decode` builds them) and
    one length.
    """
    if tid not in _GROUPED:
        return None
    field, _, args = row
    forms = []
    for (_, kind), arg in zip(_SPECS[tid].params, args):
        if kind == "domain":
            dom = arg
        elif kind == "function":
            if isinstance(arg, DiscretizedFunction):
                forms.append(None)
            else:
                forms.append((arg.dtype.char, arg.size))
    return (tid, field, dom, tuple(forms)), dom.size, args


def _group_results(members: list) -> dict:
    """{index: result} of the (index, member) rows whose group chunk evaluated cleanly.

    A chunk that raises, a RuntimeWarning raised as an error included, is
    left out whole, and a row with a non-finite number alone: those take
    their own path, which gives their errors and messages."""
    groups: dict = {}
    for i, (key, _, args) in members:
        groups.setdefault(key, []).append((i, args))
    done = {}
    for (tid, field, dom, _), rows in groups.items():
        step = max(1, _GROUP_CHUNK_NODES // dom.size)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            try:
                reports = _chunk_reports(tid, field, dom, [args for _, args in chunk])
            except Exception:
                continue
            for (i, _), report in zip(chunk, reports):
                result = _result(tid, field, dom.size, report)
                if _first_non_finite(result) is None:
                    done[i] = result
    return done


def _chunk_reports(tid: str, field: FieldTag, dom: WeightedDomain, chunk: list) -> list:
    """The reports of rows of one group, from their decoded arguments: each parameter is one
    column over the rows, a function's column its rows of node values."""
    columns = []
    for pos, (_, kind) in enumerate(_SPECS[tid].params):
        parts = [args[pos] for args in chunk]
        if kind == "domain":
            columns.append(dom)
        elif kind == "function":
            columns.append(_discretized_rows(dom, parts, field))
        else:
            columns.append(parts)
    return _GROUPED[tid](*columns)


def _results(rows):
    """The results of `rows`, (theorem id, row) pairs, in their order.

    A row is what a sampler drew or `_document_row` decoded.  The integral
    rows are taken a window of consecutive rows at a time, and evaluated in
    groups (`_group_results`); every other row goes to `_row_result` in its
    turn.  So a bad row raises as it does alone, after the results before
    it, and so does a row whose draw or decode raises.
    """
    rows = iter(rows)
    window, nodes = [], 0
    while True:
        try:
            tid, row = next(rows)
        except StopIteration:
            break
        except Exception:
            # drawing or decoding the next row raised: the rows before it come first
            yield from _window_results(window)
            raise
        grouped = _member(tid, row)
        if grouped is None and not window:
            yield _row_result(tid, row)
            continue
        window.append((tid, row, grouped))
        nodes += grouped[1] if grouped else 0
        if len(window) >= _GROUP_WINDOW or nodes >= _GROUP_WINDOW_NODES:
            yield from _window_results(window)
            window, nodes = [], 0
    yield from _window_results(window)


def _window_results(window: list):
    members = [(pos, member) for pos, (_, _, member) in enumerate(window) if member]
    done = _group_results(members)
    for pos, (tid, row, _) in enumerate(window):
        result = done.get(pos)
        yield _row_result(tid, row) if result is None else result


class _Workers:
    """Forked children, one per index slice of every job but the first.

    The first slice is this process's own.  A child writes one pickled
    `_Tally` per job, in job order: the tally of its slice.  It ends with
    `os._exit`, so the stdio buffers it inherited are never flushed twice.  A
    child that fails for any reason ends without writing that job's tally;
    `take` then returns None for it and every later job, and the parent
    computes those slices itself.  `close` kills and reaps every child,
    whether or not the parent finished.
    """

    def __init__(self, tally: _Tally, jobs, slices) -> None:
        self.pids: list[int] = []
        self.readers = []
        try:
            for lo, hi in slices[1:]:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    pid = None  # the reader sees end of file: the parent computes
                if pid == 0:
                    os.close(r)
                    self._work(tally, jobs, lo, hi, w)
                os.close(w)
                if pid is not None:
                    self.pids.append(pid)
                self.readers.append(os.fdopen(r, "rb"))
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _work(tally, jobs, lo, hi, fd) -> None:
        """A child's whole life; it never returns, and an error only ends it early."""
        code = 1
        try:
            out = os.fdopen(fd, "wb")
            for job in jobs:
                pickle.dump(tally.counted(job, lo, hi), out, pickle.HIGHEST_PROTOCOL)
                out.flush()
            code = 0
        finally:
            os._exit(code)

    def take(self, part: int) -> Optional[_Tally]:
        """Slice `part`'s tally for the next job; None means compute it here.

        None for slice 0, and for a child that ended short.
        """
        try:
            return pickle.load(self.readers[part - 1]) if part else None
        except (EOFError, pickle.UnpicklingError):
            return None

    def close(self) -> None:
        for reader in self.readers:
            reader.close()
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self.pids = []


def _run(tally: _Tally, jobs: list, size: int) -> None:
    """Count `job(0, size)` of every job into `tally`, job after job.

    Each job is a callable (lo, hi) -> its results lo..hi-1 in index order.
    Index range [0, size) is cut into one contiguous slice per worker
    (`_worker_count`); this process counts the first slice of every job and
    forked children the others.  Every slice is counted into a tally of its
    own, and those are merged here in (job, slice) order, so `tally`, and
    the first exception raised, do not depend on the worker count.
    """
    workers = _worker_count(len(jobs) * size)
    cuts = [size * w // workers for w in range(workers + 1)]
    slices = list(zip(cuts, cuts[1:]))
    with closing(_Workers(tally, jobs, slices)) as children:
        for job in jobs:
            for part, (lo, hi) in enumerate(slices):
                tally.merge(children.take(part) or tally.counted(job, lo, hi))


def run_suite(
    theorems: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    dims: Sequence[int] = DEFAULT_DIMS,
    fields: Sequence[FieldTag | str] = DEFAULT_FIELDS,
    tol: float = CHAIN_REL_TOL,
    seed: int = 0,
    adversarial: bool = False,
    keep_records: bool = False,
) -> SuiteReport:
    """Sample and evaluate `trials` instances per theorem over the dims x fields grid.

    Each theorem draws from one Philox stream keyed by (seed, theorem), and
    instance i starts at counter block i * 2**64 of it, so reports depend
    only on the arguments, never on execution order.  Fields are names or
    `FieldTag`s.  Instances stay typed from sampler to operation; none is
    encoded to JSON or decoded, and records hold only results.  Instance i is drawn on grid
    cell i mod len(grid), the grid being dims x the theorem's fields in
    order; `sample_admissible(theorem, field, dim, seed, adversarial,
    index=i)` returns the same instance as a document, and evaluating that
    document gives the same record bit for bit.

    Each theorem is one job of `_run`, which splits its index range over the
    CPUs available to the process; no argument sets how many.  The report,
    and the first exception raised, do not depend on the worker count.

    Violations count admissible instances failing an asserted comparison at
    relative tolerance tol (the theorems guarantee zero); counterexamples
    count hypothesis-violating instances whose bare inequality fails
    (adversarial mode exists to show these are found).  A theorem named twice
    runs once.  Results are counted by the same `_Tally` as `evaluate_file`'s,
    so a record and a per-theorem entry mean the same in both reports.
    """
    ids = list(
        THEOREM_IDS
        if theorems is None
        else dict.fromkeys(normalize_theorem_id(t) for t in theorems)
    )
    tally = _Tally(tol, keep_records, ids)
    if trials < 1:
        raise InputFormatError(f"trials must be >= 1, got {trials}")
    if int(seed) < 0:
        raise InputFormatError(f"seed must be nonnegative, got {seed}")
    dims = [int(d) for d in dims]
    if not dims:
        raise InputFormatError("need at least one dimension")
    if any(d < 1 for d in dims):
        raise InputFormatError(f"dimensions must be >= 1, got {dims}")
    for d in dims:
        _check_dim(d)
    field_tags = [FieldTag.parse(f) for f in fields]
    if not field_tags:
        raise InputFormatError("need at least one field")

    trials, seed, adversarial = int(trials), int(seed), bool(adversarial)
    jobs = []
    for tid in ids:
        tags = [t for t in field_tags if not (tid in REAL_ONLY_IDS and t is FieldTag.COMPLEX)]
        if tags:
            grid = [(d, t) for d in dims for t in tags]
            jobs.append(partial(_suite_results, tid, grid, seed, adversarial))
    _run(tally, jobs, trials)

    return tally.report({
        "mode": "verify",
        "version": __version__,
        "seed": seed,
        "tol": float(tol),
        "trials": trials,
        "dims": dims,
        "fields": [t.value for t in field_tags],
        "theorems": ids,
        "adversarial": adversarial,
    })


# ---------------------------------------------------------------------------
# File-based evaluation.


def _first_non_finite(result: InstanceResult) -> Optional[tuple[str, float]]:
    """(name, value) of the first reported quantity that is NaN or infinite.

    A float sum of them all with total - total == 0.0 means none is (as in
    `_record_text`); any other total takes the scan that names the first."""
    total = result.gap + result.bound + result.margin
    for _, lhs, _, rhs in result.comparisons:
        total += lhs + rhs
    if type(total) is float and total - total == 0.0:
        return None
    named = [("gap", result.gap), ("bound", result.bound), ("margin", result.margin)]
    for lhs_label, lhs, rhs_label, rhs in result.comparisons:
        named += [(lhs_label, lhs), (rhs_label, rhs)]
    for name, value in named:
        if not math.isfinite(value):
            return name, float(value)
    return None


#: How `eval` ends the message of an instance whose evaluation leaves the range of a float.
_OUT_OF_RANGE = "; the inputs leave double precision"


def _file_results(instances: list, lo: int, hi: int):
    """Instances lo..hi-1 of a document in index order; a bad one is bad input named by index.

    Each instance is decoded once, into its row, and takes `run_suite`'s path
    (`_results`).  That raises only after yielding every result before the
    bad row, a row that fails to decode included, so the error is always
    that of the next instance due.
    """
    results = _results(_document_row(instances[j]) for j in range(lo, hi))
    for i in range(lo, hi):
        try:
            result = next(results)
        except (IneqError, ValueError, TypeError) as exc:
            raise InputFormatError(f"instance {i}: {exc}")
        except ArithmeticError as exc:  # a float ** overflowed or a divisor underflowed to 0
            # instance i decoded its id before any arithmetic, so this cannot fail
            tid = normalize_theorem_id(instances[i]["theorem"])
            raise InputFormatError(f"instance {i}: {tid} {exc}{_OUT_OF_RANGE}")
        bad = _first_non_finite(result)
        if bad is not None:
            raise InputFormatError(
                f"instance {i}: {result.theorem} {bad[0]} is {bad[1]!r}{_OUT_OF_RANGE}"
            )
        yield result


def evaluate_file(
    path: str, tol: float = CHAIN_REL_TOL, keep_records: bool = True
) -> SuiteReport:
    """Evaluate an instance document: {"instances": [instance, ...]}.

    Results are counted by the same `_Tally` as `run_suite`'s, every record
    kept unless `keep_records` is false (then `records` is None); per-theorem
    entries follow the first appearance of each id.  The
    document is one job of `_run`, as a theorem is in `run_suite`: its
    instances are split over the CPUs in the same way, and the first bad
    one is reported as "instance i: ..." whatever the worker count.
    """
    tally = _Tally(tol, keep_records)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise InputFormatError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "instances" not in doc:
        raise InputFormatError(f"{path}: top level must be an object with 'instances'")
    instances = doc["instances"]
    if not isinstance(instances, list):
        raise InputFormatError(f"{path}: 'instances' must be a list")

    # Overflow is bad input (`_file_results`), so numpy need not warn; workers inherit this.
    with np.errstate(over="ignore", invalid="ignore"):
        _run(tally, [partial(_file_results, instances)], len(instances))

    return tally.report({"mode": "eval", "version": __version__, "tol": float(tol)})


def emit_report(report: SuiteReport, path: str, format: str = "json") -> None:
    """Write a report as JSON (full) or CSV (flat per-instance records)."""
    if format == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(report._json_pieces())
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
