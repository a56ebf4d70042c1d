"""Instance documents: a row's JSON form, written from a sampled row and read back validated.

JSON exists only at the boundary.  A sampled row is written through one
encoder per parameter kind (`_ENCODERS`), and `_decode`, the only reader of
untrusted input, reads a document instance back into the row a sampler would
draw.  The kinds are "vector", "seq" (coefficient sequence), "pair" (scalar
pair), "real", "count" (size k of an orthonormal family: the first k standard
basis vectors of x's space), "domain" (a quadrature domain) and "function"
(discretized on that domain).  `_Decoding` has one decoder per kind, and
`_decode_steps` puts a theorem's parameters in decoding order, the domain
first because {"values"} functions are discretized on its nodes.  An error
names its key; a missing key also lists the keys the theorem needs.  A
record's dim is x's dimension, or the node count of an integral instance.
A list of plain floats is built into its array once and adopted unscanned:
its finiteness is read off the norm a `CoefficientSequence` takes when it is
built, or off a vector's norm, which `_Decoding.vector` takes so the error
names its key.

Document schema: a dict with "theorem", "field", and the operation's
parameters -- vectors as number lists ({"re","im"} objects over the complex
field), scalar pairs as {"lo","hi"}, orthonormal families as {"size": k}
meaning the first k standard basis vectors, integral instances with a
"domain" object {"interval","weight":{"poly":[...]},"rule":{"kind","n"}} and
functions as non-empty {"poly":[...]} or {"values":[...]} lists.  Every
number is a JSON int or float, never a bool or a string; "size" and "rule.n"
are integral.
"""

from __future__ import annotations

import cmath

import numpy as np

from .conditions import ScalarPair
from .errors import FieldMismatchError, IneqError, InputFormatError, _brief
from .integral import DEFAULT_DOMAIN_SPEC, WeightedDomain, _cached_domain
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Vector,
    _checked_norm,
    coefficients,
    standard_basis,
    vector,
)


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


def _dec_pair(obj) -> ScalarPair:
    if not isinstance(obj, dict) or "lo" not in obj or "hi" not in obj:
        raise InputFormatError(f"expected {{'lo','hi'}}, got {_brief(obj)}")
    lo, hi = _dec_scalar(obj["lo"]), _dec_scalar(obj["hi"])
    return ScalarPair(_finite(lo, "'lo'"), _finite(hi, "'hi'"))


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
#: memory and an O(size^2 x dim) orthonormality check.  `verify` reads the same
#: cap for the families it samples (`harness._check_dim`).
_MAX_FAMILY_COORDS = 2**18


#: Node caps per rule for untrusted documents, checked before anything is
#: allocated.  Both rules take O(n) memory and O(n) time (gauss above 64
#: nodes, by asymptotic expansions: about 0.5 ms at n = 2048).  No cap
#: exceeds `integral._DOMAIN_CACHE_NODES`, so the domain just built is never
#: evicted.
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
        kind = str(rule.get("kind", DEFAULT_DOMAIN_SPEC["rule"]["kind"]))
        part = "rule.n"
        n = _dec_count(rule.get("n", DEFAULT_DOMAIN_SPEC["rule"]["n"]))
        cap = _MAX_NODES.get(kind)
        if cap is not None and n > cap:
            raise InputFormatError(f"{kind} rules take at most {cap} nodes, got {_brief(n)}")
    except InputFormatError as exc:
        raise InputFormatError(f"{part}: {exc}") from None
    return _cached_domain((a, b, wpoly, kind, n))


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
            x = Vector._sampled(coords, self.field, _checked_norm(coords))
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
            # its norm reads the finiteness
            return CoefficientSequence._computed(entries, self.field)
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


def _decode_steps(params: tuple) -> tuple:
    """The (position, key, decoder) steps of a theorem's (key, kind) parameters, in
    decoding order: the domain first, since functions are discretized on its nodes."""
    steps = [(i, key, getattr(_Decoding, kind)) for i, (key, kind) in enumerate(params)]
    steps.sort(key=lambda step: step[2] is not _Decoding.domain)
    return tuple(steps)


def _decode(tid: str, inst: dict, decoding: _Decoding, steps: tuple) -> list:
    """The operation's arguments, `inst` decoded by `decoding` along theorem `tid`'s
    `_decode_steps`."""
    args = [None] * len(steps)
    for pos, key, decode in steps:
        try:
            obj = inst[key]
        except KeyError:
            needs = ", ".join(name for _, name, _ in steps)
            raise InputFormatError(
                f"instance for {tid} is missing key {key!r} (needs {needs})"
            ) from None
        try:
            args[pos] = decode(decoding, obj)
        except (IneqError, ValueError) as exc:
            raise type(exc)(f"{tid} {key!r}: {exc}") from None
    return args
