"""Concrete inner product spaces: R^n and C^n vectors plus orthonormal families.

Conventions
-----------
The inner product is linear in the first slot and conjugate-linear in the
second:

    <x, y> = sum_i x_i * conj(y_i)

so over C, <i*e1, e1> = i.  Norms are ||x|| = sqrt(Re<x, x>).  Every vector
carries a field tag; mixing real and complex operands raises instead of
silently promoting, because certification must know which field's theorem it
is checking.  Infinite-dimensional statements are represented by finite
truncations: a coefficient sequence's length defines the family size, and the
caller's tail is declared zero.

Finiteness is checked where a value enters: the public constructors reject a
NaN or infinite entry, and so does public arithmetic (x + y, x - y, -x,
c * x, `synthesize`, `fourier_coefficients`) on a result that overflowed.
The evaluators work on raw coordinate arrays instead and read finiteness off
the norm or inner product that consumes an intermediate: such a reduction is
finite only if every entry it read is, so `_check_finite` runs on the
intermediate only when its reduction is not finite, and raises the same
ValueError.  A vector's norm is computed once and kept (`norm`), which is
safe because its coordinates are read-only.

Every norm keeps to one float-range rule (`_root_of`): it is the square root
of its sum of squares where that sum is a normal float, and a hypot of the
entries elsewhere, so it is finite wherever its value is, from subnormal
entries up to the float max.  No other module reads the float range.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotOrthonormalError,
    RankDeficiencyError,
    _brief,
)

#: Default absolute tolerance for orthonormality checks and rank decisions.
DEFAULT_ORTHO_TOL = 1e-10

Scalar = Union[int, float, complex]


class FieldTag(enum.Enum):
    """Scalar field of a space instance."""

    REAL = "real"
    COMPLEX = "complex"

    def __init__(self, value: str):
        #: The member's numpy dtype, built once: array constructors read it per instance.
        self.dtype = np.dtype(np.float64 if value == "real" else np.complex128)

    @classmethod
    def parse(cls, name: str | FieldTag) -> FieldTag:
        """The tag named `name` (any case); a `FieldTag` is returned unchanged."""
        if isinstance(name, FieldTag):
            return name
        tag = _FIELD_TAGS.get(str(name).lower())
        if tag is None:
            raise FieldMismatchError(f"unknown field {_brief(name)} (expected 'real' or 'complex')")
        return tag


#: FieldTag by value; a dict lookup is several times cheaper than the Enum call.
_FIELD_TAGS = {tag.value: tag for tag in FieldTag}


def _as_coords(values, tag: FieldTag) -> np.ndarray:
    raw = np.asarray(values)
    if tag is FieldTag.REAL and np.iscomplexobj(raw):
        raise FieldMismatchError("complex entries are not representable over real")
    try:
        arr = np.array(raw, dtype=tag.dtype, copy=True)
    except (TypeError, ValueError) as exc:
        raise FieldMismatchError(f"entries not representable over {tag.value}: {exc}")
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError("dimension must be >= 1")
    _check_finite(arr)
    arr.flags.writeable = False
    return arr


def _computed_coords(arr: np.ndarray, tag: FieldTag) -> np.ndarray:
    """Adopt, without copying, an array the library itself just computed.

    Arithmetic on validated operands already has the field's dtype and shape,
    so only finiteness can be lost (x + y may overflow to inf).
    """
    assert arr.dtype == tag.dtype and arr.ndim == 1 and arr.size, (arr.dtype, arr.shape)
    _check_finite(arr)
    arr.flags.writeable = False
    return arr


def _check_finite(arr: np.ndarray) -> None:
    """Raise ValueError unless every entry of arr is finite.

    Exact and silent: isfinite raises no floating-point flag whatever the
    entries are (a sum or dot product of finite entries can overflow, and
    numpy warns of that).  Counting the True entries costs about half as much
    as `.all()`, whose Python-level wrapper dominates on the short arrays
    built per instance.
    """
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("entries must be finite (no NaN/Inf)")


def _array_norm(arr: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64/complex128 array.

    In range, the same arithmetic as np.linalg.norm's fast path (so bit-identical
    to it) without the wrapper's dispatch cost; out of range, `_root_of`'s.
    """
    if arr.dtype.kind == "c":
        re, im = arr.real, arr.imag
        return _root_of(re.dot(re) + im.dot(im), arr)
    return _root_of(arr.dot(arr), arr)


#: The least norm whose square is a normal float, 2**-511.
_ROOT_TINY = math.sqrt(sys.float_info.min)


def _root_of(sq: float, arr: np.ndarray) -> float:
    """||arr|| from sq = sum |arr_i|^2, by the one float-range rule for norms: sqrt(sq) where sq
    is a normal finite float, and otherwise math.hypot over arr's float view, which is finite
    from subnormal entries up to the float max and not finite on a NaN or infinite entry."""
    n = math.sqrt(sq)
    if _ROOT_TINY <= n < math.inf:
        return n
    return math.hypot(*np.ascontiguousarray(arr).view(np.float64).tolist())


def _check_scalar(c: Scalar, tag: FieldTag) -> Scalar:
    if isinstance(c, (bool,)) or not isinstance(c, (int, float, complex, np.number)):
        raise TypeError(f"expected a scalar, got {type(c).__name__}")
    c = complex(c)
    if tag is FieldTag.REAL:
        if c.imag != 0.0:
            raise FieldMismatchError("complex scalar applied to a real-space vector")
        return c.real
    return c


@dataclass(frozen=True, eq=False)
class Vector:
    """Immutable element of R^n or C^n."""

    coords: np.ndarray
    field: FieldTag

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_coords(self.coords, self.field))

    @classmethod
    def _computed(cls, coords: np.ndarray, field: FieldTag, norm: float | None = None) -> "Vector":
        """Trusted constructor for coordinates the library just computed, and
        their norm when the caller already took `_array_norm(coords)`."""
        self = object.__new__(cls)
        object.__setattr__(self, "coords", _computed_coords(coords, field))
        object.__setattr__(self, "field", field)
        if norm is not None:
            self.__dict__["_norm"] = norm
        return self

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __add__(self, other: "Vector") -> "Vector":
        check_same_space(self, other)
        return Vector._computed(self.coords + other.coords, self.field)

    def __sub__(self, other: "Vector") -> "Vector":
        check_same_space(self, other)
        return Vector._computed(self.coords - other.coords, self.field)

    def __neg__(self) -> "Vector":
        return Vector._computed(-self.coords, self.field)

    def scaled(self, c: Scalar) -> "Vector":
        """c * x, rejecting complex c on a real-space vector."""
        return Vector._computed(_check_scalar(c, self.field) * self.coords, self.field)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Vector({self.coords.tolist()!r}, {self.field.value})"


def _field_for(values, field: FieldTag | str | None) -> FieldTag:
    """The tag of `field` (a tag or its name) or, when it is None, of the values:
    complex for a complex array or complex entries, real otherwise."""
    if field is None:
        return FieldTag.COMPLEX if np.iscomplexobj(values) else FieldTag.REAL
    return FieldTag.parse(field)


def vector(values, field: FieldTag | str | None = None) -> Vector:
    """Build a Vector, inferring the field from the values when not given."""
    tag = _field_for(values, field)
    return Vector(np.asarray(values), tag)


def check_same_space(x: Vector, y: Vector) -> None:
    if x.field is not y.field:
        raise FieldMismatchError(f"field mismatch: {x.field.value} vs {y.field.value}")
    if x.coords.size != y.coords.size:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


def inner(x: Vector, y: Vector) -> Scalar:
    """<x, y> = sum_i x_i conj(y_i); a float over R, a complex over C."""
    check_same_space(x, y)
    v = np.vdot(y.coords, x.coords)  # vdot conjugates its first argument
    return float(v.real) if x.field is FieldTag.REAL else complex(v)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> of coordinate arrays known to share a space, as a complex (`inner`'s value)."""
    return complex(np.vdot(b, a))


def norm(x: Vector) -> float:
    """||x|| = sqrt(Re<x, x>); zero iff x = 0.  Computed once per vector and kept."""
    memo = x.__dict__
    n = memo.get("_norm")
    if n is None:
        n = memo["_norm"] = _array_norm(x.coords)
    return n


def _checked_norm(arr: np.ndarray) -> float:
    """||arr|| of an intermediate the library computed, raising `_check_finite`'s
    ValueError where an entry overflowed: a norm reading a NaN or infinite entry is
    not finite, so the entries are scanned only when the norm is not."""
    n = _array_norm(arr)
    if not n < math.inf:
        _check_finite(arr)
    return n


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Finite truncation of an l^2 scalar sequence, with cached square norm."""

    entries: np.ndarray
    field: FieldTag
    sq_norm: float = dc_field(init=False)

    def __post_init__(self) -> None:
        self._adopt(_as_coords(self.entries, self.field))

    def _adopt(self, arr: np.ndarray) -> None:
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "sq_norm", _sq_sum(arr))

    @classmethod
    def _computed(cls, entries: np.ndarray, field: FieldTag) -> "CoefficientSequence":
        """Trusted constructor for entries the library just computed.  The square norm
        reads every entry, so the entries are scanned for finiteness only where it is
        not finite."""
        assert entries.dtype == field.dtype and entries.ndim == 1 and entries.size, (
            entries.dtype, entries.shape
        )
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        self._adopt(entries)
        if not self.sq_norm < math.inf:
            _check_finite(entries)
        entries.flags.writeable = False
        return self

    def __len__(self) -> int:
        return int(self.entries.size)

    @property
    def norm(self) -> float:
        return _root_of(self.sq_norm, self.entries)


def _sq_sum(arr: np.ndarray) -> float:
    """sum |arr_i|^2 by `np.vdot`, a CoefficientSequence's `sq_norm`; NaN where a complex vdot
    overflows, past about 1e154."""
    return float(np.vdot(arr, arr).real)


def _seq_norm(arr: np.ndarray) -> float:
    """The norm `CoefficientSequence.norm` takes of entries arr, without building the sequence."""
    return _root_of(_sq_sum(arr), arr)


def coefficients(values, field: FieldTag | str | None = None) -> CoefficientSequence:
    """Build a CoefficientSequence analogously to vector()."""
    tag = _field_for(values, field)
    return CoefficientSequence(np.asarray(values), tag)


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """k <= n vectors with pairwise inner products 0 and norms 1, within tol.

    Parameters
    ----------
    members : tuple of Vector
        The family, all in one space.
    tol : float
        Absolute tolerance used for the orthonormality check at construction.
    """

    members: tuple[Vector, ...]
    tol: float = DEFAULT_ORTHO_TOL
    _matrix: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise DimensionMismatchError("family must contain at least one vector")
        first = members[0]
        for m in members[1:]:
            check_same_space(first, m)
        if len(members) > first.dim:
            raise DimensionMismatchError(
                f"{len(members)} members cannot be orthonormal in dimension {first.dim}"
            )
        mat = np.stack([m.coords for m in members])
        gram = mat @ mat.conj().T
        norms = np.sqrt(np.abs(np.diag(gram).real))
        if np.max(np.abs(norms - 1.0)) > self.tol:
            raise NotOrthonormalError(f"member norm off unit by more than tol={self.tol}")
        off = gram - np.diag(np.diag(gram))
        if off.size and np.max(np.abs(off)) > self.tol:
            raise NotOrthonormalError(f"pairwise inner product above tol={self.tol}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_matrix", mat)

    @property
    def field(self) -> FieldTag:
        return self.members[0].field

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def size(self) -> int:
        return len(self.members)


class _BoundedCache(dict):
    """Values by key, evicted oldest-first while their total `size_of` exceeds `budget`.

    A value larger than the whole budget is evicted as soon as it is added.
    """

    def __init__(self, budget: int, size_of) -> None:
        super().__init__()
        self.budget = budget
        self.size_of = size_of
        self.total = 0

    def add(self, key, value) -> None:
        self[key] = value
        self.total += self.size_of(value)
        while self.total > self.budget:
            self.total -= self.size_of(self.pop(next(iter(self))))

    def clear(self) -> None:
        super().clear()
        self.total = 0


#: Most coordinates (size x dim, summed over families) `_BASIS_CACHE` holds:
#: 2 MB of float64 per copy, and a family keeps two (members and matrix).
_BASIS_CACHE_COORDS = 2**18

#: Families by (field, dim, size).
_BASIS_CACHE = _BoundedCache(_BASIS_CACHE_COORDS, lambda fam: fam.size * fam.dim)


def standard_basis(field: FieldTag | str, dim: int, size: int | None = None) -> OrthonormalFamily:
    """First `size` standard basis vectors of the given space.

    The field is a `FieldTag` or its name.  Families are immutable, so each
    (tag, dim, size) is built and checked once and then shared from a cache
    bounded by its total coordinate count.
    """
    tag = FieldTag.parse(field)
    size = dim if size is None else size
    if not 1 <= size <= dim:
        raise DimensionMismatchError(f"cannot take {size} basis vectors in dimension {dim}")
    key = (tag, dim, size)
    fam = _BASIS_CACHE.get(key)
    if fam is None:
        rows = np.eye(size, dim, dtype=tag.dtype)
        fam = OrthonormalFamily(tuple(Vector(row, tag) for row in rows))
        _BASIS_CACHE.add(key, fam)
    return fam


def gram_schmidt(vs: Iterable[Vector], tol: float = DEFAULT_ORTHO_TOL) -> OrthonormalFamily:
    """Orthonormalize vs by classical Gram-Schmidt with one re-orthogonalization pass.

    Parameters
    ----------
    vs : iterable of Vector
        Linearly independent input vectors (up to tol), all in one space.
    tol : float
        Residual norms below tol raise RankDeficiencyError; also used as the
        orthonormality tolerance of the returned family.

    Returns
    -------
    OrthonormalFamily
        Family spanning the same subspace, in order.
    """
    vs = list(vs)
    if not vs:
        raise DimensionMismatchError("need at least one vector")
    first = vs[0]
    for v in vs[1:]:
        check_same_space(first, v)
    basis: list[np.ndarray] = []
    for v in vs:
        u = v.coords.astype(first.field.dtype, copy=True)
        # Classical projection plus one extra pass recovers orthogonality lost
        # to cancellation on ill-conditioned inputs.
        for _ in range(2):
            for e in basis:
                u -= np.vdot(e, u) * e
        residual = float(np.linalg.norm(u))
        if residual < tol:
            raise RankDeficiencyError(
                f"vector {len(basis)} is dependent on its predecessors (residual {residual:.3e})"
            )
        basis.append(u / residual)
    return OrthonormalFamily(tuple(Vector(b, first.field) for b in basis), tol)


def fourier_coefficients(x: Vector, fam: OrthonormalFamily) -> CoefficientSequence:
    """The sequence (<x, e_i>)_i."""
    check_same_space(x, fam.members[0])
    coeffs = fam._matrix.conj() @ x.coords
    return CoefficientSequence._computed(coeffs, x.field)


def _synthesized(coeffs: CoefficientSequence, fam: OrthonormalFamily) -> np.ndarray:
    """The coordinates of `synthesize(coeffs, fam)`, not yet checked for finiteness."""
    if len(coeffs) != fam.size:
        raise DimensionMismatchError(f"{len(coeffs)} coefficients for {fam.size} members")
    if coeffs.field is not fam.field:
        raise FieldMismatchError("coefficient field differs from family field")
    return coeffs.entries @ fam._matrix


def synthesize(coeffs: CoefficientSequence, fam: OrthonormalFamily) -> Vector:
    """sum_i c_i e_i; its norm equals sqrt(sum |c_i|^2) up to rounding."""
    return Vector._computed(_synthesized(coeffs, fam), fam.field)


def project(x: Vector, fam: OrthonormalFamily) -> Vector:
    """Orthogonal projection of x onto span(fam)."""
    return synthesize(fourier_coefficients(x, fam), fam)
