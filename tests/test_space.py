"""Vector substrate: inner products, families, analysis/synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineq import (
    DimensionMismatchError,
    FieldMismatchError,
    FieldTag,
    NotOrthonormalError,
    RankDeficiencyError,
    Vector,
    coefficients,
    fourier_coefficients,
    gram_schmidt,
    inner,
    norm,
    project,
    standard_basis,
    synthesize,
    vector,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64)
finite_any = st.floats(allow_nan=False, allow_infinity=False, width=64)


def vec_strategy(dim, field):
    base = st.lists(finite, min_size=dim, max_size=dim)
    if field is FieldTag.REAL:
        return base.map(lambda v: vector(v, FieldTag.REAL))
    return st.tuples(base, base).map(
        lambda p: vector([complex(a, b) for a, b in zip(*p)], FieldTag.COMPLEX)
    )


def test_inner_worked_example():
    # independent oracle: plain summation
    assert inner(vector([2, 1]), vector([1, 1])) == pytest.approx(3, abs=1e-10)


def test_norm_worked_example():
    assert norm(vector([2, 1])) == pytest.approx(5**0.5, abs=1e-10)


def test_inner_conjugates_second_argument():
    x = vector([1j, 0], FieldTag.COMPLEX)
    y = vector([1, 0], FieldTag.COMPLEX)
    assert inner(x, y) == pytest.approx(1j)
    assert inner(y, x) == pytest.approx(-1j)


@given(vec_strategy(3, FieldTag.COMPLEX), vec_strategy(3, FieldTag.COMPLEX))
def test_conjugate_symmetry(x, y):
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-9)


@given(vec_strategy(4, FieldTag.COMPLEX), vec_strategy(4, FieldTag.COMPLEX))
def test_cauchy_schwarz(x, y):
    assert abs(inner(x, y)) <= norm(x) * norm(y) + 1e-9


@given(vec_strategy(3, FieldTag.COMPLEX), finite, finite)
def test_homogeneity(x, re, im):
    alpha = complex(re, im)
    assert norm(x.scaled(alpha)) == pytest.approx(abs(alpha) * norm(x), abs=1e-8)


@given(
    vec_strategy(3, FieldTag.REAL),
    vec_strategy(3, FieldTag.REAL),
    vec_strategy(3, FieldTag.REAL),
)
def test_linearity_first_slot(x, y, z):
    lhs = inner(x + y, z)
    assert lhs == pytest.approx(inner(x, z) + inner(y, z), abs=1e-8)


def test_vector_infers_field():
    assert vector([1.0, 2.0]).field is FieldTag.REAL
    assert vector([1.0, 2j]).field is FieldTag.COMPLEX


def test_complex_entries_rejected_for_real_field():
    with pytest.raises(FieldMismatchError):
        vector([1 + 1j, 0], FieldTag.REAL)


def test_mixed_field_operations_rejected():
    with pytest.raises(FieldMismatchError):
        inner(vector([1.0]), vector([1j], FieldTag.COMPLEX))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        inner(vector([1.0, 2.0]), vector([1.0]))


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        vector([np.nan, 0.0])
    with pytest.raises(ValueError):
        vector([np.inf, 0.0])


def test_arithmetic_overflow_rejected():
    big = vector([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            big + big
        with pytest.raises(ValueError, match="finite"):
            big - (-big)
        with pytest.raises(ValueError, match="finite"):
            big.scaled(10.0)


@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            st.lists(finite_any, min_size=n, max_size=n),
            st.lists(finite_any, min_size=n, max_size=n),
            st.booleans(),
        )
    )
)
def test_norm_is_bit_identical_to_numpy_in_range(parts):
    # numpy's bits wherever its square sum is a normal float; elsewhere a hypot over the
    # float view, finite up to the float max
    re, im, is_complex = parts
    if is_complex:
        v = vector([complex(a, b) for a, b in zip(re, im)], FieldTag.COMPLEX)
    else:
        v = vector(re, FieldTag.REAL)
    with np.errstate(over="ignore", under="ignore"):
        expected = float(np.linalg.norm(v.coords))
        if not 2.0**-511 <= expected < np.inf:
            expected = math.hypot(*v.coords.view(np.float64).tolist())
        assert norm(v) == expected


def test_norm_is_bit_identical_to_numpy_on_sampled_arrays():
    rng = np.random.default_rng(7)
    for dim in range(1, 65):
        re, im = rng.uniform(-2, 2, (2, dim))
        for v in (vector(re), vector(re + 1j * im)):
            assert norm(v) == float(np.linalg.norm(v.coords))


def test_coords_are_read_only():
    v = vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coords[0] = 5.0


def test_gram_schmidt_worked_example():
    # oracle: classical orthonormalization by hand
    fam = gram_schmidt([vector([1, 1, 0]), vector([1, 0, 0])])
    s = 1 / 2**0.5
    np.testing.assert_allclose(fam.members[0].coords, [s, s, 0], atol=1e-10)
    np.testing.assert_allclose(fam.members[1].coords, [s, -s, 0], atol=1e-10)


def test_gram_schmidt_rejects_dependent_input():
    with pytest.raises(RankDeficiencyError):
        gram_schmidt([vector([1, 0]), vector([2, 0])])


def test_orthonormal_family_validation():
    with pytest.raises(NotOrthonormalError):
        from ineq import OrthonormalFamily

        OrthonormalFamily([vector([1, 0]), vector([1, 1])])


def test_fourier_worked_example():
    fam = standard_basis(FieldTag.REAL, 3, 2)
    coeffs = fourier_coefficients(vector([1, 1, 0.5]), fam)
    np.testing.assert_allclose(np.asarray(coeffs.entries), [1, 1], atol=1e-10)


def test_synthesize_worked_example():
    fam = standard_basis(FieldTag.REAL, 2, 2)
    out = synthesize(coefficients([3, 4], FieldTag.REAL), fam)
    assert norm(out) == pytest.approx(5.0, abs=1e-10)


@given(vec_strategy(4, FieldTag.COMPLEX))
def test_bessel_inequality(x):
    fam = standard_basis(FieldTag.COMPLEX, 4, 2)
    assert fourier_coefficients(x, fam).norm <= norm(x) + 1e-9


@given(vec_strategy(4, FieldTag.COMPLEX))
def test_projection_residual_is_orthogonal(x):
    fam = standard_basis(FieldTag.COMPLEX, 4, 3)
    p = project(x, fam)
    residual = x - p
    for member in fam.members:
        assert abs(inner(residual, member)) < 1e-8


@given(vec_strategy(3, FieldTag.COMPLEX))
def test_full_basis_roundtrip(x):
    fam = standard_basis(FieldTag.COMPLEX, 3, 3)
    back = synthesize(fourier_coefficients(x, fam), fam)
    np.testing.assert_allclose(back.coords, x.coords, atol=1e-9)


def test_truncation_monotonicity():
    rng = np.random.default_rng(11)
    x = vector(rng.uniform(-2, 2, 6))
    norms = [
        fourier_coefficients(x, standard_basis(FieldTag.REAL, 6, k)).norm
        for k in range(1, 7)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_single_member_family():
    fam = standard_basis(FieldTag.REAL, 3, 1)
    assert fam.size == 1
    x = vector([2.0, 1.0, 0.0])
    assert fourier_coefficients(x, fam).norm == pytest.approx(2.0)


def test_standard_basis_size_bounds():
    with pytest.raises(DimensionMismatchError):
        standard_basis(FieldTag.REAL, 2, 3)


def test_standard_basis_builds_only_its_rows():
    import tracemalloc

    tracemalloc.start()
    try:
        fam = standard_basis(FieldTag.REAL, 30_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # np.eye(30_000) alone would be 7.2 GB
    assert fam.size == 1 and fam.dim == 30_000
    for field in (FieldTag.REAL, FieldTag.COMPLEX):
        eye = np.eye(5, dtype=field.dtype)
        for k in range(1, 6):
            got = np.stack([m.coords for m in standard_basis(field, 5, k).members])
            assert got.dtype == eye.dtype and got.tobytes() == eye[:k].tobytes()


_any_float = st.one_of(
    st.floats(width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1.7976931348623157e308, 5e-324]),
)


@given(
    st.lists(_any_float, min_size=1, max_size=40),
    st.lists(_any_float, min_size=1, max_size=40),
    st.booleans(),
)
def test_finiteness_check_is_exact_and_silent(re, im, is_complex):
    import warnings

    # complex(a, b) keeps each part as drawn, where a + 1j*b would mix them
    arr = np.array([complex(a, b) for a, b in zip(re, im)]) if is_complex else np.array(re)
    finite = bool(np.isfinite(arr).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            vector(arr)
        else:
            with pytest.raises(ValueError, match="finite"):
                vector(arr)


def test_standard_basis_is_shared_and_its_cache_bounded(monkeypatch):
    from ineq import space

    cache = space._BASIS_CACHE
    cache.clear()
    try:
        fam = standard_basis(FieldTag.COMPLEX, 5, 2)
        assert standard_basis(FieldTag.COMPLEX, 5, 2) is fam
        assert standard_basis(FieldTag.REAL, 5, 2) is not fam
        assert standard_basis("complex", 5, 2) is fam  # a name shares the tag's entry
        assert standard_basis("Real", 5, 2) is standard_basis(FieldTag.REAL, 5, 2)
        assert cache.total == 20
        monkeypatch.setattr(cache, "budget", 30)
        big = standard_basis(FieldTag.REAL, 4, 4)  # 36 > 30: the oldest goes
        assert list(cache) == [(FieldTag.REAL, 5, 2), (FieldTag.REAL, 4, 4)]
        assert cache.total == 26
        assert standard_basis(FieldTag.REAL, 4, 4) is big
        assert standard_basis(FieldTag.REAL, 40, 1).dim == 40  # above the bound: not held
        assert len(cache) == cache.total == 0
    finally:
        cache.clear()


@given(
    st.integers(1, 16).flatmap(
        lambda n: st.tuples(
            st.lists(finite_any, min_size=n, max_size=n),
            st.lists(finite_any, min_size=n, max_size=n),
        )
    )
)
def test_sq_norm_is_vdot_and_norm_is_its_root_in_range(parts):
    # sq_norm keeps vdot's bits, NaN too (numpy's complex vdot overflows into NaN); norm is
    # its square root where that is a normal float, and a hypot over the float view elsewhere
    seq = coefficients([complex(a, b) for a, b in zip(*parts)], FieldTag.COMPLEX)
    real = coefficients(parts[0], FieldTag.REAL)
    for s in (seq, real):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            sq = float(np.vdot(s.entries, s.entries).real)
        assert s.sq_norm == sq or s.sq_norm != s.sq_norm and sq != sq
        root = math.sqrt(sq)
        if not 2.0**-511 <= root < np.inf:
            root = math.hypot(*s.entries.view(np.float64).tolist())
        assert s.norm == root


def test_norms_past_the_square_range_are_finite_and_exact():
    # the squares overflow (or a complex vdot overflows into NaN) or underflow; the norms do not
    with np.errstate(over="ignore", invalid="ignore"):
        assert coefficients([1e160 + 1e160j]).norm == math.hypot(1e160, 1e160)
        assert coefficients([1e160j, 0.5]).norm == 1e160
        assert norm(vector([3 * 2.0**600, 4 * 2.0**600])) == 5 * 2.0**600
    assert coefficients([3 * 2.0**-600, -4 * 2.0**-600]).norm == 5 * 2.0**-600
    assert norm(vector([3j * 2.0**-600, 4 * 2.0**-600])) == 5 * 2.0**-600
    assert norm(vector([5e-324])) == 5e-324


# Evaluators read finiteness off the reduction that consumes an intermediate:
# a norm or an inner product that reads a NaN or infinite entry is not finite.

_partner_float = st.one_of(st.just(0.0), st.just(-0.0), finite_any)
_bad_entry = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _array_with_bad_entry(draw):
    """(arr, partner): arr with a NaN or +/-inf in one part of one entry, any position,
    and a finite partner of its length that may hold zeros."""
    n = draw(st.integers(1, 24))
    is_complex = draw(st.booleans())
    parts = 2 if is_complex else 1
    values = draw(st.lists(_partner_float, min_size=n * parts, max_size=n * parts))
    values[draw(st.integers(0, n * parts - 1))] = draw(_bad_entry)
    partner = draw(st.lists(_partner_float, min_size=n * parts, max_size=n * parts))
    dtype = np.complex128 if is_complex else np.float64
    as_array = lambda v: np.array(v, dtype=np.float64).view(dtype)  # noqa: E731
    return as_array(values), as_array(partner)


@given(_array_with_bad_entry())
def test_a_reduction_that_reads_a_non_finite_entry_is_not_finite(case):
    from ineq.space import _array_norm, _checked_norm, _vdot

    arr, partner = case
    with np.errstate(all="ignore"):
        assert not np.isfinite(_array_norm(arr))
        for ip in (_vdot(arr, partner), _vdot(partner, arr)):
            assert not np.isfinite(ip)
        with pytest.raises(ValueError, match=r"^entries must be finite \(no NaN/Inf\)$"):
            _checked_norm(arr)


@np.errstate(over="ignore")
def test_a_checked_norm_of_finite_entries_is_inf_only_past_the_float_max():
    from ineq.space import _checked_norm

    assert _checked_norm(np.array([1e200, 1e200])) == math.hypot(1e200, 1e200)
    assert _checked_norm(np.array([1e200 + 1e200j])) == math.hypot(1e200, 1e200)
    # 2.1e308 is not a float: inf, and no ValueError, since every entry is finite
    assert _checked_norm(np.array([1.5e308, 1.5e308])) == np.inf
    assert _checked_norm(np.array([1.5e308 + 1.5e308j])) == np.inf


def test_a_vector_norm_is_computed_once(monkeypatch):
    from ineq import space

    calls = []
    real_norm = space._array_norm
    monkeypatch.setattr(space, "_array_norm", lambda arr: calls.append(arr) or real_norm(arr))
    v = vector([3.0, 4.0])
    assert norm(v) == norm(v) == 5.0 and len(calls) == 1
    # a sampler hands over the norm it took of the same array
    w = Vector._computed(np.array([3.0, 4.0]), FieldTag.REAL, 5.0)
    assert norm(w) == 5.0 and len(calls) == 1


def test_a_computed_coefficient_sequence_reads_finiteness_off_its_square_norm():
    from ineq import CoefficientSequence

    with np.errstate(over="ignore"):
        big = CoefficientSequence._computed(np.array([1e200, 1e200]), FieldTag.REAL)
        assert big.sq_norm == np.inf and big.norm == math.hypot(1e200, 1e200)
    for bad in (np.array([np.inf, 1.0]), np.array([np.nan + 0j]), np.array([1.0, -np.inf * 1j])):
        field = FieldTag.COMPLEX if bad.dtype.kind == "c" else FieldTag.REAL
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            CoefficientSequence._computed(bad, field)
    seq = CoefficientSequence._computed(np.array([3.0, 4.0]), FieldTag.REAL)
    assert seq.norm == 5.0 and not seq.entries.flags.writeable
