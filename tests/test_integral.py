"""Quadrature-discretized weighted L^2 instances."""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from ineq import (
    DimensionMismatchError,
    DiscretizedFunction,
    FieldMismatchError,
    FieldTag,
    PreconditionError,
    ScalarPair,
    build_domain,
    embedded_vector,
    inner,
    integral_gruss,
    integral_schwarz_ball,
    integral_schwarz_pair,
    integral_schwarz_range,
    integral_triangle,
    norm,
    pointwise_ball,
    pointwise_pair,
    pointwise_range,
    evaluate_instance,
    polynomial,
    sample_admissible,
    two_sided_realpart,
    vector,
)
from ineq.integral import _gauss_legendre, _horner, _poly_add, _poly_mul

from conftest import weighted_poly_inner

UNIT = build_domain((0.0, 1.0), n=16)


def test_inner_product_matches_exact_integral():
    f = UNIT.discretize(polynomial([1, 1]))
    assert UNIT.inner(f, f) == pytest.approx(7 / 3, abs=1e-14)
    assert UNIT.norm(f) == pytest.approx((7 / 3) ** 0.5, abs=1e-14)


def test_random_polynomial_inner_products_match_fraction_oracle():
    rng = np.random.default_rng(3)
    dom = build_domain((0.0, 1.0), n=64)
    for _ in range(20):
        fc = rng.integers(-3, 4, rng.integers(1, 6))
        gc = rng.integers(-3, 4, rng.integers(1, 6))
        f = dom.discretize(polynomial(fc))
        g = dom.discretize(polynomial(gc))
        want = float(weighted_poly_inner(tuple(int(c) for c in fc), tuple(int(c) for c in gc)))
        assert dom.inner(f, g) == pytest.approx(want, abs=1e-13 * (1 + abs(want)))


def test_nonuniform_weight_is_rescaled_to_unit_mass():
    dom = build_domain((0.0, 1.0), weight=lambda s: 2 * s, n=32)
    assert dom.normalization == pytest.approx(1.0, abs=1e-12)
    assert dom.raw_mass == pytest.approx(1.0, abs=1e-13)  # integral of 2s over [0,1]
    f = dom.discretize(polynomial([0, 1]))
    # int 2s * s^2 ds = 1/2
    want = float(weighted_poly_inner((0, 1), (0, 1), weight=(0, 2)))
    assert dom.inner(f, f) == pytest.approx(want, abs=1e-14)


def test_gauss_rule_is_exact_for_low_degree():
    dom = build_domain((0.0, 1.0), n=4)
    f = dom.discretize(polynomial([0, 0, 0, 1]))
    g = dom.discretize(polynomial([0, 0, 0, 0, 1]))
    assert dom.inner(f, g) == pytest.approx(1 / 8, abs=1e-15)


def test_trapezoid_error_shrinks_quadratically():
    exact = 0.25
    errs = []
    for n in (33, 65):
        dom = build_domain((0.0, 1.0), rule="trapezoid", n=n)
        f = dom.discretize(polynomial([0, 1]))
        g = dom.discretize(polynomial([0, 0, 1]))
        errs.append(abs(dom.inner(f, g) - exact))
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_build_domain_rejects_bad_input():
    with pytest.raises(PreconditionError):
        build_domain((1.0, 0.0))
    with pytest.raises(PreconditionError):
        build_domain((0.0, 1.0), n=1)
    with pytest.raises(PreconditionError):
        build_domain((0.0, 1.0), weight=lambda s: s - 0.5)
    with pytest.raises(PreconditionError):
        build_domain((0.0, 1.0), rule="simpson")
    with pytest.raises(PreconditionError):
        build_domain((0.0, 1.0), weight=lambda s: 0.0 * s)


def test_discretize_checks_length_and_default_size():
    assert UNIT.size == 16
    assert build_domain((0.0, 1.0)).size == 64
    with pytest.raises(DimensionMismatchError):
        UNIT.discretize(np.ones(7))


def test_pointwise_conditions_on_affine_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1]))
    ball = pointwise_ball(f, g, 1.0)
    assert ball.holds and 0 < ball.margin < 0.05
    pair = pointwise_pair(f, g, ScalarPair(1, 2))
    assert pair.holds and pair.margin > 0
    rng_rep = pointwise_range(f, g, 1.0, 2.0)
    assert rng_rep.holds and rng_rep.margin > 0


def test_pointwise_range_needs_real_functions():
    f = UNIT.discretize(polynomial([1, 1]), field=FieldTag.COMPLEX)
    g = UNIT.discretize(polynomial([1]), field=FieldTag.COMPLEX)
    with pytest.raises(FieldMismatchError):
        pointwise_range(f, g, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        pointwise_ball(f, g, 0.0)


def test_schwarz_ball_worked_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1]))
    chain = integral_schwarz_ball(f, g, UNIT, 1.0)
    assert chain.values[3] == pytest.approx((7 / 3) ** 0.5 - 1.5, abs=1e-12)
    assert chain.values[4] == pytest.approx(0.5, abs=1e-15)
    assert chain.admissibility.holds


def test_schwarz_pair_worked_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1]))
    chain = integral_schwarz_pair(f, g, UNIT, ScalarPair(1, 2))
    assert chain.values[3] == pytest.approx((7 / 3) ** 0.5 - 1.5, abs=1e-12)
    assert chain.values[4] == pytest.approx(1 / 12, abs=1e-15)
    assert chain.admissibility.holds


def test_schwarz_range_worked_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1]))
    chain = integral_schwarz_range(f, g, UNIT, 1.0, 2.0)
    assert chain.labels == ("zero", "abs_gap", "bound")
    assert chain.values[1] == pytest.approx((7 / 3) ** 0.5 - 1.5, abs=1e-12)
    assert chain.values[2] == pytest.approx(1 / 12, abs=1e-15)
    with pytest.raises(PreconditionError):
        integral_schwarz_range(f, g, UNIT, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        integral_schwarz_range(f, g, UNIT, -3.0, 1.0)


def test_triangle_worked_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1]))
    rep = integral_triangle(f, g, UNIT, 1.0, 2.0)
    assert rep.defect == pytest.approx((7 / 3) ** 0.5 + 1 - (19 / 3) ** 0.5, abs=1e-12)
    assert rep.bound == pytest.approx((0.5**0.5) / 3**0.5, abs=1e-12)
    assert rep.defect <= rep.bound
    with pytest.raises(PreconditionError):
        integral_triangle(f, g, UNIT, 0.0, 2.0)


def test_gruss_worked_example():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1, -1]))
    h = UNIT.discretize(polynomial([1]))
    rep = integral_gruss(f, g, h, UNIT, ScalarPair(1, 2), ScalarPair(0, 1))
    assert rep.gap == pytest.approx(1 / 12, abs=1e-12)
    factor = 0.25 / 3**0.5
    want = (
        factor
        * ((7 / 3) ** 0.5 + 1.5) ** 0.5
        * ((1 / 3) ** 0.5 + 0.5) ** 0.5
    )
    assert dict(rep.bounds)["quarter_residual"] == pytest.approx(want, abs=1e-12)
    assert rep.admissible


def test_gruss_rejects_non_unit_reference():
    f = UNIT.discretize(polynomial([1, 1]))
    g = UNIT.discretize(polynomial([1, -1]))
    h = UNIT.discretize(polynomial([2]))
    from ineq import NotUnitVectorError

    with pytest.raises(NotUnitVectorError):
        integral_gruss(f, g, h, UNIT, ScalarPair(1, 2), ScalarPair(0, 1))


def test_embedding_reproduces_inner_products():
    rng = np.random.default_rng(9)
    dom = build_domain((0.0, 1.0), weight=lambda s: 1 + s, n=24)
    for _ in range(20):
        f = dom.discretize(rng.uniform(-2, 2, dom.size))
        g = dom.discretize(rng.uniform(-2, 2, dom.size))
        vf, vg = embedded_vector(f, dom), embedded_vector(g, dom)
        assert inner(vf, vg) == pytest.approx(dom.inner(f, g), rel=1e-13, abs=1e-13)
        assert norm(vf) == pytest.approx(dom.norm(f), rel=1e-13)


def test_range_condition_implies_pair_condition():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = UNIT.discretize(1.0 + rng.uniform(0, 2) * UNIT.nodes**2)
        frac = rng.uniform(0, 1, UNIT.size)
        m, M = 0.5, 2.0
        f = UNIT.discretize((m + frac * (M - m)) * g.values)
        assert pointwise_range(f, g, m, M).holds
        assert pointwise_pair(f, g, ScalarPair(m, M)).margin >= -1e-12


def _decimal_gauss_legendre(n):
    """40-digit Gauss-Legendre nodes and weights: Newton on the recurrence in Decimal."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for k in range(1, n + 1):
            x = Decimal(-math.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
            for _ in range(100):
                p_prev, p = Decimal(1), x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                dp = n * (p_prev - x * p) / (1 - x * x)
                x -= p / dp
                if abs(p / dp) < Decimal("1e-36"):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 64, 65])
def test_gauss_rule_matches_40_digit_oracle(n):
    x, w = _gauss_legendre(n)
    want_x, want_w = _decimal_gauss_legendre(n)
    for got, want in zip(x, want_x):
        if abs(want) < Decimal("1e-30"):  # the middle root of an odd rule
            assert got == 0.0
        else:
            ulp = np.spacing(abs(float(want)))
            assert abs(Decimal(float(got)) - want) <= 2 * Decimal(float(ulp)), (got, want)
    for got, want in zip(w, want_w):
        assert abs(Decimal(float(got)) - want) <= Decimal("1e-12") * want, (got, want)


#: sha256 over the node and weight bytes of `_gauss_legendre(n)` for n = 2..64,
#: 256, 1024 and 2048, in that order, as the recurrence wrote them when it
#: allocated its arrays at every step: writing into fixed buffers moves no bit.
GAUSS_RULES_SHA256 = "c608662979db001608dea30e37bd610152b22165da85b5909c7f1214af3efbc3"


def test_gauss_rules_are_pinned():
    digest = hashlib.sha256()
    for n in [*range(2, 65), 256, 1024, 2048]:
        x, w = _gauss_legendre(n)
        digest.update(x.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest() == GAUSS_RULES_SHA256


@pytest.mark.parametrize("n", [2, 3, 64, 65, 256, 1024, 2048])
def test_gauss_rule_is_exactly_symmetric(n):
    x, w = _gauss_legendre(n)
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(w[::-1], w)
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_large_gauss_rule_matches_leggauss_and_moments(n):
    x, w = _gauss_legendre(n)
    # leggauss (a dense eigen-solve) is a comparison only: its nodes are
    # accurate, its weights are not (off by ~1e-9 relative at n = 1024).
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2.3e-16
    assert abs(np.sum(w) - 2.0) <= 1e-14
    for k in range(11):
        want = 2.0 / (2 * k + 1)
        assert abs(np.sum(w * x ** (2 * k)) - want) <= 1e-13 * want, k


def test_build_domain_maps_the_gauss_rule_onto_the_interval():
    t, wt = _gauss_legendre(7)
    dom = build_domain((2.0, 5.0), n=7)
    np.testing.assert_array_equal(dom.nodes, 3.5 + 1.5 * t)
    assert dom.raw_mass == pytest.approx(3.0, rel=1e-15)
    np.testing.assert_allclose(dom.weights, wt / 2.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# The polynomial kernels reproduce numpy.polynomial bit for bit.

_COEFF = st.floats(-1e100, 1e100, allow_nan=False, width=64)
_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _coefficients(draw, complex_ok=True):
    """1 to 8 float or complex coefficients, zeros likely, then 0 to 3 trailing zeros."""
    size = draw(st.integers(1, 8))
    re = draw(st.lists(_COEFF | _ZEROS, min_size=size, max_size=size))
    trailing = draw(st.lists(_ZEROS, max_size=3))
    if complex_ok and draw(st.booleans()):
        im = draw(st.lists(_COEFF | _ZEROS, min_size=size, max_size=size))
        return np.array([complex(a, b) for a, b in zip(re, im)] + trailing, dtype=np.complex128)
    return np.array(re + trailing, dtype=np.float64)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=150)
@given(c=_coefficients(), n=st.integers(1, 8192), seed=st.integers(0, 2**32 - 1))
@example(c=np.array([1.0, -0.0, 0.0]), n=1, seed=0)
@example(c=np.array([0j, 0j]), n=8192, seed=1)
@example(c=np.array([-0.0 - 0.0j, 2.5 - 1j, -0.0j]), n=3, seed=2)
def test_horner_is_polyval_bit_for_bit(c, n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-2.0, 2.0, n)
    s[rng.integers(0, n, 1 + n // 8)] = rng.choice([0.0, -0.0, -1.0, 1.0])
    want = npp.polyval(s, c)
    assert _same_bits(_horner(c, s), want)
    assert _same_bits(_horner(c, s, s.astype(np.complex128)), want)
    assert _same_bits(polynomial(c)(s), want)
    assert _same_bits(polynomial(c)(float(s[0])), npp.polyval(float(s[0]), c))
    # rows of coefficients: polyval's tensor form, one row of values per polynomial
    rows = np.stack([c, c[::-1], -c])
    want_rows = npp.polyval(s, rows.T)
    assert _same_bits(_horner(rows.T[..., None], s), want_rows)
    assert all(_same_bits(got, npp.polyval(s, row)) for got, row in zip(want_rows, rows))


@settings(max_examples=150)
@given(c1=_coefficients(), c2=_coefficients())
@example(c1=np.array([0.0, 0.0]), c2=np.array([-0.0]))
@example(c1=np.array([1.0, 2.0]), c2=np.array([0.0, -2.0, 0.0]))
@example(c1=np.array([1.0 + 0j, 2j]), c2=np.array([-1.0, -0.0]))
def test_poly_add_and_mul_are_polyadd_and_polymul_bit_for_bit(c1, c2):
    assert _same_bits(_poly_add(c1, c2), npp.polyadd(c1, c2))
    assert _same_bits(_poly_mul(c1, c2), npp.polymul(c1, c2))


def test_polynomial_takes_integer_coefficients_and_node_lists():
    s = [-1.0, 0.5, 3.0]
    assert _same_bits(polynomial([1, 2, 3])(s), npp.polyval(s, [1, 2, 3]))
    assert _same_bits(polynomial(np.array([True, False]))(s), npp.polyval(s, [True, False]))


#: |values| passes per report: one per decoded function, plus the |f - g| of
#: prop7.1's ball condition.
_ABS_PASSES = {"prop7.1": 3, "prop7.2": 2, "prop7.11": 2, "prop7.12": 3, "prop7.3": 3}


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("tid", sorted(_ABS_PASSES))
def test_each_function_magnitude_is_computed_once_per_report(monkeypatch, tid, field):
    inst = sample_admissible(tid, field, 1, seed=0)
    calls = []
    real_abs = np.abs

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_abs(*args, **kwargs)

    monkeypatch.setattr(np, "abs", counting)
    evaluate_instance(inst)
    assert len(calls) == _ABS_PASSES[tid], calls


def test_pointwise_pair_past_the_float_range_fails_as_its_vector_twin_does():
    # ||f||^2 = 1e320 leaves the range: the scale is inf, which forgives no negative
    # margin, where squaring by ** raised OverflowError
    f, g = UNIT.discretize(np.full(16, 1e160)), UNIT.discretize(np.ones(16))
    with np.errstate(over="ignore"):
        rep = pointwise_pair(f, g, ScalarPair(1.0, 2.0))
        twin = two_sided_realpart(vector([1e160]), vector([1.0]), ScalarPair(1.0, 2.0))
    assert (rep.holds, rep.margin, rep.tol) == (False, -math.inf, math.inf)
    assert (twin.holds, twin.margin, twin.tol) == (rep.holds, rep.margin, rep.tol)


def test_triangle_sum_that_overflows_is_rejected():
    f = UNIT.discretize(polynomial([1e308]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        integral_triangle(f, f, UNIT, 0.5, 2.0)


def test_computed_function_checks_dtype_shape_and_finiteness():
    with pytest.raises(AssertionError):
        DiscretizedFunction._computed(np.ones(4, dtype=np.complex128), FieldTag.REAL)
    with pytest.raises(AssertionError):
        DiscretizedFunction._computed(np.ones((2, 2)), FieldTag.REAL)
    with pytest.raises(ValueError, match="finite"):
        DiscretizedFunction._computed(np.array([1.0, np.inf]), FieldTag.REAL)
