"""Covariance-style gap bounds against a unit vector."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineq import (
    DegeneratePairError,
    NotUnitVectorError,
    ScalarPair,
    gruss_ball,
    gruss_ball_refined,
    gruss_gap,
    gruss_pair,
    gruss_pair_refined,
    vector,
)

X = vector([1, 0.3])
Y = vector([1, -0.4])
E = vector([1, 0])

finite = st.floats(-4, 4, allow_nan=False, allow_infinity=False, width=64)


def test_gap_worked_example():
    # <x,y> - <x,e><e,y> = (1 - 0.12) - 1 = -0.12, gap is its modulus
    assert gruss_gap(X, Y, E) == pytest.approx(0.12, abs=1e-12)


def test_gap_requires_unit_vector():
    with pytest.raises(NotUnitVectorError):
        gruss_gap(X, Y, vector([1, 1]))


def test_near_unit_vector_rejected_not_renormalized():
    with pytest.raises(NotUnitVectorError):
        gruss_gap(X, Y, vector([1 + 1e-6, 0]))


def test_ball_worked_example():
    rep = gruss_ball(X, Y, E, 0.3, 0.4)
    assert rep.gap == pytest.approx(0.12, abs=1e-12)
    nx, ny = 1.09**0.5, 1.16**0.5
    expected_half = 0.5 * 0.12 * (nx + 1.0) ** 0.5 * (ny + 1.0) ** 0.5
    expected_product = 0.12 * nx * ny
    labels = [label for label, _ in rep.bounds]
    assert labels == ["half_residual", "norm_product"]
    assert rep.bound_values[0] == pytest.approx(expected_half, abs=1e-10)
    assert rep.bound_values[1] == pytest.approx(expected_product, abs=1e-10)
    assert rep.admissible
    assert rep.gap <= min(rep.bound_values)


def test_ball_bounds_are_separate_certificates():
    """Neither ball bound dominates the other: at x = y = e/2 with r = 1/2 the
    half-residual form exceeds the norm-product form."""
    e = vector([1, 0])
    x = vector([0.5, 0])
    rep = gruss_ball(x, x, e, 0.5, 0.5)
    assert rep.admissible
    assert rep.bound_values[0] > rep.bound_values[1]
    assert rep.gap <= rep.bound_values[1] + 1e-12


def test_ball_refined_worked_example():
    rep = gruss_ball_refined(X, Y, E, 0.3, 0.4)
    assert rep.bound_values[0] == pytest.approx(
        0.12 * 1.0225**0.5 * 1.04**0.5, abs=1e-10
    )
    inter = dict(rep.intermediates)
    assert inter["residual_sq_x"] == pytest.approx(0.09, abs=1e-12)
    assert inter["residual_sq_y"] == pytest.approx(0.16, abs=1e-12)
    assert inter["residual_sq_x"] <= inter["residual_sq_x_bound"] + 1e-12
    assert inter["residual_sq_y"] <= inter["residual_sq_y_bound"] + 1e-12


def test_ball_refined_orthogonal_equality_case():
    # x orthogonal to e with ||x|| = 1 and r = sqrt 2: residual bound is exact
    x = vector([0, 1])
    rep = gruss_ball_refined(x, x, vector([1, 0]), 2**0.5, 2**0.5)
    inter = dict(rep.intermediates)
    assert inter["residual_sq_x"] == pytest.approx(1.0, abs=1e-12)
    assert inter["residual_sq_x_bound"] == pytest.approx(1.0, abs=1e-12)


def test_pair_worked_example():
    x = vector([2, 1])
    y = vector([2, -1])
    e = vector([1, 0])
    rep = gruss_pair(x, y, e, ScalarPair(1, 3), ScalarPair(1, 3))
    assert rep.gap == pytest.approx(1.0, abs=1e-12)
    assert rep.bound_values[0] == pytest.approx((5**0.5 + 2) / 4, abs=1e-10)
    assert rep.bound_values[1] == pytest.approx(0.5 * 5**0.5, abs=1e-10)
    assert rep.admissible
    # both admissibility margins sit exactly on the boundary here
    for cond in rep.admissibility:
        assert cond.margin == pytest.approx(0.0, abs=1e-12)


def test_pair_bounds_are_ordered():
    x = vector([2, 1])
    y = vector([2, -1])
    rep = gruss_pair(x, y, vector([1, 0]), ScalarPair(1, 3), ScalarPair(1, 3))
    assert rep.bound_values[0] <= rep.bound_values[1] + 1e-12
    (l0, v0), (l1, v1) = rep.bounds
    assert rep.comparisons[-1] == (l0, v0, l1, v1)
    assert rep.bound == v1


def test_pair_refined_worked_example():
    x = vector([2, 1])
    y = vector([2, -1])
    rep = gruss_pair_refined(x, y, vector([1, 0]), ScalarPair(1, 3), ScalarPair(1, 3))
    assert rep.bound_values[0] == pytest.approx(1.0625, abs=1e-10)
    inter = dict(rep.intermediates)
    # residual check: ||x||^2 - |<x,e>|^2 = 1 <= 0.5 c (|<x,e>| + c/8) = 1.0625
    assert inter["residual_sq_x"] == pytest.approx(1.0, abs=1e-12)
    assert inter["residual_sq_x_bound"] == pytest.approx(1.0625, abs=1e-10)


def test_pair_degenerate_scalars_rejected():
    with pytest.raises(DegeneratePairError):
        gruss_pair(X, Y, E, ScalarPair(2, 2), ScalarPair(1, 3))
    with pytest.raises(DegeneratePairError):
        gruss_pair(X, Y, E, ScalarPair(1, 3), ScalarPair(-1, 1))


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
)
def test_gap_is_symmetric_in_modulus(xs, ys):
    e = vector([1, 0, 0])
    assert gruss_gap(vector(xs), vector(ys), e) == pytest.approx(
        gruss_gap(vector(ys), vector(xs), e), abs=1e-10
    )


@given(
    st.lists(finite, min_size=2, max_size=4),
    st.lists(finite, min_size=2, max_size=4),
)
def test_squared_level_residual_ordering(xs, ys):
    """(||x|| + |<x,e>|)(||y|| + |<y,e>|) <= 4 ||x|| ||y|| is the Cauchy-Schwarz
    fact behind comparing the two ball bounds at squared level."""
    if len(xs) != len(ys):
        ys = (ys + ys)[: len(xs)]
    dim = len(xs)
    e = vector([1.0] + [0.0] * (dim - 1))
    x, y = vector(xs), vector(ys)
    nx, ny = float(np.linalg.norm(x.coords)), float(np.linalg.norm(y.coords))
    axe, aye = abs(x.coords[0]), abs(y.coords[0])
    assert (nx + axe) * (ny + aye) <= 4 * nx * ny + 1e-9
