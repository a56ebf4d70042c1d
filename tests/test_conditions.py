"""Admissibility conditions: ball and real-part forms, degeneracy guards."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineq import (
    ConditionForm,
    DegeneratePairError,
    FieldMismatchError,
    FieldTag,
    PreconditionError,
    ScalarPair,
    coefficients,
    family_two_sided,
    in_closed_ball,
    standard_basis,
    two_sided_ball,
    two_sided_realpart,
    vector,
)

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64)


def test_ball_boundary_instance_holds_with_zero_margin():
    rep = in_closed_ball(vector([1, 0.5]), vector([1, 0]), 0.5)
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    assert rep.form is ConditionForm.BALL


def test_ball_requires_positive_radius():
    with pytest.raises(PreconditionError):
        in_closed_ball(vector([1, 0]), vector([1, 0]), 0.0)


def test_realpart_failing_instance():
    # Re<2y - x, x - y> at x=(3,3), y=(1,1) expands to <(-1,-1),(2,2)> = -4
    rep = two_sided_realpart(vector([3, 3]), vector([1, 1]), ScalarPair(1, 2))
    assert not rep.holds
    assert rep.margin == pytest.approx(-4.0, abs=1e-12)
    assert rep.form is ConditionForm.REAL_PART


def test_realpart_boundary_instance():
    rep = two_sided_realpart(vector([2, 1]), vector([1, 1]), ScalarPair(1, 2))
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_ball_form_of_two_sided_condition():
    ok = two_sided_ball(vector([2, 1]), vector([1, 1]), ScalarPair(1, 2))
    assert ok.holds and ok.margin == pytest.approx(0.0, abs=1e-12)
    bad = two_sided_ball(vector([3, 3]), vector([1, 1]), ScalarPair(1, 2))
    assert not bad.holds
    assert bad.margin == pytest.approx(-(2**0.5), abs=1e-12)


def test_family_condition_ball_margin():
    fam = standard_basis(FieldTag.REAL, 3, 2)
    x = vector([1.5, 1.5, 0.7])
    gammas = coefficients([1, 1], FieldTag.REAL)
    Gammas = coefficients([2, 2], FieldTag.REAL)
    rep = family_two_sided(x, fam, gammas, Gammas)
    assert rep.holds
    assert rep.margin == pytest.approx(0.5 * 2**0.5 - 0.7, abs=1e-12)

    worse = family_two_sided(vector([1.5, 1.5, 1.0]), fam, gammas, Gammas)
    assert not worse.holds


def test_family_condition_accepts_form_names():
    fam = standard_basis(FieldTag.REAL, 2, 2)
    x = vector([1.5, 1.5])
    g = coefficients([1, 1], FieldTag.REAL)
    G = coefficients([2, 2], FieldTag.REAL)
    a = family_two_sided(x, fam, g, G, form="realpart")
    b = family_two_sided(x, fam, g, G, form=ConditionForm.REAL_PART)
    assert a.form is b.form is ConditionForm.REAL_PART
    assert a.margin == b.margin


def test_scalar_pair_accessors():
    pair = ScalarPair(1, 2)
    assert pair.diff == pytest.approx(1.0)
    assert pair.summ == pytest.approx(3.0)
    assert pair.mid == pytest.approx(1.5)


def test_scalar_pair_degeneracy():
    with pytest.raises(DegeneratePairError):
        ScalarPair(1.0, 1.0).require_nondegenerate()
    with pytest.raises(DegeneratePairError):
        ScalarPair(-2.0, 2.0).require_nondegenerate()
    ScalarPair(1.0, 2.0).require_nondegenerate()  # fine


def test_scalar_pair_complex_over_real_rejected():
    with pytest.raises(FieldMismatchError):
        ScalarPair(1j, 2).coerced(FieldTag.REAL)
    lo, hi = ScalarPair(1, 2).coerced(FieldTag.REAL)
    assert (lo, hi) == (1.0, 2.0)


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    finite,
    finite,
)
def test_ball_and_realpart_forms_agree_outside_band(xs, ys, lo, hi):
    """The two renderings of the two-sided condition vanish together, so their
    verdicts agree whenever the margin is not within rounding of zero."""
    x, y = vector(xs), vector(ys)
    pair = ScalarPair(lo, hi)
    ball = two_sided_ball(x, y, pair)
    real = two_sided_realpart(x, y, pair)
    if abs(ball.margin) > 10 * ball.tol and abs(real.margin) > 10 * real.tol:
        assert ball.holds == real.holds


def test_reports_carry_tolerance_scale():
    rep = in_closed_ball(vector([100.0, 0.0]), vector([100.0, 0.0]), 1e-3)
    assert rep.tol > 1e-9  # scaled by instance magnitude, not absolute
    assert rep.holds


@pytest.mark.parametrize("lo, hi", [(5e-324, -5e-324), (5e-324, 5e-324), (0.0, 0.0), (-0.0, 0.0)])
def test_subnormal_and_zero_pairs_are_degenerate(lo, hi):
    pair = ScalarPair(lo, hi)
    assert pair.is_degenerate()
    with pytest.raises(DegeneratePairError):
        pair.require_nondegenerate()


def test_subnormal_pair_far_from_degenerate_is_not():
    assert not ScalarPair(5e-324, 1e-320).is_degenerate()
