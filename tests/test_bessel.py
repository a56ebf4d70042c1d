"""Coefficient-defect bounds against orthonormal families."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ineq import (
    DegeneratePairError,
    DimensionMismatchError,
    FieldTag,
    PreconditionError,
    ScalarPair,
    bessel_reverse_ball,
    bessel_reverse_pair,
    coefficients,
    gruss_orthonormal_ball,
    gruss_orthonormal_gap,
    gruss_orthonormal_pair,
    legacy_bessel_pair,
    standard_basis,
    vector,
)
from ineq.conditions import _coefficient_pair

FAM3 = standard_basis(FieldTag.REAL, 3, 2)


def test_ball_worked_example():
    rep = bessel_reverse_ball(
        vector([1, 1, 0.5]), FAM3, coefficients([1, 1], FieldTag.REAL), 0.5
    )
    assert rep.norm_x == pytest.approx(1.5, abs=1e-12)
    assert rep.coeff_norm == pytest.approx(2**0.5, abs=1e-12)
    assert rep.gap == pytest.approx(1.5 - 2**0.5, abs=1e-10)
    assert rep.bound == pytest.approx(0.125 / 2**0.5, abs=1e-10)
    assert rep.admissibility.holds
    assert rep.admissibility.margin == pytest.approx(0.0, abs=1e-12)


def test_ball_additive_chain_worked_example():
    rep = bessel_reverse_ball(
        vector([1, 1, 0.5]), FAM3, coefficients([1, 1], FieldTag.REAL), 0.5
    )
    vals = rep.additive_chain.values
    assert vals[1] == pytest.approx(0.25, abs=1e-12)
    assert vals[2] == pytest.approx(0.5 * 0.25 * (1.5 + 2**0.5) / 2**0.5, abs=1e-10)
    assert vals[3] == pytest.approx(0.25 * 1.5 / 2**0.5, abs=1e-10)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_pair_worked_example():
    rep = bessel_reverse_pair(
        vector([1.5, 1.5, 0.7]),
        FAM3,
        coefficients([1, 1], FieldTag.REAL),
        coefficients([2, 2], FieldTag.REAL),
    )
    assert rep.gap == pytest.approx(4.99**0.5 - 4.5**0.5, abs=1e-10)
    assert rep.bound == pytest.approx(0.25 * 2 / 18**0.5, abs=1e-10)
    vals = rep.additive_chain.values
    assert vals[1] == pytest.approx(0.49, abs=1e-12)
    assert vals[2] == pytest.approx(
        0.25 * (2 / 18**0.5) * (4.99**0.5 + 4.5**0.5), abs=1e-10
    )
    assert vals[3] == pytest.approx(0.5 * (2 / 18**0.5) * 4.99**0.5, abs=1e-10)


def test_pair_admissibility_margin_matches_family_ball():
    # residual (0,0,0.7) against radius 0.5*sqrt(2): margin ~ 0.00711
    rep = bessel_reverse_pair(
        vector([1.5, 1.5, 0.7]),
        FAM3,
        coefficients([1, 1], FieldTag.REAL),
        coefficients([2, 2], FieldTag.REAL),
    )
    assert rep.admissibility.holds
    assert rep.admissibility.margin == pytest.approx(0.5 * 2**0.5 - 0.7, abs=1e-10)


def test_pair_reduces_to_ball_at_midpoint():
    """The two-sided family hypothesis is the ball hypothesis at the midpoint
    sequence with radius half the coefficient spread; bounds coincide."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = vector(rng.uniform(-2, 2, 4))
        fam = standard_basis(FieldTag.REAL, 4, 3)
        lo = rng.uniform(-2, 2, 3)
        hi = lo + rng.uniform(0.2, 2, 3)
        pair_rep = bessel_reverse_pair(
            x, fam, coefficients(lo, FieldTag.REAL), coefficients(hi, FieldTag.REAL)
        )
        mid = coefficients(0.5 * (lo + hi), FieldTag.REAL)
        r = 0.5 * float(np.linalg.norm(hi - lo))
        ball_rep = bessel_reverse_ball(x, fam, mid, r)
        assert pair_rep.bound == pytest.approx(ball_rep.bound, rel=1e-12)
        assert pair_rep.gap == pytest.approx(ball_rep.gap, rel=1e-12)
        assert pair_rep.admissibility.margin == pytest.approx(
            ball_rep.admissibility.margin, abs=1e-12
        )


def test_orthonormal_gap_worked_example():
    x = vector([1, 0, 0.3])
    y = vector([0, 1, 0.4])
    assert gruss_orthonormal_gap(x, y, FAM3) == pytest.approx(0.12, abs=1e-12)


def test_orthonormal_ball_worked_example():
    x = vector([1, 0, 0.3])
    y = vector([0, 1, 0.4])
    rep = gruss_orthonormal_ball(
        x,
        y,
        FAM3,
        coefficients([1, 0], FieldTag.REAL),
        coefficients([0, 1], FieldTag.REAL),
        0.3,
        0.4,
    )
    nx, ny = 1.09**0.5, 1.16**0.5
    assert rep.gap == pytest.approx(0.12, abs=1e-12)
    assert rep.bound_values[0] == pytest.approx(
        0.5 * 0.12 * (nx + 1) ** 0.5 * (ny + 1) ** 0.5, abs=1e-10
    )
    assert rep.bound_values[1] == pytest.approx(0.12 * (nx * ny) ** 0.5, abs=1e-10)
    assert rep.admissible


def test_orthonormal_pair_worked_example():
    rep = gruss_orthonormal_pair(
        vector([1.5, 1.5, 0.7]),
        vector([1.5, 1.5, -0.7]),
        FAM3,
        coefficients([1, 1], FieldTag.REAL),
        coefficients([2, 2], FieldTag.REAL),
        coefficients([1, 1], FieldTag.REAL),
        coefficients([2, 2], FieldTag.REAL),
    )
    assert rep.gap == pytest.approx(0.49, abs=1e-12)
    assert rep.bound_values[0] == pytest.approx(
        0.25 * (2 / 18**0.5) * (4.99**0.5 + 4.5**0.5), abs=1e-10
    )
    assert rep.bound_values[1] == pytest.approx(
        0.5 * (2 / 18**0.5) * 4.99**0.5, abs=1e-10
    )
    assert rep.admissible


@given(st.integers(0, 2**32 - 1))
def test_orthonormal_bounds_are_ordered(seed):
    # residual route <= norm route: follows from the coefficient-norm bound
    rng = np.random.default_rng(seed)
    fam = standard_basis(FieldTag.REAL, 4, 2)
    x = vector(rng.uniform(-2, 2, 4))
    y = vector(rng.uniform(-2, 2, 4))
    lam = coefficients(rng.uniform(0.1, 2, 2), FieldTag.REAL)
    mu = coefficients(rng.uniform(0.1, 2, 2), FieldTag.REAL)
    rep = gruss_orthonormal_ball(x, y, fam, lam, mu, 0.5, 0.5)
    assert rep.bound_values[0] <= rep.bound_values[1] + 1e-9


def test_degenerate_sequence_pairs_rejected():
    x = vector([1, 1, 0.5])
    g = coefficients([1, 1], FieldTag.REAL)
    with pytest.raises(DegeneratePairError):
        bessel_reverse_pair(x, FAM3, g, g)
    with pytest.raises(DegeneratePairError):
        bessel_reverse_pair(x, FAM3, g, coefficients([-1, -1], FieldTag.REAL))


def test_ball_preconditions():
    x = vector([1, 1, 0.5])
    lam = coefficients([1, 1], FieldTag.REAL)
    with pytest.raises(PreconditionError):
        bessel_reverse_ball(x, FAM3, lam, 0.0)
    with pytest.raises(PreconditionError):
        bessel_reverse_ball(x, FAM3, coefficients([0, 0], FieldTag.REAL), 0.5)


#: The operations that take a coefficient pair, called on (x, fam, gammas, Gammas).
_SEQUENCE_PAIR_OPS = {
    "bessel_reverse_pair": bessel_reverse_pair,
    "legacy_bessel_pair": legacy_bessel_pair,
    "gruss_orthonormal_pair (x pair)": lambda x, fam, g, G: gruss_orthonormal_pair(
        x, x, fam, g, G, coefficients([1.0] * len(g)), coefficients([2.0] * len(g))
    ),
    "gruss_orthonormal_pair (y pair)": lambda x, fam, g, G: gruss_orthonormal_pair(
        x, x, fam, coefficients([1.0] * len(g)), coefficients([2.0] * len(g)), g, G
    ),
}


@pytest.mark.parametrize("op", sorted(_SEQUENCE_PAIR_OPS))
def test_underflowing_coefficient_pair_is_degenerate(op):
    # the squared cutoff underflows to 0 here, so it once divided by zero
    fam = standard_basis(FieldTag.REAL, 3, 1)
    g, G = coefficients([1e-160]), coefficients([-1e-160])
    with pytest.raises(DegeneratePairError, match="coefficient sequences are degenerate"):
        _SEQUENCE_PAIR_OPS[op](vector([1.0, 0.5, 0.25]), fam, g, G)


@pytest.mark.parametrize("op", sorted(_SEQUENCE_PAIR_OPS))
def test_coefficient_pair_shapes_are_checked_before_degeneracy(op):
    g, G = coefficients([0.5, 0.5]), coefficients([0.5, 0.5, 0.5])
    with pytest.raises(DimensionMismatchError, match="^sequence lengths differ: 2 vs 3$"):
        _SEQUENCE_PAIR_OPS[op](vector([1.0, 0.5, 0.25]), FAM3, g, G)


def test_overflowing_coefficient_pair_is_not_degenerate():
    # both squared sums and the mass overflow, yet G is 1e10 times g: not degenerate,
    # as the scalar pair (1e150, 1e160) is not
    fam = standard_basis(FieldTag.REAL, 3, 1)
    assert _coefficient_pair(fam, coefficients([1e150]), coefficients([1e160])) == (np.inf, np.inf)
    with pytest.raises(DegeneratePairError):  # finite diff: within the capped cutoff
        _coefficient_pair(fam, coefficients([1e160]), coefficients([1e160]))


def test_coefficient_pair_past_the_square_range_is_rejected():
    # the documented limit: |G+g|^2 and the mass overflow, |G-g|^2 = 1e308 does not, so the
    # pair falls under the capped cutoff although the scalar pair is far from degenerate
    fam = standard_basis(FieldTag.REAL, 3, 1)
    assert not ScalarPair(1e154, 2e154).is_degenerate()
    with pytest.raises(DegeneratePairError, match="coefficient sequences are degenerate"):
        _coefficient_pair(fam, coefficients([1e154]), coefficients([2e154]))


_tiny = st.one_of(
    st.just(0.0),
    st.floats(-1e-150, 1e-150, allow_subnormal=True),
    st.floats(-5e-324, 5e-324),
    st.floats(-10.0, 10.0),
)
_tiny_entry = {
    FieldTag.REAL: _tiny,
    FieldTag.COMPLEX: st.one_of(_tiny, st.builds(complex, _tiny, _tiny)),
}


@st.composite
def _coefficient_pairs(draw):
    tag = draw(st.sampled_from(FieldTag))
    size = draw(st.integers(1, 3))
    seqs = [
        coefficients(draw(st.lists(_tiny_entry[tag], min_size=size, max_size=size)), tag)
        for _ in range(4)
    ]
    return standard_basis(tag, 3, size), seqs


def _accepts(fam, g, G):
    try:
        _coefficient_pair(fam, g, G)
    except (DegeneratePairError, PreconditionError):  # degenerate, or its sums underflow
        return False
    return True


@given(_coefficient_pairs())
def test_accepted_coefficient_pairs_never_divide_by_zero(case):
    fam, (g, G, p, P) = case
    assume(_accepts(fam, g, G))
    x = vector(np.array([1e-160, -0.5, 2.0], dtype=fam.field.dtype))
    y = vector(np.array([0.25, 1e-300, -1.0], dtype=fam.field.dtype))
    assert bessel_reverse_pair(x, fam, g, G).bound > 0
    try:
        legacy_bessel_pair(x, fam, g, G)
    except PreconditionError:  # sum Re(Gamma_i conj(gamma_i)) <= 0
        pass
    pairs = [(g, G, g, G)] + [(g, G, p, P)] * _accepts(fam, p, P)
    for pair in pairs:
        # the factor is a ratio of positive sums, so no bound may come back as 0
        rep = gruss_orthonormal_pair(x, y, fam, *pair)
        assert all(value > 0 for _, value in rep.bounds), rep.bounds


def test_gruss_factor_survives_an_underflowing_product():
    # sum|G-g|^2 = 4e-200 for both pairs: their product underflows to 0, the factor is 1e-100
    fam = standard_basis(FieldTag.REAL, 3, 1)
    g, G = coefficients([1e-100]), coefficients([3e-100])
    x, y = vector([1.0, 0.5, 0.25]), vector([0.5, 1.0, 2.0])
    rep = gruss_orthonormal_pair(x, y, fam, g, G, g, G)
    nx, ny = float(np.linalg.norm(x.coords)), float(np.linalg.norm(y.coords))
    assert rep.bounds[1][1] == pytest.approx(0.5e-100 * (nx * ny) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("op", sorted(_SEQUENCE_PAIR_OPS))
def test_coefficient_pair_with_subnormal_sums_is_rejected(op):
    # not degenerate, but sum|G-g|^2 = 4e-320 keeps a dozen bits: no bound is built on it
    fam = standard_basis(FieldTag.REAL, 3, 1)
    g, G = coefficients([1e-160]), coefficients([3e-160])
    assert not ScalarPair(1e-160, 3e-160).is_degenerate()
    with pytest.raises(PreconditionError, match=r"^coefficient sequences underflow: .* = 4e-320, "):
        _SEQUENCE_PAIR_OPS[op](vector([1.0, 0.5, 0.25]), fam, g, G)


def test_an_overflowing_complex_pair_equal_to_itself_is_degenerate():
    # sq_norm once came out NaN here, so the pair rule's cutoff was NaN and
    # Gamma = gamma passed with bound NaN and admissible True
    fam = standard_basis(FieldTag.COMPLEX, 1)
    g = coefficients([1e160 + 1e160j])
    with np.errstate(over="ignore"), pytest.raises(DegeneratePairError):
        bessel_reverse_pair(vector([1e160 + 1e160j]), fam, g, g)


_COMPLEX_PAIR_OPS = {
    "bessel_reverse_pair": bessel_reverse_pair,
    "legacy_bessel_pair": legacy_bessel_pair,
    "gruss_orthonormal_pair (x pair)": lambda x, fam, g, G: gruss_orthonormal_pair(
        x, x, fam, g, G, coefficients([1.0 + 0j]), coefficients([2.0 + 0j])
    ),
    "gruss_orthonormal_pair (y pair)": lambda x, fam, g, G: gruss_orthonormal_pair(
        x, x, fam, coefficients([1.0 + 0j]), coefficients([2.0 + 0j]), g, G
    ),
}


@pytest.mark.parametrize("op", sorted(_COMPLEX_PAIR_OPS))
def test_a_complex_pair_whose_square_sums_overflow_into_nan_is_rejected(op):
    # numpy's complex vdot overflows into NaN past about 1e154, so sum|G -/+ g|^2 were
    # NaN, the pair passed the rule, and bessel_reverse_pair gave margin and bound NaN
    fam = standard_basis(FieldTag.COMPLEX, 1)
    g, G = coefficients([1e160 + 1e160j]), coefficients([3e160j])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        PreconditionError, match=r"^coefficient sequences overflow: sum\|Gamma -/\+ gamma\|\^2 = nan, nan$"
    ):
        _COMPLEX_PAIR_OPS[op](vector([1e159 + 2e159j]), fam, g, G)


def test_a_complex_pair_past_1e154_is_named_by_eval(tmp_path, capsys):
    import json

    from ineq.cli import main

    doc = {"instances": [{
        "theorem": "thm5.2", "field": "complex", "x": [{"re": 1e159, "im": 2e159}], "size": 1,
        "gammas": [{"re": 1e160, "im": 1e160}], "Gammas": [{"re": 0.0, "im": 3e160}],
    }]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "ineq: instance 0: coefficient sequences overflow: sum|Gamma -/+ gamma|^2 = nan, nan\n"
    )


def test_overflowing_pair_products_keep_the_gruss_factor_finite():
    # sum|G - g|^2 = 4e200 for both pairs: the product of the two sums
    # overflows, and the factor is the split (4e200)^(1/2) (4e200)^(1/2) over
    # (1.6e201)^(1/4) (1.6e201)^(1/4), i.e. 1e100
    from ineq.bessel import _root_product

    factor = _root_product(4e200, 4e200, 0.5) / _root_product(1.6e201, 1.6e201, 0.25)
    assert factor == pytest.approx(1e100, rel=1e-12)
    fam = standard_basis(FieldTag.REAL, 1)
    g, G = coefficients([1e100]), coefficients([3e100])
    rep = gruss_orthonormal_pair(vector([2e100]), vector([2e100]), fam, g, G, g, G)
    assert rep.admissible
    assert all(np.isfinite(bound) for _, bound in rep.bounds)
    # in range, the product is taken whole, as before
    assert _root_product(2.0, 8.0, 0.5) == 16.0 ** 0.5
    assert _root_product(3e100, 5e100, 0.25) == (3e100 * 5e100) ** 0.25
