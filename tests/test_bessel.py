"""Coefficient-defect bounds against orthonormal families."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
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
from ineq.gruss import GrussReport

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


def _accepts(x, fam, g, G):
    """Whether the coefficient-pair rule accepts (g, G), as `bessel_reverse_pair` applies it."""
    try:
        bessel_reverse_pair(x, fam, g, G)
    except DegeneratePairError:
        return False
    return True


def _exact_square_sums(g, G):
    """(sum|G_i - g_i|^2, sum|G_i + g_i|^2) of the entries, as exact Fractions."""
    parts = [
        (Fraction(a.real), Fraction(a.imag), Fraction(b.real), Fraction(b.imag))
        for a, b in zip(map(complex, g.entries.tolist()), map(complex, G.entries.tolist()))
    ]
    diff = sum((B - A) ** 2 + (Bi - Ai) ** 2 for A, Ai, B, Bi in parts)
    summ = sum((B + A) ** 2 + (Bi + Ai) ** 2 for A, Ai, B, Bi in parts)
    return diff, summ


def _exact_real_sum(g, G):
    """sum Re(G_i conj(g_i)) of the entries, as an exact Fraction."""
    return sum(
        Fraction(a.real) * Fraction(b.real) + Fraction(a.imag) * Fraction(b.imag)
        for a, b in zip(map(complex, g.entries.tolist()), map(complex, G.entries.tolist()))
    )


def _real_pair_case(gammas, Gammas):
    g, G = coefficients(gammas, FieldTag.REAL), coefficients(Gammas, FieldTag.REAL)
    return standard_basis(FieldTag.REAL, 3, len(gammas)), [g, G, g, G]


#: An exact value at least this far above 0 does not round to 0 (2**-1074 is the least float).
_ABOVE_UNDERFLOW = Fraction(2) ** -1060


@given(_coefficient_pairs())
# the float sum Re(Gamma_i conj(gamma_i)) is 5e-324, but its factor is about 5e322
@example(_real_pair_case([0.0, 5e-324], [0.0, 1.0]))
# the float sum is 0.0, and the exact one, about 2.5e-647, is positive
@example(_real_pair_case([0.0, 5e-324], [7.0e-151, 5e-324]))
def test_accepted_coefficient_pairs_never_divide_by_zero(case):
    # no accepted pair, down to subnormal entries, divides by zero, and a bound is 0
    # only where its exact value, a ratio of positive sums, underflows; legacy1.20
    # refuses a pair only as its exact sum Re(Gamma_i conj(gamma_i)) says
    fam, (g, G, p, P) = case
    x = vector(np.array([1e-160, -0.5, 2.0], dtype=fam.field.dtype))
    y = vector(np.array([0.25, 1e-300, -1.0], dtype=fam.field.dtype))
    assume(_accepts(x, fam, g, G))
    d, s = _exact_square_sums(g, G)
    bound = bessel_reverse_pair(x, fam, g, G).bound  # d / (4 s^(1/2))
    assert bound > 0 or d * d < 16 * s * _ABOVE_UNDERFLOW**2, (bound, d, s)
    real_sum = _exact_real_sum(g, G)
    try:
        legacy_bessel_pair(x, fam, g, G)
    except PreconditionError:  # the hypothesis fails
        assert real_sum <= 0, real_sum
    except ZeroDivisionError:  # the factor s / (4 real_sum) leaves double precision
        assert 0 < real_sum and s > 4 * real_sum * Fraction(2) ** 1024, (real_sum, s)
    pairs = [(g, G, g, G)] + [(g, G, p, P)] * _accepts(x, fam, p, P)
    for pair in pairs:
        # each bound is at least 1/8 of the factor (d_x d_y)^(1/2) / (s_x s_y)^(1/4)
        rep = gruss_orthonormal_pair(x, y, fam, *pair)
        (dx, sx), (dy, sy) = _exact_square_sums(*pair[:2]), _exact_square_sums(*pair[2:])
        above = dx * dx * dy * dy >= sx * sy * _ABOVE_UNDERFLOW**4
        assert all(value > 0 or not above for _, value in rep.bounds), rep.bounds


def test_gruss_factor_survives_an_underflowing_product():
    # sum|G-g|^2 = 4e-200 for both pairs: their product underflows to 0, the factor is 1e-100
    fam = standard_basis(FieldTag.REAL, 3, 1)
    g, G = coefficients([1e-100]), coefficients([3e-100])
    x, y = vector([1.0, 0.5, 0.25]), vector([0.5, 1.0, 2.0])
    rep = gruss_orthonormal_pair(x, y, fam, g, G, g, G)
    nx, ny = float(np.linalg.norm(x.coords)), float(np.linalg.norm(y.coords))
    assert rep.bounds[1][1] == pytest.approx(0.5e-100 * (nx * ny) ** 0.5, rel=1e-12)


#: For x = (1, 0.5, 0.25), e_1 and gamma = [1e-160], Gamma = [3e-160] (||G-g|| = 2e-160,
#: ||G+g|| = 4e-160), each operation's values and the exact values they stand for.  A Gruss
#: operation pairs them with (1, 2) on the other side, whose factor is 3^(-1/2).
_NX = 1.3125**0.5
_SUBNORMAL_SUMS_EXPECTED = {
    "bessel_reverse_pair": lambda rep: [
        (rep.bound, 0.25 * 2e-160 * 0.5),
        (rep.gap, _NX - 1.0),
        (rep.margin, 1e-160 - _NX),
    ],
    # 4 sum Re(G conj(g)) / ||G+g||^2 = 3/4, so the chain is ||x||^2 <= 4/3 <= 4/3 <= 4/3
    "legacy_bessel_pair": lambda rep: [
        *zip(rep.chain.values, (1.3125, 4 / 3, 4 / 3, 4 / 3)),
        *zip(rep.additive_chain.values[1:], (0.3125, 1 / 3)),
        (rep.margin, 1e-160 - _NX),
    ],
    "gruss_orthonormal_pair (x pair)": lambda rep: [
        (rep.bound_values[0], 0.25 * 1e-80 / 3**0.5 * (_NX + 1.0)),
        (rep.bound_values[1], 0.5 * 1e-80 / 3**0.5 * _NX),
    ],
}
_SUBNORMAL_SUMS_EXPECTED["gruss_orthonormal_pair (y pair)"] = _SUBNORMAL_SUMS_EXPECTED[
    "gruss_orthonormal_pair (x pair)"
]


@pytest.mark.parametrize("op", sorted(_SEQUENCE_PAIR_OPS))
def test_coefficient_pair_with_subnormal_sums_gives_accurate_values(op):
    # not degenerate, and sum|G-g|^2 = 4e-320 would keep a dozen bits; the norms keep all 53
    fam = standard_basis(FieldTag.REAL, 3, 1)
    g, G = coefficients([1e-160]), coefficients([3e-160])
    assert not ScalarPair(1e-160, 3e-160).is_degenerate()
    rep = _SEQUENCE_PAIR_OPS[op](vector([1.0, 0.5, 0.25]), fam, g, G)
    for value, exact in _SUBNORMAL_SUMS_EXPECTED[op](rep):
        assert value == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_ball_bounds_with_lambda_and_r_near_1e160_are_finite(field):
    # r^2 and sum|lambda|^2 leave the range (a complex one as NaN); the bounds do not
    fam, dt = standard_basis(field, 2, 1), field.dtype
    with np.errstate(over="ignore"):
        lam = coefficients(np.array([1e160], dtype=dt))
        x = vector(np.array([1e160, 0.5e160], dtype=dt))
        rep = bessel_reverse_ball(x, fam, lam, 1e160)
    # r^2 / (2 ||lambda||), with x at 0.5e160 from the center
    assert rep.bound == 0.5e160 and rep.admissible
    # thm6.1's denominator (||lambda|| ||mu||)^(1/2) = 1e160, from norms whose squares
    # leave the range
    y = vector(np.array([2.0, 0.0], dtype=dt))
    with np.errstate(over="ignore"):
        rep = gruss_orthonormal_ball(y, y, fam, lam, lam, 1.0, 1.0)
    # 1/2 r1 r2 (||y|| + 2)^(1/2) (||y|| + 2)^(1/2) / 1e160
    assert rep.bounds[0][1] == pytest.approx(0.5 * 4.0 / 1e160, rel=1e-15, abs=0.0)


def test_an_overflowing_complex_pair_equal_to_itself_is_degenerate():
    # a sequence's square norm (a complex vdot) once came out NaN here, so the pair
    # rule's cutoff was NaN and Gamma = gamma passed with bound NaN and admissible True
    fam = standard_basis(FieldTag.COMPLEX, 1)
    with np.errstate(over="ignore"), pytest.raises(DegeneratePairError):
        g = coefficients([1e160 + 1e160j])
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


def _reported_values(rep):
    """Every value a report states: margin, gap, bound and both sides of each comparison."""
    values = [rep.margin, rep.gap, rep.bound]
    for _, lhs, _, rhs in rep.comparisons:
        values += [lhs, rhs]
    return values


@pytest.mark.parametrize("op", sorted(_COMPLEX_PAIR_OPS))
def test_a_complex_pair_whose_square_sums_overflow_into_nan_gives_finite_values(op):
    # numpy's complex vdot overflows into NaN past about 1e154, so sum|G -/+ g|^2 were NaN;
    # the norms ||G-g|| = 5^(1/2) 1e160 and ||G+g|| = 17^(1/2) 1e160 are not, and every
    # value is finite where ||x||^2 = 5e280 is
    fam = standard_basis(FieldTag.COMPLEX, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        g, G = coefficients([1e160 + 1e160j]), coefficients([3e160j])
        rep = _COMPLEX_PAIR_OPS[op](vector([1e140 + 2e140j]), fam, g, G)
    assert all(np.isfinite(_reported_values(rep))), _reported_values(rep)
    # radius ||G-g|| / 2, and the center (0.5 + 2j) 1e160 lies 4.25^(1/2) 1e160 from x, to 1e-19
    if isinstance(rep, GrussReport):
        report = rep.admissibility[1 if op.endswith("(y pair)") else 0]
    else:
        report = rep.admissibility
    assert report.margin == pytest.approx((0.5 * 5**0.5 - 4.25**0.5) * 1e160, rel=1e-14)
    if op == "bessel_reverse_pair":
        assert rep.bound == pytest.approx(0.25 * 5 / 17**0.5 * 1e160, rel=1e-15)


def _eval_stderr(tmp_path, capsys, instance):
    import json

    from ineq.cli import main

    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"instances": [instance]}), encoding="utf-8")
    rc = main(["eval", "--input", str(path)])
    return rc, capsys.readouterr().err


def test_a_complex_pair_past_1e154_is_named_by_eval(tmp_path, capsys):
    pair = {"gammas": [{"re": 1e160, "im": 1e160}], "Gammas": [{"re": 0.0, "im": 3e160}]}
    inst = {"theorem": "thm5.2", "field": "complex", "size": 1, **pair}
    # where ||x||^2 is in range, the pair's report is finite and held
    assert _eval_stderr(tmp_path, capsys, dict(inst, x=[{"re": 1e140, "im": 2e140}])) == (0, "")
    # past it, what overflows is ||x||^2 - sum|<x,e_i>|^2, and eval names it
    assert _eval_stderr(tmp_path, capsys, dict(inst, x=[{"re": 1e159, "im": 2e159}])) == (
        2, "ineq: instance 0: thm5.2 residual_sq is nan; the inputs leave double precision\n"
    )


@np.errstate(over="ignore")
def test_a_real_pair_whose_square_sums_overflow_gives_a_finite_bessel_bound(tmp_path, capsys):
    # sum|G-g|^2 = 4e320 and sum|G+g|^2 = 1.6e321 both overflowed, and margin, gap and
    # bound were NaN; in norms the bound is 0.25 (2e160)^2 / 4e160 = 2.5e159
    fam = standard_basis(FieldTag.REAL, 1)
    g, G = coefficients([1e160]), coefficients([3e160])
    rep = bessel_reverse_pair(vector([1e159]), fam, g, G)
    assert rep.bound == pytest.approx(2.5e159, rel=1e-15)
    assert rep.gap == 0.0
    assert rep.margin == pytest.approx(1e160 - 1.9e160, rel=1e-15)
    # what is left out of range is ||x||^2 = 1e318 in the squared chains, and eval says so:
    # thm5.2 names residual_sq, and legacy1.20's Re(m)^2 overflows as legacy1.18's does
    inst = {"field": "real", "x": [1e159], "size": 1, "gammas": [1e160], "Gammas": [3e160]}
    assert _eval_stderr(tmp_path, capsys, dict(inst, theorem="thm5.2")) == (
        2, "ineq: instance 0: thm5.2 residual_sq is nan; the inputs leave double precision\n"
    )
    assert _eval_stderr(tmp_path, capsys, dict(inst, theorem="legacy1.20")) == (
        2,
        "ineq: instance 0: legacy1.20 (34, 'Numerical result out of range'); "
        "the inputs leave double precision\n",
    )


def test_overflowing_pair_products_keep_the_gruss_factor_finite():
    # sum|G - g|^2 = 4e200 for both pairs: the product of the two sums overflowed; one
    # pair at a time the factor is (2e100 / (4e100)^(1/2))^2 = 1e100, and with
    # ||x|| = ||y|| = |<x,e>| = |<y,e>| = 2e100 both bounds are 1e200
    fam = standard_basis(FieldTag.REAL, 1)
    g, G = coefficients([1e100]), coefficients([3e100])
    rep = gruss_orthonormal_pair(vector([2e100]), vector([2e100]), fam, g, G, g, G)
    assert rep.admissible
    assert rep.bound_values == pytest.approx((1e200, 1e200), rel=1e-14)
