"""Admissibility conditions: ball and real-part forms, degeneracy guards."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
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
    norm,
    standard_basis,
    two_sided_ball,
    two_sided_realpart,
    vector,
)
from ineq import conditions
from ineq.conditions import _coefficient_pair

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


def _magnitudes(top: int):
    """Zero, and floats from 1e-320 to 10**top of either sign, spread evenly over the exponents."""
    return st.one_of(
        st.just(0.0),
        st.builds(lambda m, e, sign: sign * m * 10.0**e,
                  st.floats(1.0, 10.0), st.integers(-320, top - 1), st.sampled_from([1.0, -1.0])),
    )


# A complex part stops at 1e307: Python's abs of a complex whose modulus passes the float
# max raises OverflowError, so ScalarPair has no verdict there.
_scalar = st.one_of(_magnitudes(308), st.builds(complex, _magnitudes(307), _magnitudes(307)))


@st.composite
def _scalar_pairs(draw):
    lo = draw(_scalar)
    near = st.floats(-1e-11, 1e-11).map(lambda t: lo * (1 + t))
    hi = draw(st.one_of(_scalar, st.just(lo), st.just(-lo), near, near.map(lambda v: -v)))
    return lo, hi


@given(_scalar_pairs())
@example((1e-150, 1.0000000000015948e-150))  # |hi - lo|^2 is subnormal: 2.5e-324 rounds to 5e-324
@example((1e154, 2e154))  # |hi + lo|^2 overflows and |hi - lo|^2 does not
@example((1e308, 1.5e308))  # |lo| + |hi| overflows
def test_scalar_and_coefficient_pairs_share_one_degeneracy_rule(pair):
    # real pairs agree exactly; a complex magnitude is a hypot for the scalar pair and
    # sqrt(re^2 + im^2) for the sequence, which may differ by an ulp at the cutoff
    lo, hi = pair
    tag = FieldTag.COMPLEX if complex in (type(lo), type(hi)) else FieldTag.REAL
    if tag is FieldTag.COMPLEX:
        rel = conditions.PAIR_DEGENERACY_REL
        cutoff = rel * abs(lo) + rel * abs(hi)
        assume(all(abs(abs(d) - cutoff) > math.ulp(cutoff) for d in (hi - lo, hi + lo)))
    fam = standard_basis(tag, 1)
    try:
        with np.errstate(over="ignore"):  # hi -/+ lo and the square sums may overflow
            conditions._coefficient_pair(fam, coefficients([lo], tag), coefficients([hi], tag))
    except DegeneratePairError:
        degenerate = True
    else:
        degenerate = False
    assert ScalarPair(lo, hi).is_degenerate() is degenerate


def _applies_the_pair_rule(node: ast.AST) -> bool:
    """Whether node reads PAIR_DEGENERACY_REL or raises DegeneratePairError."""
    if isinstance(node, ast.Name) and node.id == "PAIR_DEGENERACY_REL":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "PAIR_DEGENERACY_REL":
        return True
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "PAIR_DEGENERACY_REL" for alias in node.names)
    if isinstance(node, ast.Raise) and node.exc is not None:
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(raised, (ast.Name, ast.Attribute)) and (
            getattr(raised, "id", None) == "DegeneratePairError"
            or getattr(raised, "attr", None) == "DegeneratePairError"
        )
    return False


def _reads_the_float_range(node: ast.AST) -> bool:
    """Whether node reads sys.float_info or calls math.hypot (or imports either by name)."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("float_info", "hypot")
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in ("float_info", "hypot") for alias in node.names)
    return False


@np.errstate(over="ignore")  # the square sums overflow on purpose
def test_overflowing_coefficient_pair_is_not_degenerate():
    # both square sums overflow, yet G is 1e10 times g: not degenerate, as the scalar
    # pair (1e150, 1e160) is not, and the two norms are exact
    fam = standard_basis(FieldTag.REAL, 3, 1)
    pair = _coefficient_pair(fam, coefficients([1e150]), coefficients([1e160]))
    assert pair == (1e160 - 1e150, 1e160 + 1e150)
    with pytest.raises(DegeneratePairError):  # G = g
        _coefficient_pair(fam, coefficients([1e160]), coefficients([1e160]))


@np.errstate(over="ignore")
def test_coefficient_pair_past_the_square_range_is_not_degenerate():
    # |G+g|^2 = 9e308 overflows and |G-g|^2 = 1e308 does not: the pair is not degenerate,
    # as the scalar pair is not, and its norms are exact
    fam = standard_basis(FieldTag.REAL, 3, 1)
    assert not ScalarPair(1e154, 2e154).is_degenerate()
    assert _coefficient_pair(fam, coefficients([1e154]), coefficients([2e154])) == (1e154, 3e154)


def test_only_space_knows_the_float_range():
    package = Path(conditions.__file__).parent
    offenders = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.name != "space.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_the_float_range(node)
    )
    assert offenders == []


#: numpy names whose sums go through BLAS (or, for convolve, a kernel of numpy's own).
_BLAS_NAMES = ("vdot", "dot", "matmul", "inner", "convolve", "linalg")


def _blas_sums(tree: ast.AST, scope: str = "") -> list:
    """(scope, line) of each BLAS-backed sum in tree: np.vdot, np.dot, .dot(, @, np.matmul,
    np.inner, np.convolve, np.linalg, or one of those names imported from numpy."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _blas_sums(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot"
            or isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            and node.attr in _BLAS_NAMES
        ):
            found.append((scope, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [
                (scope, node.lineno) for alias in node.names
                if alias.name in _BLAS_NAMES or "linalg" in node.module
            ]
        found += _blas_sums(node, scope)
    return found


def test_only_space_forms_a_blas_sum():
    # the BLAS sums behind reported values sit in one module, whose order ROADMAP item 3
    # fixes; integral._poly_mul's np.convolve is the one other sum until then
    package = Path(conditions.__file__).parent
    offenders = sorted(
        f"{path.name}:{line} ({scope})"
        for path in package.glob("*.py")
        if path.name != "space.py"
        for scope, line in _blas_sums(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, scope) != ("integral.py", "_poly_mul")
    )
    assert offenders == []


def test_the_blas_sum_finder_sees_every_form():
    source = (
        "import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import inner\n"
        "def f(a, b):\n    a @= b\n    return a @ b, a.dot(b), np.vdot(a, b), np.linalg.norm(a)\n"
        "@staticmethod\ndef g(a):\n    return np.matmul(a, a), np.convolve(a, a), np.inner(a, a)\n"
    )
    lines = sorted(line for _, line in _blas_sums(ast.parse(source)))
    assert lines == [2, 3, 5, 6, 6, 6, 6, 9, 9, 9]


def _slack_deciders(tree: ast.AST, scope: str = "") -> list:
    """The dotted names of the functions and classes in tree that read leq_with_slack."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _slack_deciders(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if (isinstance(node, ast.Name) and node.id == "leq_with_slack") or (
            isinstance(node, ast.Attribute) and node.attr == "leq_with_slack"
        ):
            found.append(scope or "<module>")
        found += _slack_deciders(node, scope)
    return found


def test_only_tally_add_decides_a_comparison():
    package = Path(conditions.__file__).parent
    deciders = sorted(
        f"{path.name}:{name}"
        for path in package.glob("*.py")
        for name in _slack_deciders(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert deciders == ["tally.py:_Tally.add"]


def test_only_tally_spells_a_report_float_or_bool():
    # `tally` owns the report's texts: the 17-digit float slot and the JSON bools
    package = Path(conditions.__file__).parent
    offenders = sorted(
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in package.glob("*.py")
        if path.name != "tally.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and (".17g" in node.value or node.value in ("true", "false"))
    )
    assert offenders == []


def test_only_conditions_applies_the_pair_degeneracy_rule():
    package = Path(conditions.__file__).parent
    offenders = sorted(
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        if path.name != "conditions.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _applies_the_pair_rule(node)
    )
    assert offenders == []


@np.errstate(over="ignore")  # the square sums overflow on purpose
def test_infinite_distance_fails_even_when_tol_overflows():
    # entries past 1.3e154 once made norms, and so margins and tol, overflow; the norms
    # are finite now, and so are margin and tol, which rejects the far point
    far, lam = vector([0.0]), ScalarPair(0.5e10, 1.5e10)
    rep = two_sided_ball(far, vector([1e150]), lam)  # mid*y = 1e160, radius 0.5e160
    assert not rep.holds and rep.margin == -0.5e160 and rep.tol == pytest.approx(1.5e151)
    rep = in_closed_ball(vector([1e160]), vector([-1e160]), 1.0)
    assert not rep.holds and rep.margin == 1.0 - 2e160 and rep.tol == pytest.approx(2e151)
    fam = standard_basis(FieldTag.REAL, 1)
    rep = family_two_sided(vector([-1e160]), fam, coefficients([1e150]), coefficients([3e150]))
    assert not rep.holds and rep.margin == pytest.approx(-1e160) and rep.tol == pytest.approx(1e151)
    near = in_closed_ball(vector([1e160]), vector([1e160]), 1.0)
    assert near.holds and near.margin == 1.0 and near.tol == pytest.approx(2e151)
    # a distance past the float max is inf, so the margin is -inf, and the scale
    # 1 + ||x|| + ||c|| + r overflows too: tol = inf once let -inf >= -inf hold
    big = vector([1.5e308, 1.5e308])  # ||big|| = 2.1e308 is not a float
    reports = [
        in_closed_ball(big, vector([-1e307, -1e307]), 1.0),
        two_sided_ball(vector([-0.7e308, -0.7e308]), vector([1e308, 1e308]), ScalarPair(0.5, 1.5)),
        family_two_sided(
            vector([-0.85e308, -0.85e308]), standard_basis(FieldTag.REAL, 2),
            coefficients([0.9e308, 0.9e308]), coefficients([0.8e308, 0.8e308]),
        ),
    ]
    for rep in reports:
        assert rep.margin == -np.inf and rep.tol == np.inf and not rep.holds
    # an overflowed scale forgives no finite negative margin (tol = inf once let -1e307
    # hold), and a nonnegative margin still holds
    rep = in_closed_ball(big, vector([1.5e308, 1.4e308]), 1.0)
    assert rep.margin == pytest.approx(-1e307) and rep.tol == np.inf and not rep.holds
    rep = in_closed_ball(big, big, 1.0)
    assert rep.margin == 1.0 and rep.tol == np.inf and rep.holds


@np.errstate(over="ignore")  # the square sums overflow on purpose; the norms do not
def test_a_ball_whose_radius_and_distance_pass_the_square_range_is_exact():
    # mid = 1, radius 0.5 |3 - (-1)| 1e160 = 2e160 and ||x - mid*y|| = 2e160: both norms
    # overflowed to inf, and the margin inf - inf was NaN
    rep = two_sided_ball(vector([-1e160]), vector([1e160]), ScalarPair(-1.0, 3.0))
    assert rep.margin == 0.0 and rep.holds


@np.errstate(over="ignore")
def test_a_real_part_scale_past_the_square_range_is_inf_not_a_raise():
    # ||x|| = 1e160 is finite now; squared with ** it would raise OverflowError
    rep = two_sided_realpart(vector([1e160]), vector([1.0]), ScalarPair(1.0, 2.0))
    assert rep.margin == -np.inf and rep.tol == np.inf and not rep.holds
    fam = standard_basis(FieldTag.REAL, 1)
    rep = family_two_sided(
        vector([1e160]), fam, coefficients([1.0]), coefficients([2.0]), ConditionForm.REAL_PART
    )
    assert rep.margin == -np.inf and rep.tol == np.inf and not rep.holds
    rep = family_two_sided(
        vector([1.5]), fam, coefficients([1.0]), coefficients([1e160]), ConditionForm.REAL_PART
    )
    assert rep.margin == pytest.approx(0.5 * 1e160) and rep.tol == np.inf and rep.holds


@np.errstate(over="ignore")  # the scale's square sums overflow on purpose
def test_an_overflowed_scale_does_not_forgive_a_finite_negative_margin():
    # ||x||^2 = 1e310 overflows, so the scale, and tol with it, was inf and
    # a margin of -1e154 held; with range-safe norms the scale is 1.9e155
    rep = in_closed_ball(vector([1e155]), vector([9e154]), 1.0)
    assert not rep.holds
    assert rep.tol == pytest.approx(1e-9 * 1.9e155, rel=1e-12)
    # two_sided_ball and family_two_sided share the rule
    lam = ScalarPair(0.5e10, 1.5e10)  # mid*y = 1e155, radius 0.5e155
    assert not two_sided_ball(vector([-1e155]), vector([1e145]), lam).holds
    fam = standard_basis(FieldTag.REAL, 1)
    g, G = coefficients([9.5e154]), coefficients([9.5e154 + 2e140])
    rep = family_two_sided(vector([1e155]), fam, g, G)
    assert not rep.holds and np.isfinite(rep.tol)


@given(
    st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4),
    st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4),
    st.floats(1e-300, 1e150),
)
def test_ball_tolerance_keeps_its_bits_where_nothing_overflows(xs, cs, r):
    n = min(len(xs), len(cs))
    x, c = vector(xs[:n]), vector(cs[:n])
    rep = in_closed_ball(x, c, r)
    assert rep.tol == conditions.BOUNDARY_REL * (1.0 + norm(x) + norm(c) + r)


# The cores work on coordinate arrays and read finiteness off the norm or inner
# product that consumes an intermediate.  Where an intermediate overflows they
# raise what they raised when it was built as a checked vector.

_NOT_FINITE = (ValueError, r"^entries must be finite \(no NaN/Inf\)$")


def _overflow_cases():
    import ineq

    R, C = FieldTag.REAL, FieldTag.COMPLEX
    big, big_c = vector([1e308]), vector([1e308 + 1e308j])
    fam1, fam21 = standard_basis(R, 1), standard_basis(R, 2, 1)
    u, u_c = vector([1.0]), vector([1.0 + 0j])
    skew = ineq.gram_schmidt([vector([1.0, 1.0]), vector([1.0, -1.0])])
    pair, huge = ScalarPair(1.0, 10.0), ScalarPair(0.5, 1e200)
    return {
        # x - a
        "ball x-a": (lambda: in_closed_ball(big, -big, 1.0), _NOT_FINITE),
        "ball x-a complex": (lambda: in_closed_ball(big_c, -big_c, 1.0), _NOT_FINITE),
        # mid*y, then x - mid*y
        "two-sided ball mid*y": (
            lambda: two_sided_ball(vector([0.0]), big, ScalarPair(1e10, 3e10)), _NOT_FINITE
        ),
        "two-sided ball x-mid*y": (
            lambda: two_sided_ball(-big, big, ScalarPair(0.5, 1.5)), _NOT_FINITE
        ),
        # hi*y, hi*y - x, x - lo*y
        "realpart hi*y": (lambda: two_sided_realpart(vector([0.0]), big, pair), _NOT_FINITE),
        "realpart hi*y complex": (
            lambda: two_sided_realpart(vector([0j]), big_c, ScalarPair(1.0, 10j)), _NOT_FINITE
        ),
        "realpart hi*y-x": (
            lambda: two_sided_realpart(-big, big, ScalarPair(0.5, 1.0)), _NOT_FINITE
        ),
        "realpart x-lo*y": (
            lambda: two_sided_realpart(big, vector([-1e308]), ScalarPair(0.5, 1.0)), _NOT_FINITE
        ),
        # an overflowing intermediate is found before the scale overflows
        "realpart hi*y before the scale": (
            lambda: two_sided_realpart(vector([0.0]), vector([1e300]), huge), _NOT_FINITE
        ),
        # the family's center (gamma + Gamma)/2, and sum Gamma_i e_i - x
        "family ball center": (
            lambda: family_two_sided(
                vector([0.0]), fam1, coefficients([1e308]), coefficients([1.5e308])
            ),
            _NOT_FINITE,
        ),
        "family ball x-center": (
            lambda: family_two_sided(-big, fam1, coefficients([0.7e308]), coefficients([1e308])),
            _NOT_FINITE,
        ),
        "family realpart upper-x": (
            lambda: family_two_sided(
                -big, fam1, coefficients([0.5]), coefficients([1e308]), ConditionForm.REAL_PART
            ),
            _NOT_FINITE,
        ),
        # x + y in the triangle defect, after a condition that holds finitely
        "triangle x+y": (lambda: ineq.triangle_reverse_ball(big, big, 1.0), _NOT_FINITE),
        "triangle pair x+y": (
            lambda: ineq.triangle_reverse_pair(vector([1.5e308]), big, 0.5, 1.6), _NOT_FINITE
        ),
        "legacy triangle x+y": (
            lambda: ineq.legacy_triangle_ball(big, big, 0.5e308), _NOT_FINITE
        ),
        # the synthesized center of a Bessel or family Gruss ball
        "bessel ball x-center": (
            lambda: ineq.bessel_reverse_ball(vector([-1e308, 0.0]), fam21, coefficients([1e308]), 1.0),
            _NOT_FINITE,
        ),
        "bessel pair center": (
            lambda: ineq.bessel_reverse_pair(
                vector([0.0, 0.0]), fam21, coefficients([1e308]), coefficients([1.5e308])
            ),
            _NOT_FINITE,
        ),
        "family gruss x-center": (
            lambda: ineq.gruss_orthonormal_ball(
                vector([-1e308, 0.0]), vector([1.0, 0.0]), fam21,
                coefficients([1e308]), coefficients([1.0]), 1.0, 1.0,
            ),
            _NOT_FINITE,
        ),
        "legacy bessel x-center": (
            lambda: ineq.legacy_bessel_ball(vector([-1e308, 0.0]), fam21, coefficients([1e308]), 1.0),
            _NOT_FINITE,
        ),
        # Fourier coefficients over a family that is not the standard basis
        "bessel fourier": (
            lambda: ineq.bessel_reverse_ball(
                vector([1.7e308, 1.7e308]), skew, coefficients([1.0, 0.0]), 1.0
            ),
            _NOT_FINITE,
        ),
        # the Gruss conditions against a unit e
        "gruss pair hi*e-x": (
            lambda: ineq.gruss_pair(-big, u, u, ScalarPair(0.5, 1e308), ScalarPair(0.5, 2.0)),
            _NOT_FINITE,
        ),
        "gruss pair hi*e-x complex": (
            lambda: ineq.gruss_pair(-big_c, u_c, u_c, ScalarPair(0.5, 1e308), ScalarPair(0.5, 2.0)),
            _NOT_FINITE,
        ),
        "schwarz pair hi*y": (lambda: ineq.reverse_schwarz_pair(u, big, pair), _NOT_FINITE),
        "legacy schwarz pair hi*y": (
            lambda: ineq.legacy_schwarz_pair(u, big, pair), _NOT_FINITE
        ),
        "legacy triangle pair hi*y": (
            lambda: ineq.legacy_triangle_pair(u, big, 1.0, 10.0), _NOT_FINITE
        ),
    }


@pytest.mark.parametrize("case", sorted(_overflow_cases()))
def test_an_overflowing_intermediate_raises_what_a_checked_vector_raised(case):
    call, (exc_type, message) = _overflow_cases()[case]
    # as `ineq eval` runs them: numpy's overflow warnings are off, the error is the report
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc_type, match=message):
        call()


def test_the_realpart_scale_squares_the_product_and_never_raises():
    # the scale is 1 + ||x||^2 + (|hi| ||y||)^2, squared by *: |hi|^2 = 1e400 leaves the
    # range, the square of the product is about 1
    rep = two_sided_realpart(vector([0.0]), vector([1e-200]), ScalarPair(0.5, 1e200))
    hy = 1e200 * 1e-200
    assert rep.tol == conditions.BOUNDARY_REL * (1.0 + hy * hy)
    assert rep.holds and rep.margin == pytest.approx(-0.5e-200, rel=1e-15)
    # a product past the root of the float max squares to inf: the tol forgives nothing
    rep = two_sided_realpart(vector([0.0]), vector([1e100]), ScalarPair(0.5, 1e60))
    assert (rep.holds, rep.tol) == (False, math.inf)
    assert rep.margin == pytest.approx(-0.5e260, rel=1e-15)
