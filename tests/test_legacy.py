"""Older squared-level and restricted-hypothesis bounds."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineq import (
    FieldTag,
    PreconditionError,
    ScalarPair,
    coefficients,
    legacy_bessel_ball,
    legacy_bessel_pair,
    legacy_gruss_ball,
    legacy_gruss_pair,
    legacy_schwarz_ball,
    legacy_schwarz_pair,
    legacy_triangle_ball,
    legacy_triangle_pair,
    standard_basis,
    vector,
)
from ineq.cli import main

FAM3 = standard_basis(FieldTag.REAL, 3, 2)


class TestSchwarzBall:
    def test_worked_example(self):
        chain = legacy_schwarz_ball(vector([1, 0.5]), vector([1, 0]), 0.5)
        assert chain.labels == ("zero", "abs_gap", "real_gap", "bound")
        assert chain.values[1] == pytest.approx(0.25, abs=1e-12)
        assert chain.values[2] == pytest.approx(0.25, abs=1e-12)
        assert chain.values[3] == pytest.approx(0.3125, abs=1e-12)
        assert chain.admissibility.holds

    def test_radius_must_be_inside_center_norm(self):
        with pytest.raises(PreconditionError):
            legacy_schwarz_ball(vector([1, 0.5]), vector([1, 0]), 1.0)
        with pytest.raises(PreconditionError):
            legacy_schwarz_ball(vector([1, 0.5]), vector([1, 0]), -0.5)

    @given(st.integers(0, 2**32 - 1))
    def test_admissible_chain_is_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        a = vector(rng.uniform(-2, 2, 3))
        if a.dim and np.linalg.norm(a.coords) < 1e-6:
            a = vector([1.0, 0.0, 0.0])
        r = 0.9 * float(np.linalg.norm(a.coords)) * rng.uniform(0.1, 1.0)
        shift = rng.uniform(-1, 1, 3)
        shift *= r * rng.uniform(0, 1) / max(np.linalg.norm(shift), 1e-9)
        x = vector(a.coords + shift)
        chain = legacy_schwarz_ball(x, a, r)
        assert chain.admissibility.holds
        vals = chain.values
        assert all(u <= v + 1e-9 * (1 + abs(v)) for u, v in zip(vals, vals[1:]))


class TestSchwarzPair:
    def test_worked_example(self):
        chain = legacy_schwarz_pair(vector([2, 1]), vector([1, 1]), ScalarPair(1, 2))
        assert chain.values == pytest.approx((10.0, 10.125, 10.125), abs=1e-12)
        assert chain.additive.values == pytest.approx((0.0, 1.0, 1.125), abs=1e-12)
        # the additive chain is the headline; the links of both are asserted
        assert (chain.gap, chain.bound) == chain.additive.values[1:]
        assert [c[0] for c in chain.comparisons] == ["norm_product_sq", "real_route", "zero", "gap"]
        assert chain.admissibility.holds
        assert chain.admissibility.margin == pytest.approx(0.0, abs=1e-12)

    def test_rejects_sign_indefinite_pair(self):
        with pytest.raises(PreconditionError):
            legacy_schwarz_pair(vector([2, 1]), vector([1, 1]), ScalarPair(-1, 2))

    def test_real_route_never_exceeds_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = vector(rng.uniform(-2, 2, 3))
            y = vector(rng.uniform(-2, 2, 3))
            chain = legacy_schwarz_pair(x, y, ScalarPair(0.5, 2.0))
            assert chain.values[1] <= chain.values[2] + 1e-9 * (1 + chain.values[2])


class TestTriangleBall:
    def test_worked_example(self):
        rep = legacy_triangle_ball(vector([1, 0.5]), vector([1, 0]), 0.5)
        s = 0.75**0.5
        assert rep.defect == pytest.approx(1.25**0.5 + 1 - 4.25**0.5, abs=1e-12)
        assert rep.bound == pytest.approx(2**0.5 * 0.5 * (1 / (s * (s + 1))) ** 0.5, abs=1e-12)
        assert rep.defect <= rep.bound

    def test_rejects_negative_alignment(self):
        with pytest.raises(PreconditionError):
            legacy_triangle_ball(vector([-1, 0.1]), vector([1, 0]), 0.5)
        with pytest.raises(PreconditionError):
            legacy_triangle_ball(vector([1, 0.5]), vector([1, 0]), 2.0)


class TestTrianglePair:
    def test_worked_example(self):
        rep = legacy_triangle_pair(vector([2, 1]), vector([1, 1]), 1.0, 2.0)
        want = (2**0.5 - 1) / 2**0.25 * 3**0.5
        assert rep.defect == pytest.approx(5**0.5 + 2**0.5 - 13**0.5, abs=1e-12)
        assert rep.bound == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_scalars(self):
        with pytest.raises(PreconditionError):
            legacy_triangle_pair(vector([2, 1]), vector([1, 1]), 2.0, 1.0)
        with pytest.raises(PreconditionError):
            legacy_triangle_pair(vector([-2, 1]), vector([1, 1]), 1.0, 2.0)


class TestGrussBall:
    def test_worked_example(self):
        rep = legacy_gruss_ball(
            vector([1, 0.3]), vector([1, -0.4]), vector([1, 0]), 0.3, 0.4
        )
        assert rep.gap == pytest.approx(0.12, abs=1e-12)
        assert dict(rep.bounds)["norm_product"] == pytest.approx(
            0.12 * 1.09**0.5 * 1.16**0.5, abs=1e-10
        )
        assert rep.admissible

    def test_radii_must_be_in_open_unit_interval(self):
        x, y, e = vector([1, 0.3]), vector([1, -0.4]), vector([1, 0])
        with pytest.raises(PreconditionError):
            legacy_gruss_ball(x, y, e, 1.0, 0.4)
        with pytest.raises(PreconditionError):
            legacy_gruss_ball(x, y, e, 0.3, 0.0)


class TestGrussPair:
    def test_worked_example(self):
        rep = legacy_gruss_pair(
            vector([2, 1]),
            vector([2, -1]),
            vector([1, 0]),
            ScalarPair(1, 3),
            ScalarPair(1, 3),
        )
        assert rep.gap == pytest.approx(1.0, abs=1e-12)
        assert dict(rep.bounds)["coefficient_product"] == pytest.approx(4 / 3, abs=1e-10)
        inter = dict(rep.intermediates)
        assert inter["ratio"] == pytest.approx(0.25, abs=1e-12)
        assert inter["ratio_bound"] == pytest.approx(1 / 3, abs=1e-12)
        assert rep.admissible

    def test_ratio_suppressed_when_coefficient_product_vanishes(self):
        # x orthogonal to e: the ratio form divides by zero, so it is omitted
        rep = legacy_gruss_pair(
            vector([0, 1]),
            vector([2, -1]),
            vector([1, 0]),
            ScalarPair(1, 3),
            ScalarPair(1, 3),
        )
        assert rep.intermediates == ()
        assert dict(rep.bounds)["coefficient_product"] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_sign_indefinite_pairs(self):
        with pytest.raises(PreconditionError):
            legacy_gruss_pair(
                vector([2, 1]),
                vector([2, -1]),
                vector([1, 0]),
                ScalarPair(-1, 3),
                ScalarPair(1, 3),
            )


class TestBesselBall:
    def test_worked_example(self):
        rep = legacy_bessel_ball(
            vector([1, 1, 0.5]), FAM3, coefficients([1, 1], FieldTag.REAL), 0.5
        )
        assert rep.chain.values == pytest.approx(
            (2.25, 4 / 1.75, 4 / 1.75, 4 / 1.75), abs=1e-10
        )
        assert rep.additive_chain.values == pytest.approx(
            (0.0, 0.25, 0.25 / 1.75 * 2), abs=1e-10
        )
        assert rep.bound == pytest.approx((4 / 1.75) ** 0.5 - 2**0.5, abs=1e-10)
        assert rep.gap == pytest.approx(1.5 - 2**0.5, abs=1e-10)
        assert rep.gap <= rep.bound

    def test_scalar_bound_is_root_of_chain_tail(self):
        rep = legacy_bessel_ball(
            vector([1, 1, 0.5]), FAM3, coefficients([1, 1], FieldTag.REAL), 0.5
        )
        assert rep.bound == pytest.approx(
            rep.chain.values[-1] ** 0.5 - rep.coeff_norm, rel=1e-12
        )

    def test_requires_coefficient_mass_above_radius(self):
        x = vector([1, 1, 0.5])
        with pytest.raises(PreconditionError):
            legacy_bessel_ball(x, FAM3, coefficients([0.3, 0.4], FieldTag.REAL), 0.5)
        with pytest.raises(PreconditionError):
            legacy_bessel_ball(x, FAM3, coefficients([1, 1], FieldTag.REAL), 0.0)


class TestBesselPair:
    def test_worked_example(self):
        rep = legacy_bessel_pair(
            vector([1.5, 1.5, 0.7]),
            FAM3,
            coefficients([1, 1], FieldTag.REAL),
            coefficients([2, 2], FieldTag.REAL),
        )
        assert rep.chain.values == pytest.approx(
            (4.99, 5.0625, 5.0625, 5.0625), abs=1e-10
        )
        assert rep.additive_chain.values == pytest.approx(
            (0.0, 0.49, 0.5625), abs=1e-10
        )
        assert rep.bound == pytest.approx(5.0625**0.5 - 4.5**0.5, abs=1e-10)
        assert rep.admissibility.holds

    @pytest.mark.parametrize("small", [1e-17, 1e-9])
    def test_a_small_gamma_against_gamma_certifies_to_full_precision(self, small):
        # ||G+g|| and ||G-g|| round to the same float here, so the hypothesis and the
        # denominator are taken from the dot sum Re(G_i conj(g_i)), not from the two norms
        x = vector([0.6, 0.3])
        rep = legacy_bessel_pair(
            x, standard_basis(FieldTag.REAL, 2, 1),
            coefficients([small], FieldTag.REAL), coefficients([1.0], FieldTag.REAL),
        )
        assert rep.admissibility.holds
        G, g, c = Fraction(1), Fraction(small), Fraction(0.6)
        tail = (G + g) ** 2 / (4 * G * g) * c * c
        assert rep.chain.values[-1] == pytest.approx(float(tail), rel=1e-15, abs=0.0)
        assert rep.bound == pytest.approx(math.sqrt(tail) - 0.6, rel=1e-15, abs=0.0)

    def test_rejects_sign_indefinite_coefficient_sum(self):
        with pytest.raises(PreconditionError):
            legacy_bessel_pair(
                vector([1.5, 1.5, 0.7]),
                FAM3,
                coefficients([1, -1], FieldTag.REAL),
                coefficients([2, 2], FieldTag.REAL),
            )

    @pytest.mark.parametrize(
        "small, message",
        [
            # scaled by 2^-997, 1e-300 underflows to 0 while the sum itself is 1.0
            (1e-300, "legacy1.20 sum Re(Gamma_i * conj(gamma_i)) is 1.0, but 0 at the scale of "
                     "||G + g||; the inputs leave double precision"),
            (-1e-300, "sum Re(Gamma_i * conj(gamma_i)) must be positive, got -1.0"),
        ],
        ids=["positive", "negative"],
    )
    def test_a_positive_sum_that_underflows_once_scaled_leaves_double_precision(
        self, tmp_path, capsys, small, message
    ):
        inst = {"theorem": "legacy1.20", "field": "real", "x": [1.0, 0.0], "size": 1,
                "gammas": [small], "Gammas": [1e300]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"instances": [inst]}), encoding="utf-8")
        assert main(["eval", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"ineq: instance 0: {message}\n")
