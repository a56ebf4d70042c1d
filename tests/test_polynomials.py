"""The Gauss-Legendre rule of `polynomials`: 40-digit and mpmath oracles, symmetry, a pin."""

import hashlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ineq import build_domain
from ineq.polynomials import (
    _BESSEL_SERIES,
    _J0_ZEROS,
    _RECURRENCE_MAX_NODES,
    _bessel_j01,
    _gauss_legendre,
)


def _decimal_gauss_legendre(n, ks=None):
    """40-digit Gauss-Legendre nodes and weights: Newton on the recurrence in Decimal.

    Nodes k of `ks` (1 is the smallest), or every node."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for k in range(1, n + 1) if ks is None else ks:
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


def _assert_matches_oracle(x, w, want_x, want_w):
    for got, want in zip(x, want_x):
        if abs(want) < Decimal("1e-30"):  # the middle root of an odd rule
            assert got == 0.0
        else:
            ulp = np.spacing(abs(float(want)))
            assert abs(Decimal(float(got)) - want) <= 2 * Decimal(float(ulp)), (got, want)
    for got, want in zip(w, want_w):
        assert abs(Decimal(float(got)) - want) <= Decimal("1e-12") * want, (got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 64, 65])
def test_gauss_rule_matches_40_digit_oracle(n):
    x, w = _gauss_legendre(n)
    _assert_matches_oracle(x, w, *_decimal_gauss_legendre(n))


@pytest.mark.parametrize("n", [_RECURRENCE_MAX_NODES + 1, 256, 1024, 2048])
def test_asymptotic_gauss_rule_matches_40_digit_oracle(n):
    # nodes 1..12 cross from the Bessel-function expansion to the Stieltjes
    # one; then the middle three, and a few between
    mid = (n + 1) // 2
    ks = sorted({*range(1, 13), 20, n // 8, n // 4, n // 3, mid - 1, mid, mid + 1})
    x, w = _gauss_legendre(n)
    _assert_matches_oracle(x[[k - 1 for k in ks]], w[[k - 1 for k in ks]],
                           *_decimal_gauss_legendre(n, ks))


#: sha256 over the node and weight bytes of `_gauss_legendre(n)` for n = 2..64,
#: from the recurrence, and 256, 1024 and 2048, from the asymptotic expansions,
#: in that order.
GAUSS_RULES_SHA256 = "cbf343743f78e6ebfb4e0a24561965a3d4c9a800a0220c60684192ac712b484b"


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


def test_bessel_j01_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 40.0, 801)[1:]])
    j0, j1 = _bessel_j01(x)
    assert (j0[0], j1[0]) == (1.0, 0.0)
    with mpmath.workdps(30):
        for xi, got0, got1 in zip(x, j0, j1):
            assert abs(got0 - float(mpmath.besselj(0, xi))) <= 4e-16, xi
            assert abs(got1 - float(mpmath.besselj(1, xi))) <= 4e-16, xi
        assert _J0_ZEROS == tuple(float(mpmath.besseljzero(0, k)) for k in range(1, 11))


@pytest.mark.parametrize("n", [_RECURRENCE_MAX_NODES + 1, 200])
def test_bessel_expansion_matches_mpmath_legendre(n):
    # P_n(cos t) against (t / sin t)^(1/2) F(t) of `_boundary_roots`, with the
    # series' own coefficients, out to past the last boundary node
    mpmath = pytest.importorskip("mpmath")
    a, b = _BESSEL_SERIES
    with mpmath.workdps(40):
        rho = mpmath.mpf(n) + 0.5
        for t in np.linspace(0.02, 31.0 / (n + 0.5), 12):
            t = mpmath.mpf(t)
            big_a = sum(c * t ** (2 * j) / rho ** (2 * m)
                        for m, row in enumerate(a) for j, c in enumerate(row))
            big_b = sum(c * t ** (2 * j) / rho ** (2 * m + 1)
                        for m, row in enumerate(b) for j, c in enumerate(row))
            f = mpmath.besselj(0, rho * t) * big_a + t * mpmath.besselj(1, rho * t) * big_b
            got = mpmath.sqrt(t / mpmath.sin(t)) * f
            assert abs(got - mpmath.legendre(n, mpmath.cos(t))) <= 1e-17, t


def test_build_domain_maps_the_gauss_rule_onto_the_interval():
    t, wt = _gauss_legendre(7)
    dom = build_domain((2.0, 5.0), n=7)
    np.testing.assert_array_equal(dom.nodes, 3.5 + 1.5 * t)
    assert dom.raw_mass == pytest.approx(3.0, rel=1e-15)
    np.testing.assert_allclose(dom.weights, wt / 2.0, rtol=1e-15)
