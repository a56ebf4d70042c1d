"""Polynomial kernels of `integral`: Horner's rule and Gauss-Legendre rules.

`_horner` is numpy's polyval, bit for bit, over rows.  `_gauss_legendre(n)`,
for `integral.build_domain`, returns the n nodes and weights on [-1, 1].  Up to
`_RECURRENCE_MAX_NODES` nodes it runs Newton's method on the three-term
recurrence, O(n^2) time.  Above, it takes each node and weight from an
asymptotic expansion of P_n(cos t), with one Newton step, O(n) time (Hale and
Townsend, "Fast and accurate computation of Gauss-Legendre and Gauss-Jacobi
quadrature nodes and weights", SIAM J. Sci. Comput. 35 (2013)): the
Stieltjes expansion inside, and a Bessel-function expansion for the
len(_J0_ZEROS) nodes nearest each end, where the Stieltjes one diverges.
Every operation is elementwise numpy or a reduction along one axis, never
BLAS, and the only transcendental functions are numpy's sin and cos, whose
bits did not move with numpy's AVX2 and AVX-512 paths switched off (those of
its tan, arcsin and exp did), so a rule's bits follow neither the BLAS
kernel nor the vector units numpy picks.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def _horner(c: np.ndarray, s, s_complex: Optional[np.ndarray] = None):
    """numpy's polyval(s, c) for a float or complex c, bit for bit.

    c[k] is the k-th coefficient: a scalar for a 1-D c, or, as in polyval's
    tensor form, an array broadcasting against s; coefficients of shape
    (L, B, 1) against n nodes give B rows of n values.  polyval starts from
    c[-1] + s*0 and builds a new array c[k] + c0*s per coefficient; here c0
    is updated in place.  For complex c every step is a complex multiply by s
    cast to complex128, which polyval casts anew each step and this casts
    once (or takes as `s_complex`).
    """
    c0 = c[-1] + s * 0
    if c.dtype.kind == "c" and len(c) > 1:
        s = np.asarray(s, dtype=np.complex128) if s_complex is None else s_complex
    for k in range(len(c) - 2, -1, -1):
        c0 *= s
        c0 += c[k]
    return c0


#: Up to this many nodes, `_gauss_legendre` runs Newton's method on the
#: three-term recurrence, in O(n^2) time; above it, it takes every node and
#: weight from asymptotic expansions, in O(n) time.  The default 64-node
#: domain, and so every sampled instance, keeps the recurrence's bits.
_RECURRENCE_MAX_NODES = 64

#: Newton on the Tricomi guesses takes 4 steps for n <= 88 and 3 above
#: (checked for every n up to 2048); the cap only guarantees termination.
#: Only the recurrence, so only rules of up to `_RECURRENCE_MAX_NODES`
#: nodes, iterates to it.
_NEWTON_MAX_STEPS = 10

#: A correction no larger than this (one ulp of 1) is rounding noise: the
#: iterate it was computed at is already a root to working precision.
_NEWTON_TOL = float(np.finfo(np.float64).eps)

#: The first zeros j_{0,k} of J_0.  An asymptotic rule takes its
#: len(_J0_ZEROS) nodes nearest each end from the Bessel-function expansion,
#: starting from theta = j_{0,k} / (n + 1/2), and the rest from the
#: Stieltjes expansion, which diverges nearer the ends.
_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976,
)

#: Terms of the Stieltjes expansion.  At the first node it serves, where
#: 2 n sin(theta) is about 2 pi (len(_J0_ZEROS) + 3/4), the last term is
#: below 1e-18 of the first.
_STIELTJES_TERMS = 18


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Up to `_RECURRENCE_MAX_NODES` nodes from `_recurrence_roots`, above from
    `_boundary_roots` and `_interior_roots`.  Either way only the ceil(n/2)
    non-negative roots are computed, all at once, and the negative half is
    their exact mirror.  O(n) memory; O(n^2) time up to the threshold, and
    above it O(n) time in a number of numpy calls that does not grow with n.
    """
    m = (n + 1) // 2
    if n <= _RECURRENCE_MAX_NODES:
        x, w = _recurrence_roots(n)
    else:
        x, w = map(np.concatenate, zip(_boundary_roots(n), _interior_roots(n)))
    nodes, weights = np.empty(n), np.empty(n)
    nodes[n - m :], weights[n - m :] = x[::-1], w[::-1]
    nodes[: n - m], weights[: n - m] = -x[: n - m], w[: n - m]
    return nodes, weights


def _recurrence_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ceil(n/2) non-negative roots of P_n, descending, and their weights.

    Newton's method on the three-term recurrence, started from Tricomi's
    asymptotic guesses, until a correction is at rounding level: O(n^2) time.
    """
    m = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n, so Newton keeps it there
    # the recurrence's three buffers, written in place at every step
    p_prev, p, xp = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(_NEWTON_MAX_STEPS):
        p_prev.fill(1.0)
        np.copyto(p, x)
        for k in range(1, n):
            # Bonnet: P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}), built in p_prev.
            np.multiply(x, p, out=xp)
            np.subtract(xp, p_prev, out=p_prev)
            p_prev *= k / (k + 1)
            p_prev += xp
            p_prev, p = p, p_prev
        # (1-x)(1+x) rather than 1-x^2: no cancellation next to +-1.
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    # The last correction was at rounding level, so dp was taken at the root.
    return x, 2.0 / (one_minus_x2 * dp * dp)


def _newton_step(p, dp, cot, n: int):
    """Newton's step in t from a point within about 1e-9 (relative) of a root
    of p(t) = P_n(cos t), and the derivative p' where the step lands.

    One step lands within rounding of the root.  Legendre's equation,
    p'' = -cot(t) p' - n(n+1) p, gives the second and third derivatives at
    the point, and Taylor's theorem carries p' across the step with an error
    of order (n step)^3, so the weight 2 / p'^2 needs no second evaluation.
    p and dp may share any positive factor; the derivative returned keeps it.
    """
    step = -p / dp
    nn = n * (n + 1.0)
    d2 = -cot * dp - nn * p
    d3 = (1.0 + cot * cot - nn) * dp - cot * d2
    return step, dp + step * (d2 + 0.5 * step * d3)


def _interior_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-negative roots of P_n but the len(_J0_ZEROS) largest, descending,
    and their weights, by the Stieltjes expansion.

    With theta in (0, pi), rho = n + 1/2, v = 1/2 - (i/2) cot(theta),
    h_0 = 1 and h_m = h_{m-1} (m - 1/2)^2 / (m (n + m + 1/2)),

        P_n(cos theta) = C_n (2 sin theta)^(-1/2) Re(e^{i (rho theta - pi/4)} sum_m h_m v^m)

    with C_n = (4/pi) prod_{j<=n} j / (j + 1/2) (Szego, Orthogonal
    Polynomials, 8.21.11).  The unknown is phi = pi/2 - theta, for which
    e^{i (rho theta - pi/4)} = i^n e^{-i rho phi}: x = sin(phi) is then as
    accurate near 0 as near 1, and phi = 0 stays exact for the middle root
    of an odd rule.  Newton starts from Tricomi's guesses.
    """
    rho = n + 0.5
    k = np.arange(len(_J0_ZEROS) + 1, (n + 1) // 2 + 1)
    # Tricomi's x = sin(phi) (1 - d), to first order in d
    phi = np.pi * (n + 1.0 - 2.0 * k) / (2.0 * n + 1.0)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    d = (n - 1.0) / (8.0 * n**3) + (39.0 - 28.0 / cos_phi**2) / (384.0 * n**4)
    phi -= d * sin_phi / cos_phi
    h = [1.0]
    for m in range(1, _STIELTJES_TERMS):
        h.append(h[-1] * (m - 0.5) ** 2 / (m * (n + m + 0.5)))
    # rows: sum_m h_m v^m, and sum_m m h_m v^m for the derivative
    coeffs = np.array([[hm, m * hm] for m, hm in enumerate(h)])[:, :, None]
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    cot = sin_phi / cos_phi
    s, s1 = _horner(coeffs, 0.5 - 0.5j * cot)
    # rho phi as hi + lo: phi's leading 26 bits (Veltkamp's split) times rho,
    # whose 2n + 1 has at most 27 bits, are exact, so the phase is not rounded
    # to an ulp of rho phi, which would move a node by up to an ulp of its own
    big = phi * 134217729.0
    phi_hi = big - (big - phi)
    hi, lo = rho * phi_hi, rho * (phi - phi_hi)
    c_hi, s_hi, c_lo, s_lo = np.cos(hi), np.sin(hi), np.cos(lo), np.sin(lo)
    c, si = c_hi * c_lo - s_hi * s_lo, s_hi * c_lo + c_hi * s_lo
    if n % 2:  # i^n = +-i: Re(i (c - i si) z) = si Re z - c Im z
        c, si = si, -c
    # d/dtheta of h_m e^{i alpha_m} (2 sin theta)^(-m-1/2) is the term times
    # i (n + m + 1/2) - (m + 1/2) cot(theta)
    dz = 1j * rho * s + 1j * s1 - cot * (s1 + 0.5 * s)
    step, dp = _newton_step(c * s.real + si * s.imag, c * dz.real + si * dz.imag, cot, n)
    # C_n^2 = (4/pi) Gamma(n+1)^2 / Gamma(n+3/2)^2, and in z = n + 3/4,
    # ln(z Gamma(n+1)^2 / Gamma(n+3/2)^2) = -2/(64 z^2) + 2*5/(2048 z^4)
    # - 2*61/(49152 z^6) + 2*1385/(1048576 z^8), the next term below 1e-20 here
    z2 = 1.0 / (n + 0.75) ** 2
    log_r2 = 2.0 * z2 * (-1 / 64 + z2 * (5 / 2048 + z2 * (-61 / 49152 + z2 * 1385 / 1048576)))
    w = np.pi * (n + 0.75) * cos_phi / (math.exp(log_r2) * dp * dp)
    return np.sin(phi - step), w  # the step is in theta = pi/2 - phi


def _boundary_roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The len(_J0_ZEROS) largest roots of P_n, descending, and their weights,
    by the Bessel-function expansion, for n > `_RECURRENCE_MAX_NODES`.

    With rho = n + 1/2 and the A_m, B_m of `_bessel_series`,

        P_n(cos t) = (t / sin t)^(1/2) F(t),
        F(t) = J_0(rho t) sum_m A_m(t) / rho^(2m) + t J_1(rho t) sum_m B_m(t) / rho^(2m+1).

    Newton starts from Olver's t = psi + (psi cot(psi) - 1) / (8 psi rho^2),
    psi = j_{0,k} / rho, within 5e-10 (relative) of the root for n > 64.
    """
    rho = n + 0.5
    psi = np.array(_J0_ZEROS) / rho
    t = psi + (psi * np.cos(psi) / np.sin(psi) - 1.0) / (8.0 * psi * rho**2)
    # the coefficients in t^2 of sum_m A_m / rho^(2m) and sum_m B_m / rho^(2m+1)
    orders = _BESSEL_SERIES.shape[1]
    a, b = np.add.reduce(_BESSEL_SERIES * rho ** (-2.0 * np.arange(orders))[:, None], axis=1)
    b /= rho
    j = np.arange(1, a.size)
    # rows: A, B, A' / t and B' / t, all polynomials in t^2
    coeffs = np.stack([a, b, np.append(2 * j * a[1:], 0.0), np.append(2 * j * b[1:], 0.0)])
    big_a, big_b, da, db = _horner(coeffs.T[..., None], t * t)
    j0, j1 = _bessel_j01(rho * t)
    f = j0 * big_a + t * j1 * big_b
    # d/dt J_0(rho t) = -rho J_1(rho t) and d/dt (t J_1(rho t)) = rho t J_0(rho t)
    df = -rho * j1 * big_a + t * j0 * (da + rho * big_b) + t * t * j1 * db
    sin_t = np.sin(t)
    cot = np.cos(t) / sin_t
    # p = (t / sin t)^(1/2) F, and p' over that factor is F' + F (1/t - cot t) / 2
    step, dp = _newton_step(f, df + 0.5 * f * (1.0 / t - cot), cot, n)
    return np.cos(t + step), 2.0 * sin_t / (t * dp * dp)


def _bessel_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x) and J_1(x) for an array of 0 <= x <= 40, to about 3e-16 absolute.

    Miller's backward recurrence from index ceil(max x) + 40, normalised by
    J_0 + 2 sum_k J_2k = 1.  It runs on K_k = J_k(x) k! (2/x)^k, for which
    J_{k-1} = (2k/x) J_k - J_{k+1} reads K_{k-1} = K_k - x^2/(4k(k+1)) K_{k+1}:
    no division by x, and no overflow however small x is.
    """
    top = math.ceil(float(np.max(x))) + 40
    kk = np.arange(top, 0, -1.0)
    q = list(0.25 * x * x / (kk * (kk + 1.0))[:, None])
    table = np.zeros((top + 2, x.size))  # row i holds K_{top+1-i}
    table[1] = 1.0
    rows = list(table)
    for i in range(top):
        np.multiply(q[i], rows[i], out=rows[i + 2])
        np.subtract(rows[i + 1], rows[i + 2], out=rows[i + 2])
    # J_2k = K_2k (x/2)^2k / (2k)!, for k = 1 ... top // 2
    k = np.arange(1, top // 2 + 1)
    scale = np.cumprod(0.25 * x * x / ((2.0 * k - 1.0) * (2.0 * k))[:, None], axis=0)
    total = table[top + 1] + 2.0 * np.add.reduce(scale * table[top + 1 - 2 * k], axis=0)
    return table[top + 1] / total, 0.5 * x * table[top] / total


def _bessel_series(orders: int = 4, terms: int = 10) -> np.ndarray:
    """Taylor coefficients in t^2 of A_m(t) and B_m(t), m < orders, j < terms:
    out[0, m, j] is that of t^(2j) in A_m, and out[1, m, j] in B_m.

    They follow from Legendre's equation (Olver, Asymptotics and Special
    Functions, ch. 12).  u = (sin t)^(1/2) P_n(cos t) solves
    u'' + (rho^2 + 1/(4 t^2) + psi) u = 0, psi = 1/(4 sin^2 t) - 1/(4 t^2),
    and g = t^(1/2) J_0(rho t) solves it without psi.  Put u = a g + b g',
    a = sum_m a_m / rho^(2m) and b = sum_m b_m / rho^(2m+2); order by order,

        2 b_m' = a_m'' + psi a_m - (b_{m-1} / t)' / (2t),    b_m(0) = 0,
        2 a_{m+1}' = -(b_m'' + psi b_m),    a_{m+1}(0) = -b_m'(0) / 2,

    from a_0 = 1, the last condition so that P_n(1) = 1.  Then
    A_m = a_m + b_{m-1} / (2t) and B_m = -b_m / t.  Power series in t to
    degree 2 terms + 12 keep the first `terms` even coefficients exact to
    rounding.  t^2 / sin^2 t is the reciprocal of the series whose t^(2j)
    coefficient is (-1)^j 2^(2j+1) / (2j+2)!.
    """
    deg = 2 * terms + 12
    sin2 = [0.0] * (deg + 3)
    for j in range(deg // 2 + 2):
        sin2[2 * j] = (-1) ** j * 2.0 ** (2 * j + 1) / math.factorial(2 * j + 2)
    inv = [1.0]
    for i in range(1, deg + 3):
        inv.append(-sum(sin2[k] * inv[i - k] for k in range(1, i + 1)))
    psi = [c / 4 for c in inv[2:]]

    def times(p, q):
        return [sum(p[i] * q[d - i] for i in range(d + 1)) for d in range(deg + 1)]

    def deriv(p):
        return [(i + 1) * p[i + 1] for i in range(deg)] + [0.0]

    def integ(p, at0=0.0):
        return [at0] + [p[i] / (i + 1) for i in range(deg)]

    def over_t(p):
        return p[1:] + [0.0]

    a, b = [1.0] + [0.0] * deg, [0.0] * (deg + 1)
    out = np.empty((2, orders, terms))
    for m in range(orders):
        out[0, m] = [x + y / 2 for x, y in zip(a, over_t(b))][: 2 * terms : 2]
        rhs = zip(deriv(deriv(a)), times(psi, a), over_t(deriv(over_t(b))))
        b = integ([(x + y - z / 2) / 2 for x, y, z in rhs])
        out[1, m] = [-y for y in over_t(b)][: 2 * terms : 2]
        a = integ([-(x + y) / 2 for x, y in zip(deriv(deriv(b)), times(psi, b))], -b[1] / 2)
    return out


#: The A_m and B_m of `_boundary_roots`, as `_bessel_series` derives them.
_BESSEL_SERIES = _bessel_series()
