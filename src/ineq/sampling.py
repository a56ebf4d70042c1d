"""Samplers: each theorem's arguments, drawn so that its hypothesis holds by construction.

A sampler is called as `sampler(rng, dim, field, adversarial)` and
returns a row, (field, record dim, args): `Vector`s, `CoefficientSequence`s,
`ScalarPair`s and floats, the `standard_basis` family for a "count",
`_default_domain()` for a "domain", and a function's polynomial
coefficients.  A point is drawn as center + scaled in-ball residual, with no
rejection against the condition itself, so instances land arbitrarily close
to the hypothesis boundary.  Drawn arrays are adopted unscanned: every
operation takes the norm of each vector it is given.  In adversarial mode
the residual is inflated far beyond the admissible limit while every scalar
precondition stays valid, so the evaluator still runs and the suite can show
that the bare inequalities fail without their hypotheses.  The registry in
`harness` binds a sampler's keyword options for each theorem.

Randomness comes from one Philox stream per theorem (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), keyed by
SeedSequence([seed, crc32(theorem)]).  Instance i reads the counter blocks
from i * 2**64 on, so it depends only on (seed, theorem, i).  Samplers read
randomness only through `rng.uniform(low, high, size)`, with numpy
`Generator` defaults for omitted arguments, and every in-ball point is drawn
by `_in_ball` (t first, then the direction).  Any object with that one
method is a draw source: a sampled instance is a function of the values it
returns, in call order.  The tests hold every sampler to this contract.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .conditions import ScalarPair
from .integral import (
    _DEFAULT_DOMAIN_KEY,
    DiscretizedFunction,
    WeightedDomain,
    _cached_domain,
    _poly_add,
    _poly_mul,
)
from .space import CoefficientSequence, FieldTag, Vector, _array_norm, _vdot, standard_basis

_RESAMPLE_CAP = 64


class _Stream:
    """A Philox generator keyed by (seed, theorem); `_rng_for` places it on an instance."""

    __slots__ = ("generator", "bits", "key")

    def __init__(self, seed: int, theorem: str):
        tag = zlib.crc32(theorem.encode("ascii"))
        self.bits = np.random.Philox(np.random.SeedSequence([int(seed), tag]))
        # the key Philox derived from the SeedSequence, read once for `_rng_for`
        self.key = tuple(int(k) for k in self.bits.state["state"]["key"])
        self.generator = np.random.Generator(self.bits)


def _rng_for(stream: _Stream, index: int) -> np.random.Generator:
    """The stream's generator, reset to instance `index`'s counter block.

    The 256-bit counter is set to index * 2**64 with an empty buffer, so
    instance i draws from blocks [i * 2**64, (i + 1) * 2**64): no rejection
    loop reaches instance i + 1, and whatever instance i - 1 drew does not
    matter.  Assigning a state built here skips the state getter.
    """
    stream.bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, index, 0, 0), "key": stream.key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return stream.generator


def _rand_coords(rng: np.random.Generator, dim: int, field: FieldTag) -> np.ndarray:
    if field is FieldTag.COMPLEX:
        # (re, im) interleaved: one draw fills the complex array
        return rng.uniform(-2.0, 2.0, 2 * dim).view(np.complex128)
    return rng.uniform(-2.0, 2.0, dim)


def _nonzero_coords(rng, dim, field) -> tuple[np.ndarray, float]:
    """(v, ||v||) for a draw v with ||v|| >= 1e-3."""
    for _ in range(_RESAMPLE_CAP):
        v = _rand_coords(rng, dim, field)
        n = _array_norm(v)
        if n >= 1e-3:
            return v, n
    v = np.zeros(dim, dtype=field.dtype)
    v[0] = 1.0
    return v, 1.0


def _unit_coords(rng, dim, field) -> np.ndarray:
    v, n = _nonzero_coords(rng, dim, field)
    return v / n


def _in_ball(rng, field, center: np.ndarray, radius: float, t: float) -> np.ndarray:
    """center + t * radius * (random unit direction), in the closed ball iff 0 <= t <= 1."""
    return center + t * radius * _unit_coords(rng, center.size, field)


def _padded(coeffs: np.ndarray, dim: int, field) -> np.ndarray:
    """sum coeffs_i e_i in dimension dim: coeffs followed by zeros."""
    center = np.zeros(dim, dtype=field.dtype)
    center[: len(coeffs)] = coeffs
    return center


def _radius(rng, lo: float = 1e-3, hi: float = 10.0) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _radius_pair(rng, adversarial: bool) -> tuple[float, float]:
    """Two ball radii, below 0.5 when adversarial so an inflated residual stays below 5.5."""
    hi = 0.5 if adversarial else 10.0
    return _radius(rng, 1e-3, hi), _radius(rng, 1e-3, hi)


def _frac(rng, adversarial: bool) -> float:
    """In-ball fraction of the sampled residual; > 1 breaks the hypothesis."""
    if adversarial:
        return 2.0 + 9.0 * float(rng.uniform())
    return float(rng.uniform(0.0, 0.999))


def _sample_seq_pair(rng, field: FieldTag, k: int, positive_sum: bool = False):
    """Sequences (lo_i), (hi_i) jointly nondegenerate, adopted with the norms taken here,
    and ||hi - lo||; optionally sum Re(hi conj(lo)) > 0."""
    for _ in range(_RESAMPLE_CAP):
        lo = _rand_coords(rng, k, field)
        hi = _rand_coords(rng, k, field)
        norm_lo, norm_hi = _array_norm(lo), _array_norm(hi)
        mass = norm_lo + norm_hi
        if mass < 1e-6:
            continue
        sep_diff = _array_norm(hi - lo)
        if sep_diff < 1e-3 * mass:
            continue
        sep_summ = _array_norm(hi + lo)
        if sep_summ < 1e-3 * mass:
            continue
        if positive_sum:
            re = _vdot(hi, lo).real
            if abs(re) < 1e-3 * norm_lo * norm_hi:
                continue
            if re < 0:
                # flips the sign of the sum; separations swap roles (hi - (-lo) is hi + lo bit for bit)
                lo, sep_diff = -lo, sep_summ
        return _seq(lo, field, norm_lo), _seq(hi, field, norm_hi), sep_diff
    lo = np.ones(k, dtype=field.dtype)
    hi = 2.5 * lo
    return _seq(lo, field), _seq(hi, field), _array_norm(hi - lo)


def _sample_pair(rng, field: FieldTag, positive_real: bool = False):
    """Scalars (lo, hi): `_sample_seq_pair`'s draws and tests at length 1, in Python scalars.

    A real draw is held as a complex with imaginary part 0, which changes no bit of
    the norms, sums and products the tests read."""
    size = 2 if field is FieldTag.COMPLEX else 1
    for _ in range(_RESAMPLE_CAP):
        lo = complex(*rng.uniform(-2.0, 2.0, size).tolist())
        hi = complex(*rng.uniform(-2.0, 2.0, size).tolist())
        norm_lo, norm_hi = _scalar_norm(lo), _scalar_norm(hi)
        mass = norm_lo + norm_hi
        if mass < 1e-6:
            continue
        if _scalar_norm(hi - lo) < 1e-3 * mass or _scalar_norm(hi + lo) < 1e-3 * mass:
            continue
        if positive_real:
            re = lo.real * hi.real + lo.imag * hi.imag
            if abs(re) < 1e-3 * norm_lo * norm_hi:
                continue
            if re < 0:
                lo = -lo
        break
    else:
        lo, hi = 1.0 + 0j, 2.5 + 0j
    return (lo.real, hi.real) if field is FieldTag.REAL else (lo, hi)


def _scalar_norm(c: complex) -> float:
    """`_array_norm` of the one-entry array [c], bit for bit; abs(c) is a hypot, which rounds
    differently."""
    return math.sqrt(c.real * c.real + c.imag * c.imag)


_vec = Vector._sampled
_seq = CoefficientSequence._computed


def _sample_ball(rng, dim, field, adversarial, restrict=False, capped=False):
    """x in the ball around a; restrict=True keeps r < ||a|| (strict form), and
    capped=True keeps Re<x,a> >= 0 when adversarial (the triangle form)."""
    if restrict:
        a, na = _nonzero_coords(rng, dim, field)
        if capped and adversarial:
            # keep Re<x,a> >= 0 evaluable: small radius, capped inflation
            s = float(rng.uniform(0.05, 0.3))
            r = s * na
            t = 2.0 + float(rng.uniform()) * (0.9 / s - 2.0)
        else:
            r = float(rng.uniform(0.05, 0.95)) * na
            t = _frac(rng, adversarial)
    else:
        a, na = _rand_coords(rng, dim, field), None
        r = _radius(rng)
        t = _frac(rng, adversarial)
    x = _in_ball(rng, field, a, r, t)
    return field, dim, (_vec(x, field), _vec(a, field, na), r)


def _pair_point(rng, field, adversarial, base, scale, lo, hi) -> np.ndarray:
    """x with Re<hi*base - x, x - lo*base> >= 0 when not adversarial: the midpoint
    times base plus a residual of length t * |hi - lo|/2 * scale, scale = ||base||."""
    mid = (complex(lo) + complex(hi)) / 2.0
    radius = 0.5 * abs(complex(hi) - complex(lo)) * scale
    t = _frac(rng, adversarial)
    c = mid if field is FieldTag.COMPLEX else mid.real
    return _in_ball(rng, field, c * base, radius, t)


def _sample_two_sided(rng, dim, field, adversarial, positive_real=False):
    y, ny = _nonzero_coords(rng, dim, field)
    lo, hi = _sample_pair(rng, field, positive_real=positive_real)
    x = _pair_point(rng, field, adversarial, y, ny, lo, hi)
    return field, dim, (_vec(x, field), _vec(y, field, ny), ScalarPair(lo, hi))


def _sample_real_range(rng, dim, field, adversarial, capped=False):
    """Real pair 0 < m < M against y; capped=True keeps Re<x,y> >= 0 when
    adversarial (the strict triangle form)."""
    y, ny = _nonzero_coords(rng, dim, field)
    m = _radius(rng, 0.05, 2.0)
    if capped and adversarial:
        dfrac = float(rng.uniform(0.05, 0.5))
        M = m * (1.0 + dfrac)
        cap = 0.9 * (M + m) / (M - m)
        t = 2.0 + float(rng.uniform()) * (min(11.0, cap) - 2.0)
    else:
        M = m + _radius(rng, 0.01, 5.0)
        t = _frac(rng, adversarial)
    mid = 0.5 * (m + M)
    radius = 0.5 * (M - m) * ny
    x = _in_ball(rng, field, mid * y, radius, t)
    return field, dim, (_vec(x, field), _vec(y, field, ny), m, M)


def _sample_gruss_ball(rng, dim, field, adversarial, unit_radii=False):
    """unit_radii=True draws r1, r2 below 1 (the squared-level legacy form)."""
    e = _unit_coords(rng, dim, field)
    if unit_radii:
        r1 = float(rng.uniform(0.05, 0.95))
        r2 = float(rng.uniform(0.05, 0.95))
    else:
        r1, r2 = _radius_pair(rng, adversarial)
    x = _in_ball(rng, field, e, r1, _frac(rng, adversarial))
    y = _in_ball(rng, field, e, r2, _frac(rng, adversarial))
    return field, dim, (_vec(x, field), _vec(y, field), _vec(e, field), r1, r2)


def _sample_gruss_pair(rng, dim, field, adversarial, positive_real=False):
    e = _unit_coords(rng, dim, field)
    lo_x, hi_x = _sample_pair(rng, field, positive_real=positive_real)
    lo_y, hi_y = _sample_pair(rng, field, positive_real=positive_real)
    x = _vec(_pair_point(rng, field, adversarial, e, 1.0, lo_x, hi_x), field)
    y = _vec(_pair_point(rng, field, adversarial, e, 1.0, lo_y, hi_y), field)
    return field, dim, (x, y, _vec(e, field), ScalarPair(lo_x, hi_x), ScalarPair(lo_y, hi_y))


def _family_size(dim: int) -> int:
    return dim - 1 if dim >= 2 else 1


def _sample_bessel_ball(rng, dim, field, adversarial, restrict=False):
    """restrict=True keeps r < ||lam|| (strict form)."""
    k = _family_size(dim)
    lam, nlam = _nonzero_coords(rng, k, field)
    if restrict:
        r = float(rng.uniform(0.05, 0.95)) * nlam
    else:
        r = _radius(rng)
    x = _in_ball(rng, field, _padded(lam, dim, field), r, _frac(rng, adversarial))
    return field, dim, (_vec(x, field), standard_basis(field, dim, k), _seq(lam, field, nlam), r)


def _seq_pair_point(rng, dim, field, adversarial, lo, hi, sep) -> np.ndarray:
    """sum (lo_i + hi_i)/2 e_i plus a residual of length t * ||hi - lo||/2, sep = ||hi - lo||."""
    center = _padded(0.5 * (lo.entries + hi.entries), dim, field)
    return _in_ball(rng, field, center, 0.5 * sep, _frac(rng, adversarial))


def _sample_bessel_pair(rng, dim, field, adversarial, positive_sum=False):
    k = _family_size(dim)
    lo, hi, sep = _sample_seq_pair(rng, field, k, positive_sum=positive_sum)
    x = _seq_pair_point(rng, dim, field, adversarial, lo, hi, sep)
    family = standard_basis(field, dim, k)
    return field, dim, (_vec(x, field), family, lo, hi)


def _sample_family_gruss_ball(rng, dim, field, adversarial):
    k = _family_size(dim)
    lam, nlam = _nonzero_coords(rng, k, field)
    mu, nmu = _nonzero_coords(rng, k, field)
    r1, r2 = _radius_pair(rng, adversarial)
    x = _vec(_in_ball(rng, field, _padded(lam, dim, field), r1, _frac(rng, adversarial)), field)
    y = _vec(_in_ball(rng, field, _padded(mu, dim, field), r2, _frac(rng, adversarial)), field)
    family = standard_basis(field, dim, k)
    return field, dim, (x, y, family, _seq(lam, field, nlam), _seq(mu, field, nmu), r1, r2)


def _sample_family_gruss_pair(rng, dim, field, adversarial):
    k = _family_size(dim)
    lo_x, hi_x, sep_x = _sample_seq_pair(rng, field, k)
    lo_y, hi_y, sep_y = _sample_seq_pair(rng, field, k)
    x = _vec(_seq_pair_point(rng, dim, field, adversarial, lo_x, hi_x, sep_x), field)
    y = _vec(_seq_pair_point(rng, dim, field, adversarial, lo_y, hi_y, sep_y), field)
    return field, dim, (x, y, standard_basis(field, dim, k), lo_x, hi_x, lo_y, hi_y)


def _default_domain() -> WeightedDomain:
    """`DEFAULT_DOMAIN_SPEC`, the domain of every sampled integral instance, from the cache."""
    return _cached_domain(_DEFAULT_DOMAIN_KEY)


def _scaled_perturbation(rng, deg, field, dom, limit) -> np.ndarray:
    """Polynomial q with max_node |q| = limit (zero polynomial if limit is 0)."""
    p = _rand_coords(rng, deg + 1, field)
    m = float(np.abs(dom._poly(p)).max())
    if m < 1e-12:
        p = np.zeros_like(p)
        p[0] = 1.0
        m = 1.0
    return p * (limit / m)


def _sample_integral_ball(rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_coords(rng, 4, field)
    r = _radius(rng)
    t = _frac(rng, adversarial)
    delta = _scaled_perturbation(rng, 3, field, dom, t * r)
    f = _poly_add(g, delta)
    return field, dom.size, (f, g, dom, r)


def _pair_multiple(rng, field, dom, adversarial, base, lo, hi) -> np.ndarray:
    """f = c * base for a polynomial c within t * |hi - lo|/2 of (lo + hi)/2 at
    the nodes, so f meets the two-sided condition against base."""
    mid = (complex(lo) + complex(hi)) / 2.0
    t = _frac(rng, adversarial)
    q = _scaled_perturbation(rng, 2, field, dom, t * 0.5 * abs(complex(hi) - complex(lo)))
    mid_c = mid if field is FieldTag.COMPLEX else mid.real
    return _poly_mul(_poly_add(np.array([mid_c]), q), base)


def _sample_integral_pair(rng, dim, field, adversarial):
    dom = _default_domain()
    g = _rand_coords(rng, 3, field)
    lo, hi = _sample_pair(rng, field)
    f = _pair_multiple(rng, field, dom, adversarial, g, lo, hi)
    return field, dom.size, (f, g, dom, ScalarPair(lo, hi))


def _sample_integral_range(rng, dim, field, adversarial):
    dom = _default_domain()
    q = _rand_coords(rng, 3, FieldTag.REAL)
    g = _poly_add(_poly_mul(q, q), np.array([float(rng.uniform(0.1, 1.0))]))
    m = _radius(rng, 0.05, 2.0)
    M = m + _radius(rng, 0.01, 5.0)
    f = _pair_multiple(rng, FieldTag.REAL, dom, adversarial, g, m, M)
    return FieldTag.REAL, dom.size, (f, g, dom, m, M)


def _sample_integral_gruss(rng, dim, field, adversarial):
    dom = _default_domain()
    h0 = _rand_coords(rng, 3, field)
    nh = dom.norm(DiscretizedFunction._computed(dom._poly(h0), field))
    if nh < 1e-3:
        h0 = np.zeros_like(h0)
        h0[0] = 1.0
        nh = 1.0
    h = h0 / nh
    lo_f, hi_f = _sample_pair(rng, field)
    f = _pair_multiple(rng, field, dom, adversarial, h, lo_f, hi_f)
    lo_g, hi_g = _sample_pair(rng, field)
    g = _pair_multiple(rng, field, dom, False, h, lo_g, hi_g)
    return field, dom.size, (f, g, h, dom, ScalarPair(lo_f, hi_f), ScalarPair(lo_g, hi_g))
