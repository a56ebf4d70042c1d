"""Shared test fixtures: exact-arithmetic oracles and hypothesis profiles.

The polynomial integration oracle works in Fractions so worked-example
regressions compare the implementation against values derived by a genuinely
independent route (symbolic antiderivatives, not quadrature).  The report
renderer is checked against `render_json_oracle`, a plain recursive restatement
of the report format.
"""

import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ineq import runner

settings.register_profile(
    "fast",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def force_workers(monkeypatch):
    """`force_workers(n)` makes `run_suite` and `evaluate_file` split any run over n processes.

    The host's CPU count is replaced by n and the fork break-even by one
    instance, so a one-CPU host still runs the forked path.
    """

    def force(n):
        monkeypatch.setattr(runner, "_FORK_BREAK_EVEN", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return force


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with every forked worker reaped, whichever runner forked it."""
    yield
    assert_no_child_left()


def poly_mul(p, q):
    """Multiply coefficient lists (ascending powers) exactly."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def poly_integral(p, lo=0, hi=1):
    """Exact integral of the coefficient list `p` over [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    total = Fraction(0)
    for k, c in enumerate(p):
        total += Fraction(c) * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def weighted_poly_inner(f, g, weight=(1,), lo=0, hi=1):
    """Exact integral of f*g*weight over [lo, hi]; real coefficients only."""
    return poly_integral(poly_mul(poly_mul(f, g), list(weight)), lo, hi)


def rand_coords(rng, dim, field):
    re = rng.uniform(-3.0, 3.0, dim)
    if field == "complex":
        return re + 1j * rng.uniform(-3.0, 3.0, dim)
    return re


def close(a, b, tol=1e-10):
    return abs(float(a) - float(b)) <= tol


def render_json_oracle(obj):
    """The report format, rendered by the obvious recursion over isinstance checks."""
    out = []
    _render_oracle(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _fmt_float_oracle(v):
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("reports must contain finite numbers only")
    return format(float(v), ".17g")


def _render_oracle(obj, out, level):
    pad = "  " * (level + 1)
    closing = "  " * level
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float_oracle(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(pad + json.dumps(k) + ": ")
            _render_oracle(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            body = ", ".join(
                _fmt_float_oracle(v) if isinstance(v, float) else str(v) for v in obj
            )
            out.append("[" + body + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _render_oracle(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} deterministically")
