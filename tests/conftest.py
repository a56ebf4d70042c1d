"""Shared test fixtures: exact-arithmetic oracles and hypothesis profiles.

The polynomial integration oracle works in Fractions so worked-example
regressions compare the implementation against values derived by a genuinely
independent route (symbolic antiderivatives, not quadrature).  The report
renderer is checked against `render_json_oracle`, a plain recursive restatement
of the report format.
"""

import dataclasses
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ineq import THEOREM_IDS, harness, runner, sample_admissible

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
    instance, so a one-CPU host still runs the forked path.  `floor=k` also
    sets the fewest instances a piece is cut to, so that a test can place an
    instance in a piece a child claims.  This is the one place outside
    test_runner.py that sets a constant of `runner`.
    """

    def force(n, floor=None):
        monkeypatch.setattr(runner, "_FORK_BREAK_EVEN", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        if floor is not None:
            monkeypatch.setattr(runner, "_PIECE_FLOOR", floor)

    return force


def sampled_row(tid, *args, index=0):
    """`sample_admissible(tid, *args, index=index)`'s document, and the row its sampler drew
    for it: the (field, record dim, args) that `run_suite` certifies as that instance."""
    spec, rows = harness._SPECS[tid], []

    def drawing(*draw):
        rows.append(spec.sampler(*draw))
        return rows[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(harness._SPECS, tid, dataclasses.replace(spec, sampler=drawing))
        doc = sample_admissible(tid, *args, index=index)
    [row] = rows
    return doc, row


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list:
    """The pids of the children this process forks from now on."""
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def hold_here(monkeypatch, owner, name, ready) -> list:
    """In each forked run, hold this process at its first call of `owner.name`, a call
    each piece makes once as it starts, until `ready(children)`.

    `children` are the pids forked for that run.  They claim the pieces after
    this process's first meanwhile, so which process counts which piece does
    not depend on timing.  Returns the pids forked from now on."""
    parent, forks, real = os.getpid(), count_forks(monkeypatch), getattr(owner, name)
    held = [0]

    def holding(*args):
        if os.getpid() == parent and len(forks) > held[0]:
            children, held[0] = forks[held[0]:], len(forks)
            deadline = time.monotonic() + 60
            while not ready(children):
                assert time.monotonic() < deadline, "no child got there"
                time.sleep(0.002)
        return real(*args)

    monkeypatch.setattr(owner, name, holding)
    return forks


def write_document(tmp_path, instances) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    return str(path)


def every_id_document(tmp_path) -> str:
    """Every id at dims 1 and 3 in both fields, one instance in three adversarial."""
    cells = [(tid, d, f) for tid in THEOREM_IDS for d in (1, 3) for f in ("real", "complex")]
    return write_document(tmp_path, [
        sample_admissible(tid, f, d, seed=9, adversarial=(i % 3 == 2), index=i)
        for i, (tid, d, f) in enumerate(cells)
    ])


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
