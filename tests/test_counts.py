"""Per-instance calls of the value layer: norms, space checks and finiteness scans.

Every certificate is a short chain over ||x||, ||y|| and <x,y>, so one
instance should read each of its arrays once: a vector's norm is kept, the
evaluators skip space checks on operands already checked, and finiteness is
read off the reduction that consumes an intermediate.  These tests pin the
calls one sample and one report make, on the typed path `run_suite` takes.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from ineq import harness, space
from ineq.harness import REAL_ONLY_IDS, THEOREM_IDS
from ineq.space import FieldTag

COUNTED = ("_array_norm", "check_same_space", "_check_finite")

#: Most (norms, space checks, finiteness scans) one sample of each id makes at
#: dims 3 and 8, over the instances `_counts` draws.  Every Vector a sampler
#: builds is scanned once (a CoefficientSequence reads finiteness off its
#: square norm); the integral ids draw polynomials and norm none.
SAMPLE_MAX = {
    "thm2.1": (1, 0, 2), "thm2.2": (2, 0, 2), "prop2.3": (1, 0, 2), "prop2.4": (2, 0, 2),
    "thm4.1": (3, 0, 3), "thm4.2": (3, 0, 3), "thm4.3": (3, 0, 3), "thm4.4": (3, 0, 3),
    "thm5.1": (2, 0, 1), "thm5.2": (5, 0, 1), "thm6.1": (4, 0, 2), "thm6.2": (10, 0, 2),
    "legacy1.1": (2, 0, 2), "legacy1.3": (2, 0, 2), "legacy1.7": (2, 0, 2),
    "legacy1.8": (2, 0, 2), "legacy1.10": (3, 0, 3), "legacy1.13": (3, 0, 3),
    "legacy1.18": (2, 0, 1), "legacy1.20": (5, 0, 1),
    "prop7.1": (0, 0, 0), "prop7.2": (0, 0, 0), "prop7.11": (0, 0, 0),
    "prop7.12": (0, 0, 0), "prop7.3": (0, 0, 1),
}

#: Most (norms, space checks, finiteness scans) one report of each id makes.
#: Each public condition checks its operands' space once; an evaluator that
#: validates its own operands calls the condition core directly.
REPORT_MAX = {
    "thm2.1": (3, 1, 0), "thm2.2": (1, 1, 0), "prop2.3": (4, 1, 0), "prop2.4": (2, 1, 0),
    "thm4.1": (5, 2, 0), "thm4.2": (5, 2, 0), "thm4.3": (3, 2, 0), "thm4.4": (3, 2, 0),
    "thm5.1": (3, 2, 0), "thm5.2": (3, 2, 0), "thm6.1": (6, 4, 0), "thm6.2": (6, 4, 0),
    "legacy1.1": (2, 1, 0), "legacy1.3": (1, 1, 0), "legacy1.7": (3, 1, 0),
    "legacy1.8": (2, 1, 0), "legacy1.10": (5, 3, 0), "legacy1.13": (3, 3, 0),
    "legacy1.18": (3, 2, 0), "legacy1.20": (3, 2, 0),
    "prop7.1": (0, 0, 2), "prop7.2": (0, 0, 2), "prop7.11": (0, 0, 2),
    "prop7.12": (0, 0, 3), "prop7.3": (0, 0, 3),
}


class _Counter:
    """Counts calls of COUNTED in every ineq module that binds them, and keeps the
    arrays `_array_norm` read, so a repeat can be found by identity or by value."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(COUNTED, 0)
        self.normed: list[np.ndarray] = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ineq"]
        for name in COUNTED:
            original = getattr(space, name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)

    def _wrap(self, name, original):
        def counting(*args):
            self.calls[name] += 1
            if name == "_array_norm":
                self.normed.append(args[0])
            return original(*args)

        return counting

    def take(self) -> tuple[int, ...]:
        counts = tuple(self.calls[name] for name in COUNTED)
        self.calls = dict.fromkeys(COUNTED, 0)
        return counts


def _counts(monkeypatch, tid):
    """(sample counts, report counts, arrays normed) of each instance of tid at dims 3
    and 8 and both fields, on the typed path; the basis cache is warmed first."""
    counter = _Counter(monkeypatch)
    stream = harness._Stream(5, tid)
    fields = (FieldTag.REAL,) if tid in REAL_ONLY_IDS else (FieldTag.REAL, FieldTag.COMPLEX)
    rows = []
    for dim in (3, 8):
        for field in fields:
            warm = harness._SAMPLERS[tid](harness._rng_for(stream, 99), dim, field, False)
            harness._EVALUATORS[tid](warm)
            for i in range(6):
                counter.take()
                del counter.normed[:]
                rng = harness._rng_for(stream, i)
                inst = harness._SAMPLERS[tid](rng, dim, field, i % 3 == 2)
                sampled = counter.take()
                harness._EVALUATORS[tid](inst)
                rows.append((sampled, counter.take(), list(counter.normed)))
    return rows


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_an_instance_reads_each_array_once(monkeypatch, tid):
    rows = _counts(monkeypatch, tid)
    for sampled, reported, normed in rows:
        assert all(n <= m for n, m in zip(sampled, SAMPLE_MAX[tid])), (sampled, SAMPLE_MAX[tid])
        assert all(n <= m for n, m in zip(reported, REPORT_MAX[tid])), (reported, REPORT_MAX[tid])
        # no array is normed twice within one instance, sampling and report together:
        # not the same object, and not an equal copy of it
        for i, a in enumerate(normed):
            for b in normed[:i]:
                assert a is not b
                assert not (a.dtype == b.dtype and a.shape == b.shape and (a == b).all()), (a, b)
