"""Per-instance calls of the value layer: norms, space checks and finiteness scans.

Every certificate is a short chain over ||x||, ||y|| and <x,y>, so one
instance should read each of its arrays once: a vector's norm is kept, the
evaluators skip space checks on operands already checked, and finiteness is
read off the reduction that consumes an intermediate.  These tests pin the
calls one sample and one report make, on the typed path `run_suite` takes:
a sampled instance is handed to its operation as it is, with no decode, and
a sampled vector is adopted unscanned, its finiteness read off the norm that
every operation takes of it.  A document instance is decoded into the same
row: a coordinate list of exact floats becomes one array, adopted unscanned,
and the norm its operation reuses is taken while decoding.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

from ineq import documents, evaluate_file, harness, run_suite, sample_admissible, space
from ineq.errors import InputFormatError
from ineq.harness import REAL_ONLY_IDS, THEOREM_IDS
from ineq.space import FieldTag, Vector

from conftest import sampled_row

COUNTED = ("_array_norm", "check_same_space", "_check_finite")

#: Most (norms, space checks, finiteness scans) one sample of each id makes at
#: dims 3 and 8, over the instances `_counts` draws.  No Vector a sampler
#: builds is scanned (the norm its operation takes reads its finiteness), nor
#: is a CoefficientSequence (its norm does, handed over where the sampler took
#: it); the integral ids draw polynomials and norm none, and prop7.3 scans the
#: function it norms.
SAMPLE_MAX = {
    "thm2.1": (1, 0, 0), "thm2.2": (2, 0, 0), "prop2.3": (1, 0, 0), "prop2.4": (2, 0, 0),
    "thm4.1": (3, 0, 0), "thm4.2": (3, 0, 0), "thm4.3": (3, 0, 0), "thm4.4": (3, 0, 0),
    "thm5.1": (2, 0, 0), "thm5.2": (5, 0, 0), "thm6.1": (4, 0, 0), "thm6.2": (10, 0, 0),
    "legacy1.1": (2, 0, 0), "legacy1.3": (2, 0, 0), "legacy1.7": (2, 0, 0),
    "legacy1.8": (2, 0, 0), "legacy1.10": (3, 0, 0), "legacy1.13": (3, 0, 0),
    "legacy1.18": (2, 0, 0), "legacy1.20": (5, 0, 0),
    "prop7.1": (0, 0, 0), "prop7.2": (0, 0, 0), "prop7.11": (0, 0, 0),
    "prop7.12": (0, 0, 0), "prop7.3": (0, 0, 1),
}

#: Most (norms, space checks, finiteness scans) one report of each id makes.
#: Each public condition checks its operands' space once; an evaluator that
#: validates its own operands calls the condition core directly.  A coefficient
#: sequence the report computes (Fourier coefficients) is normed once, by
#: `_array_norm`, as a vector is.
REPORT_MAX = {
    "thm2.1": (3, 1, 0), "thm2.2": (1, 1, 0), "prop2.3": (4, 1, 0), "prop2.4": (2, 1, 0),
    "thm4.1": (5, 2, 0), "thm4.2": (5, 2, 0), "thm4.3": (3, 2, 0), "thm4.4": (3, 2, 0),
    "thm5.1": (4, 2, 0), "thm5.2": (6, 2, 0), "thm6.1": (8, 4, 0), "thm6.2": (12, 4, 0),
    "legacy1.1": (2, 1, 0), "legacy1.3": (1, 1, 0), "legacy1.7": (3, 1, 0),
    "legacy1.8": (2, 1, 0), "legacy1.10": (5, 3, 0), "legacy1.13": (3, 3, 0),
    "legacy1.18": (4, 2, 0), "legacy1.20": (6, 2, 0),
    "prop7.1": (0, 0, 2), "prop7.2": (0, 0, 2), "prop7.11": (0, 0, 2),
    "prop7.12": (0, 0, 3), "prop7.3": (0, 0, 3),
}

#: Norms a report takes of an equal copy of an array its sampler normed: a pair
#: sampler's rejection test and the operation's pair rule each take ||hi - lo||
#: and ||hi + lo|| of every sequence pair.  A row carries only the operation's
#: arguments, and the operation takes no sampler's word for a value a document
#: would have to supply.
SEPARATIONS = {"thm5.2": 2, "thm6.2": 4, "legacy1.20": 2}

#: Exact (norms, space checks, finiteness scans) of one decoded document instance
#: of each id, decode and report together.  Decoding takes each vector's norm,
#: which its operation reuses, where it would scan it, so no scan is left but
#: the integral ids', which decode no vector or sequence.  A decoded sequence is
#: normed as it is built, and the report reuses that norm.
DECODE_COUNTS = {
    "thm2.1": (3, 1, 0), "thm2.2": (2, 1, 0), "prop2.3": (4, 1, 0), "prop2.4": (3, 1, 0),
    "thm4.1": (5, 2, 0), "thm4.2": (5, 2, 0), "thm4.3": (3, 2, 0), "thm4.4": (3, 2, 0),
    "thm5.1": (5, 2, 0), "thm5.2": (8, 2, 0), "thm6.1": (10, 4, 0), "thm6.2": (16, 4, 0),
    "legacy1.1": (3, 1, 0), "legacy1.3": (2, 1, 0), "legacy1.7": (4, 1, 0),
    "legacy1.8": (3, 1, 0), "legacy1.10": (5, 3, 0), "legacy1.13": (3, 3, 0),
    "legacy1.18": (5, 2, 0), "legacy1.20": (8, 2, 0),
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
    and 8 and both fields; the basis and domain caches are warmed first.  Each instance
    is evaluated by `harness._row_result`, the path `run_suite` takes from a sampler to
    its operation."""
    counter = _Counter(monkeypatch)
    rows = []
    for dim in (3, 8):
        for field in _fields(tid):
            harness.evaluate_instance(sample_admissible(tid, field, dim, seed=5, index=99))
            for i in range(6):
                counter.take()
                del counter.normed[:]
                _, row = sampled_row(tid, field, dim, 5, i % 3 == 2, index=i)
                sampled = counter.take()
                harness._row_result(tid, row)
                rows.append((sampled, counter.take(), list(counter.normed)))
    return rows


def _assert_normed_once(normed, drawn=0, separations=0):
    """No array in `normed` is the same object as, or an equal copy of, one before it, but
    for exactly `separations` equal copies the report (normed[drawn:]) took of arrays the
    sampler normed (normed[:drawn])."""
    copies = 0
    for i, a in enumerate(normed):
        for j, b in enumerate(normed[:i]):
            assert a is not b
            if a.dtype == b.dtype and a.shape == b.shape and (a == b).all():
                assert j < drawn <= i, (a, b)
                copies += 1
    assert copies == separations


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_an_instance_reads_each_array_once(monkeypatch, tid):
    rows = _counts(monkeypatch, tid)
    for sampled, reported, normed in rows:
        assert all(n <= m for n, m in zip(sampled, SAMPLE_MAX[tid])), (sampled, SAMPLE_MAX[tid])
        assert all(n <= m for n, m in zip(reported, REPORT_MAX[tid])), (reported, REPORT_MAX[tid])
        # no array is normed twice within one instance, sampling and report together,
        # but for the separations of a sequence pair
        _assert_normed_once(normed, sampled[0], SEPARATIONS.get(tid, 0))


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_a_decoded_instance_reads_each_array_once(monkeypatch, tid):
    # the document of each instance `_counts` draws, decoded and certified by
    # `evaluate_instance`; the basis and domain caches are warmed first
    counter = _Counter(monkeypatch)
    for dim in (3, 8):
        for field in _fields(tid):
            harness.evaluate_instance(sample_admissible(tid, field, dim, seed=5, index=99))
            for i in range(6):
                doc = sample_admissible(tid, field, dim, seed=5, adversarial=i % 3 == 2, index=i)
                counter.take()
                del counter.normed[:]
                harness.evaluate_instance(doc)
                assert counter.take() == DECODE_COUNTS[tid], (field, dim, i)
                _assert_normed_once(counter.normed)


def _decoded_ids(monkeypatch) -> list:
    """The theorem ids of the instances decoded from now on."""
    calls, real_decode = [], harness._decode
    monkeypatch.setattr(harness, "_decode", lambda *args: calls.append(args[0]) or real_decode(*args))
    return calls


def test_a_verify_row_makes_no_decode_call(force_workers, monkeypatch):
    calls = _decoded_ids(monkeypatch)
    force_workers(1)
    report = run_suite(trials=12, dims=(1, 3, 8), seed=4, adversarial=True)
    assert report.aggregate["count"] == 25 * 12
    assert calls == []
    # the document path still decodes
    harness.evaluate_instance(sample_admissible("thm5.1", "complex", 3, seed=4))
    assert calls == ["thm5.1"]


def test_a_verify_run_decodes_no_domain(force_workers, monkeypatch):
    # a sampled integral instance carries the default domain itself, built once
    calls = []
    real_dec_domain = documents._dec_domain
    monkeypatch.setattr(documents, "_dec_domain", lambda obj: calls.append(obj) or real_dec_domain(obj))
    force_workers(1)
    report = run_suite(trials=10, dims=(1, 3), seed=5, adversarial=True)
    assert report.aggregate["count"] == 25 * 10
    assert calls == []
    # the document path still decodes its domain
    harness.evaluate_instance(sample_admissible("prop7.1", "real", 1, seed=5))
    assert len(calls) == 1


def test_eval_decodes_each_document_instance_once(force_workers, monkeypatch, tmp_path):
    # 16 prop7.11 rows on 64 nodes are one group chunk; row 9 has m > M, so the
    # chunk raises and its rows are certified one at a time, from the rows
    # already decoded, until row 9 raises
    docs = [sample_admissible("prop7.11", "real", 1, seed=3, index=i) for i in range(16)]
    docs[9]["m"], docs[9]["M"] = docs[9]["M"], docs[9]["m"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"instances": docs}), encoding="utf-8")
    calls = _decoded_ids(monkeypatch)
    force_workers(1)
    with pytest.raises(InputFormatError, match="^instance 9: "):
        evaluate_file(str(path))
    assert calls == ["prop7.11"] * 16


def _fields(tid):
    return (FieldTag.REAL,) if tid in REAL_ONLY_IDS else (FieldTag.REAL, FieldTag.COMPLEX)


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_every_sampled_vector_is_normed_by_its_operation(tid):
    # a sampled vector is adopted unscanned: the norm its operation takes is its check
    for dim in (1, 2, 3, 8, 16):
        for field in _fields(tid):
            for adversarial in (False, True):
                for i in range(4):
                    _, (tag, rec_dim, args) = sampled_row(tid, field, dim, 8, adversarial, index=i)
                    # the same coordinates with no norm kept, so only the operation can take it
                    fresh = [
                        Vector._sampled(v.coords, v.field) if isinstance(v, Vector) else v
                        for v in args
                    ]
                    harness._row_result(tid, (tag, rec_dim, fresh))
                    for pos, v in enumerate(fresh):
                        if isinstance(v, Vector):
                            assert "_norm" in v.__dict__, (tid, dim, field, adversarial, i, pos)


def _vector_positions(tid):
    return [pos for pos, (_, kind) in enumerate(harness._SPECS[tid].params) if kind == "vector"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tid", [tid for tid in THEOREM_IDS if _vector_positions(tid)])
def test_a_non_finite_sampled_coordinate_still_raises(monkeypatch, tid, bad):
    spec = harness._SPECS[tid]
    for pos, entry, field in itertools.product(_vector_positions(tid), (0, -1), _fields(tid)):

        def poisoned(rng, dim, tag, adversarial, pos=pos, entry=entry):
            tag, rec_dim, args = spec.sampler(rng, dim, tag, adversarial)
            coords = args[pos].coords.copy()
            coords[entry] = bad if tag is FieldTag.REAL else complex(coords[entry].real, bad)
            args = list(args)
            args[pos] = Vector._sampled(coords, tag)
            return tag, rec_dim, args

        monkeypatch.setitem(harness._SPECS, tid, dataclasses.replace(spec, sampler=poisoned))
        # numpy may warn of the inf * 0 it meets first; the check then raises, and the
        # tally names the instance
        with np.errstate(all="ignore"), pytest.raises(
            InputFormatError, match=r"^instance 0: entries must be finite \(no NaN/Inf\)$"
        ):
            run_suite([tid], trials=2, dims=(3,), fields=(field,))
