"""The tally and its report: `render_json` against the recursive oracle in conftest,
`_Stats` merges, the record template, and what a forked child sends."""

import csv
import enum
import json
import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import every_id_document, hold_here, render_json_oracle, write_document
from ineq import (
    THEOREM_IDS,
    InputFormatError,
    emit_report,
    evaluate_file,
    evaluate_instance,
    run_suite,
    sample_admissible,
    tally,
)
from ineq.harness import REAL_ONLY_IDS
from ineq.tally import CSV_COLUMNS, InstanceResult, _Stats, _Tally, leq_with_slack, render_json


class _Key(str):
    pass


class _Count(enum.IntEnum):
    THREE = 3


_floats = st.one_of(
    st.floats(width=64),  # NaN, +-inf, -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_text = st.one_of(
    st.text(),  # any code point: non-ASCII, controls, lone surrogates
    st.text(alphabet='"\\/\b\f\n\r\té \U0001f600 ab'),
    st.text(max_size=3).map(_Key),
)
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**70), _Count.THREE]),
    _floats,
    _text,
)
_keys = st.one_of(_text, _text, st.integers(0, 3), st.none(), st.floats(0, 1))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), _floats), min_size=1, max_size=6),
        st.dictionaries(_keys, children, max_size=5),
        st.dictionaries(_text, children, max_size=5),
    )


_documents = st.recursive(_atoms, _containers, max_leaves=30)


def _outcome(render, obj):
    try:
        return render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(_documents)
@example({"a": [1.0, float("nan")], 1: "b"})
@example({1: [float("inf")]})
@example([{"k": -0.0}, [], {}, (), [True, 1], [np.float64(2.5), 3]])
@example({"é\n\"": ["x", None, 5e-324, {"y": (1, 2.0)}]})
@example([b"bytes"])
@example({"set": {1, 2}})
@example([np.int64(3)])
def test_render_json_matches_the_oracle(obj):
    assert _outcome(render_json, obj) == _outcome(render_json_oracle, obj)


def test_render_json_is_valid_json_with_the_report_layout():
    doc = {"records": [{"gap": 0.1, "ok": True, "c": ["lhs", 1.0, "rhs", 2.0]}], "e": []}
    text = render_json(doc)
    assert json.loads(text) == doc
    assert text == (
        '{\n  "records": [\n    {\n      "gap": 0.10000000000000001,\n'
        '      "ok": true,\n      "c": [\n        "lhs",\n        1,\n'
        '        "rhs",\n        2\n      ]\n    }\n  ],\n  "e": []\n}\n'
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_render_json_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="finite"):
        render_json({"v": [value]})
    with pytest.raises(ValueError, match="finite"):
        render_json(["s", value])


# ---------------------------------------------------------------------------
# Tallies of pieces: stats merged in piece order, and a child's one record text.

#: Values that tie, change sign, sit at or below the ratio's 1e-300 floor, or not.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-301, 1e-300, 2e-300, 0.5, 1.0, -1.0, 3.0])
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(
    rows=st.lists(
        st.tuples(st.booleans(), st.booleans(), _FLOATS, _FLOATS | st.none()), max_size=40
    ),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
# tied extremes that only the first to reach them decides: slack 0.0 then
# -0.0, and ratio 0.0 then -0.0
@example(rows=[(True, True, 0.0, 1.0), (True, True, -0.0, None)], cuts=[1])
@example(rows=[(True, True, 1.0, 0.0), (True, True, 1.0, -0.0)], cuts=[1])
def test_stats_merged_in_slice_order_equal_the_serial_fold(rows, cuts):
    # rows are (admissible, ok, slack, ratio), a ratio of None not counted; empty
    # slices included
    def folded(part):
        stats = _Stats()
        for row in part:
            stats.add(*row)
        return stats

    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    merged = _Stats()
    for lo, hi in zip(bounds, bounds[1:]):
        merged.merge(folded(rows[lo:hi]))
    # repr tells -0.0 from 0.0
    assert repr(merged.as_dict()) == repr(folded(rows).as_dict())


def test_a_records_keeping_eval_child_sends_its_slice_as_one_text(
    force_workers, monkeypatch, tmp_path
):
    # over 2 workers and with a floor of 50, this process counts instances
    # 0..49 of 100, the first piece, which it claims before it forks; the child
    # claims 50..99, the other, while this process is held.  The child's one
    # message is its slice of the report's JSON, as one text, plus its
    # tally's stats; this process renders its own slice's records and, for
    # the report, only the head
    logged, dumps = tmp_path / "messages", pickle.dumps

    def logging_dumps(obj, protocol=None):
        data = dumps(obj, protocol)
        with open(logged, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([len(data), obj[1].records]) + "\n")
        return data

    parent, emitted, rendered = os.getpid(), [], []
    record_text, render_json = tally._record_text, tally.render_json

    def counting_record_text(index, *args):
        if os.getpid() == parent:
            emitted.append(index)
        return record_text(index, *args)

    def counting_render_json(obj):
        if os.getpid() == parent:
            rendered.append(list(obj))
        return render_json(obj)

    path = every_id_document(tmp_path)
    monkeypatch.setattr(pickle, "dumps", logging_dumps)
    monkeypatch.setattr(tally, "_record_text", counting_record_text)
    monkeypatch.setattr(tally, "render_json", counting_render_json)
    hold_here(monkeypatch, _Tally, "counted", lambda children: logged.exists())
    force_workers(2, floor=50)
    report = evaluate_file(path)
    text = report.to_json()
    assert emitted == list(range(50))
    assert rendered == [["metadata", "aggregate", "per_theorem"]]
    [[size, records]] = [json.loads(line) for line in logged.read_text("utf-8").splitlines()]
    start = text.index('{\n      "index": 50,')
    assert records == [text[start:text.rindex("\n  ]\n}\n")]]
    assert 0 < size - len(records[0]) < 2048


# ---------------------------------------------------------------------------
# Records: each rendered once, as text, by the tally that counts it.


def _record_dict(index, result, ok, flags) -> dict:
    """A record as a dict: what reports held before they held record texts."""
    return {
        "index": index,
        "theorem": result.theorem,
        "field": result.field,
        "dim": result.dim,
        "admissible": result.admissible,
        "margin": result.margin,
        "gap": result.gap,
        "bound": result.bound,
        "slack": result.bound - result.gap,
        "passed": ok,
        "comparisons": [
            [l1, v1, l2, v2, flag] for (l1, v1, l2, v2), flag in zip(result.comparisons, flags)
        ],
    }


def _rendered(render):
    try:
        return render()
    except ValueError as exc:
        return type(exc)


#: The values `_result` copies: float numbers, NaN and infinities among them
#: (`st.floats()`), str labels, bool flags and int index and dim.
_record_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1e16, 1e17, 123456789012345.0, 1e308, -1e308]),
    st.integers(-(10**17), 10**17).map(float),  # integral floats print without a point
    st.floats(),
)
_record_labels = st.one_of(
    st.sampled_from(["gap", "bound", "half_route", "Grüss ‖h‖"]), st.text(max_size=8)
)


@st.composite
def _records(draw):
    comparisons = draw(st.lists(
        st.tuples(_record_labels, _record_floats, _record_labels, _record_floats), max_size=6
    ))
    result = InstanceResult(
        draw(_record_labels), draw(_record_labels), draw(st.integers(0, 2**63)),
        draw(st.booleans()), draw(_record_floats), draw(_record_floats), draw(_record_floats),
        tuple(comparisons),
    )
    flags = [draw(st.booleans()) for _ in comparisons]
    return draw(st.integers(0, 2**63)), result, draw(st.booleans()), flags


def _plain_record(
    margin=-0.0, gap=0.0, bound=1.0, comparisons=(("gap", 0.0, "bound", 1.0),), admissible=True
):
    result = InstanceResult("thm2.1", "real", 3, admissible, margin, gap, bound, comparisons)
    return 7, result, True, [True]


@settings(max_examples=300)
@given(_records())
@example(_plain_record())
@example(_plain_record(margin=float("nan")))
@example(_plain_record(gap=-1e308, bound=1e308))  # finite values, an infinite slack
@example(_plain_record(gap=float("inf"), bound=float("inf")))  # inf - inf is NaN
@example(_plain_record(margin=1e308, gap=1e308, bound=1e308))  # finite values, an infinite sum
@example(_plain_record(comparisons=(("gap", -float("inf"), "bound", 1e17),)))
@example(_plain_record(gap=1e10, bound=1e-299))  # finite values, an infinite ratio
def test_a_record_text_is_what_render_json_writes_for_its_dict(record):
    # render_json refuses a NaN or infinite number; the tally refuses a result with
    # one in its record or in the aggregate entry it feeds (an admissible result's
    # ratio counts above a bound of 1e-300) before rendering it, and counts every
    # other, records kept or not
    index, result, _, _ = record
    counted = result.admissible and result.bound > 1e-300
    ratio = result.gap / result.bound if counted else None
    expected = _rendered(lambda: render_json({"records": [_record_dict(*record)]}))
    unrenderable = ValueError in (expected, _rendered(lambda: render_json({"max_ratio": ratio})))
    for keep_records in (False, True):
        counting = _Tally(1e-9, keep_records)
        if not unrenderable:
            counting.add(index, result)
            continue
        with pytest.raises(InputFormatError) as refused:
            counting.add(index, result)
        message = str(refused.value)
        assert message.startswith(f"instance {index}: {result.theorem} "), message
        assert message.endswith("; the inputs leave double precision"), message
    if not unrenderable:
        slack = result.bound - result.gap
        got = '{\n  "records": [\n    ' + tally._record_text(*record, slack) + "\n  ]\n}\n"
        assert got == expected


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "values, named",
    [
        ({"gap": _NAN, "bound": _INF, "margin": _NAN}, "gap is nan"),
        ({"bound": -_INF, "margin": _NAN}, "bound is -inf"),
        ({"margin": _INF, "comparisons": (("a", _NAN, "b", 1.0),)}, "margin is inf"),
        ({"comparisons": (("a", 1.0, "b", 2.0), ("c", 1.0, "d", _NAN))}, "d is nan"),
        ({"gap": -1e308, "bound": 1e308}, "slack is inf"),  # finite values, an infinite slack
        ({"gap": -1e308, "bound": 1e308, "comparisons": (("a", _INF, "b", 1.0),)}, "a is inf"),
        ({"gap": 1e10, "bound": 1e-299}, "ratio is inf"),  # finite values, an infinite ratio
        # a result that is not admissible counts no ratio, and is not judged on it
        ({"gap": 1e10, "bound": 1e-299, "admissible": False}, None),
    ],
)
@pytest.mark.parametrize("keep_records", [False, True])
def test_the_tally_refuses_a_result_naming_its_first_non_finite_number(
    values, named, keep_records
):
    counting = _Tally(1e-9, keep_records)
    result = _plain_record(**values)[1]
    if named is None:
        counting.add(4, result)
        assert counting.total.count == 1 and counting.total.max_ratio is None
        return
    with pytest.raises(InputFormatError) as refused:
        counting.add(4, result)
    assert str(refused.value) == (
        f"instance 4: thm2.1 {named}; the inputs leave double precision"
    )
    assert counting.total.count == 0 and counting.records in (None, [])


@pytest.mark.parametrize("keep_records", [False, True])
def test_the_tally_counts_finite_values_whose_sum_overflows(keep_records):
    # gap = bound = 1e308: the values' sum overflows, and every value is finite
    counting = _Tally(1e-9, keep_records)
    record = _plain_record(gap=1e308, bound=1e308, comparisons=(("gap", 1e308, "bound", 1e308),))
    counting.add(*record[:2])
    report = counting.report({})
    assert report.aggregate == {
        "count": 1, "violations": 0, "counterexamples": 0, "min_slack": 0.0, "max_ratio": 1.0
    }
    if keep_records:
        assert report.records == [_record_dict(*record)]


@pytest.mark.parametrize("adversarial", [False, True], ids=["plain", "adversarial"])
def test_every_counted_result_holds_the_plain_values_of_the_record_template(
    tmp_path, monkeypatch, force_workers, adversarial
):
    # `_record_text`'s one printf template takes float numbers, str labels, bool
    # flags and an int dim: every id, dim and field, through both runners
    counted = []
    add = _Tally.add

    def recording(self, index, result):
        counted.append(result)
        add(self, index, result)

    monkeypatch.setattr(_Tally, "add", recording)
    force_workers(1)
    dims, fields = (1, 2, 3, 8, 16), ("real", "complex")
    run_suite(trials=10, dims=dims, fields=fields, seed=5, adversarial=adversarial)
    cells = [(tid, d, f) for tid in THEOREM_IDS for d in dims for f in fields]
    evaluate_file(write_document(tmp_path, [
        sample_admissible(tid, f, d, seed=5, adversarial=adversarial, index=i)
        for i, (tid, d, f) in enumerate(cells)
    ]))
    assert len(counted) == 2 * len(cells)
    assert {(r.theorem, r.field) for r in counted} == {
        (tid, "real" if tid in REAL_ONLY_IDS else f) for tid, _, f in cells
    }
    for r in counted:
        assert (type(r.theorem), type(r.field), type(r.dim), type(r.admissible)) == (
            str, str, int, bool
        ), r
        assert (type(r.margin), type(r.gap), type(r.bound)) == (float, float, float), r
        for comparison in r.comparisons:
            assert tuple(map(type, comparison)) == (str, float, str, float), r


def _csv_bytes(path, records) -> bytes:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([tally._csv_cell(rec[c]) for c in CSV_COLUMNS])
    return path.read_bytes()


def _assert_records_round_trip(report, expected, tmp_path):
    # repr tells 1 from 1.0 and -0.0 from 0.0
    assert repr(report.records) == repr(expected)
    assert render_json(report.as_dict()) == report.to_json()
    emit_report(report, str(tmp_path / "report.json"), "json")
    assert (tmp_path / "report.json").read_text("utf-8") == report.to_json()
    emit_report(report, str(tmp_path / "report.csv"), "csv")
    assert (tmp_path / "report.csv").read_bytes() == _csv_bytes(tmp_path / "dicts.csv", expected)


def test_records_are_a_parsed_view_that_renders_to_the_same_bytes(tmp_path):
    path = every_id_document(tmp_path)
    report = evaluate_file(path)
    expected = []
    with open(path, encoding="utf-8") as fh:
        for i, inst in enumerate(json.load(fh)["instances"]):
            result = evaluate_instance(inst)
            flags = [leq_with_slack(v1, v2, 1e-9) for _, v1, _, v2 in result.comparisons]
            expected.append(_record_dict(i, result, all(flags), flags))
    _assert_records_round_trip(report, expected, tmp_path)
    for rec in report.records:
        assert type(rec["index"]) is int and type(rec["dim"]) is int
        numbers = [rec[k] for k in ("margin", "gap", "bound", "slack")]
        numbers += [v for _, v1, _, v2, _ in rec["comparisons"] for v in (v1, v2)]
        assert all(type(v) is float for v in numbers)


def test_a_negative_zero_margin_survives_the_parsed_view(tmp_path):
    tally = _Tally(1e-9, keep_records=True)
    index, result, ok, flags = _plain_record(margin=-0.0, comparisons=(("zero", -0.0, "gap", 2.0),))
    tally.add(index, result)
    report = tally.report({"mode": "eval"})
    assert str(report.records[0]["margin"]) == "-0.0"
    _assert_records_round_trip(report, [_record_dict(index, result, ok, flags)], tmp_path)
