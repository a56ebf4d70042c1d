"""Report rendering: `render_json` against the recursive oracle in conftest."""

import enum
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import render_json_oracle
from ineq.tally import render_json


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
