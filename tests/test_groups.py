"""Integral instances evaluated in groups: bit for bit the instances alone, errors in order.

A worker takes the integral rows of a window of consecutive rows, groups
them by theorem, field, domain and the form of each function
(`harness._member`), and evaluates each group in chunks of rows
(`harness._group_results`); a row alone is its one-row group
(`harness._row_result`).  These tests hold a group byte for byte to the
public `integral_*` operation on each row's functions, discretized one
function at a time; hold a bad row to the error it raises alone, a
non-finite result included; and pin the number of Horner passes a group
makes.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineq import evaluate_file, harness, integral, sample_admissible
from ineq.conditions import ScalarPair
from ineq.harness import REAL_ONLY_IDS
from ineq.cli import main

from conftest import assert_no_child_left

INTEGRAL_IDS = ("prop7.1", "prop7.2", "prop7.11", "prop7.12", "prop7.3")

#: (rule, nodes): gauss up to its document cap of 2048 nodes, trapezoid past 8192.
_RULES = [("gauss", n) for n in (2, 3, 17, 64, 100, 256, 1024, 2048)] + [
    ("trapezoid", n) for n in (2, 5, 64, 513, 2048, 4096, 8192, 9000)
]
#: Non-constant weights, positive on [0, 1].
_WEIGHTS = ([1.0, 2.0], [0.5, 0.0, 3.0], [2.0, -1.0], [1.0, 0.25, 0.0, 1.0])
#: Most rows a drawn group has, to bound the test's time.
_MAX_ROWS = 260


def _scalar(value, field):
    return {"re": value.real, "im": value.imag} if field == "complex" else float(value.real)


def _draws(rng, size, field):
    """size numbers, one in four replaced by 0.0, -0.0 or 1.0; complex ones in the complex
    field."""
    out = rng.uniform(-2.0, 2.0, size)
    if field == "complex":
        out = out + 1j * rng.uniform(-2.0, 2.0, size)
    special = rng.random(size) < 0.25
    out[special] = rng.choice([0.0, -0.0, 1.0], int(special.sum()))
    return out


def _function(rng, form, field, dom):
    """A {"values"} function on dom, or a {"poly"} one of form (length, complex coefficients)."""
    if form == "values":
        return {"values": [_scalar(v, field) for v in _draws(rng, dom.size, field)]}
    length, complex_coeffs = form
    coeffs = _draws(rng, length, field if complex_coeffs else "real")
    return {"poly": [_scalar(c, field) if complex_coeffs else float(c) for c in coeffs]}


def _unit(rng, form, field, dom):
    """h for prop7.3: a drawn function with its first entry 1.0, rescaled to ||h|| = 1 on dom."""
    h = _function(rng, form, field, dom)
    (key, entries), = h.items()
    entries[0] = _scalar(1.0, field if key == "values" or form[1] else "real")
    numbers = np.array([complex(e["re"], e["im"]) if isinstance(e, dict) else e for e in entries])
    values = numbers if key == "values" else integral.polynomial(numbers)(dom.nodes)
    return _rescaled(h, 1.0 / dom.norm(dom.discretize(values, field)))


def _rescaled(func, c):
    (key, entries), = func.items()
    return {key: [{k: v * c for k, v in e.items()} if isinstance(e, dict) else e * c
                  for e in entries]}


def _pair(rng, field, lo_one):
    """A nondegenerate pair; lo = 1.0 exactly when lo_one, so that f = g gives zero margins."""
    while True:
        lo, hi = _draws(rng, 2, field)
        if lo_one:
            lo = 1.0
        if not ScalarPair(complex(lo), complex(hi)).is_degenerate():
            return {"lo": _scalar(complex(lo), field), "hi": _scalar(complex(hi), field)}


@st.composite
def _groups(draw):
    """(theorem id, instance documents) of one group: rows sharing theorem, field, domain and
    the form of each function, on both sides of the group's chunk boundary."""
    tid = draw(st.sampled_from(INTEGRAL_IDS))
    field = "real" if tid in REAL_ONLY_IDS else draw(st.sampled_from(["real", "complex"]))
    kind, n = draw(st.sampled_from(_RULES))
    weight = draw(st.sampled_from(_WEIGHTS))
    chunk = max(1, harness._GROUP_CHUNK_NODES // n)
    sizes = sorted({1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1} - {0})
    rows = draw(st.sampled_from([b for b in sizes if b <= _MAX_ROWS]))
    keys = ("f", "g", "h") if tid == "prop7.3" else ("f", "g")
    forms = {
        key: draw(st.just("values") | st.tuples(
            st.integers(1, 8), st.just(False) if field == "real" else st.booleans()
        ))
        for key in keys
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = {"interval": [0.0, 1.0], "weight": {"poly": weight}, "rule": {"kind": kind, "n": n}}
    dom = integral.build_domain((0.0, 1.0), integral.polynomial(weight), kind, n)
    instances = []
    for _ in range(rows):
        inst = {"theorem": tid, "field": field, "domain": spec}
        same = forms["f"] == forms["g"] and rng.random() < 0.25
        inst["f"] = _function(rng, forms["f"], field, dom)
        inst["g"] = inst["f"] if same else _function(rng, forms["g"], field, dom)
        if tid == "prop7.1":
            inst["r"] = float(rng.uniform(0.01, 3.0))
        elif tid == "prop7.2":
            inst["pair"] = _pair(rng, field, same)
        elif tid in ("prop7.11", "prop7.12"):
            m = 1.0 if same else float(rng.uniform(0.1, 2.0))
            inst["m"], inst["M"] = m, m + float(rng.uniform(0.01, 5.0))
        else:
            inst["h"] = _unit(rng, forms["h"], field, dom)
            inst["pair_f"] = _pair(rng, field, same)
            inst["pair_g"] = _pair(rng, field, False)
        instances.append(inst)
    return tid, instances


@settings(max_examples=60)
@given(group=_groups())
def test_a_group_is_bit_for_bit_its_rows_alone(group):
    tid, instances = group
    rows = [harness._document_row(inst) for inst in instances]
    members = [(i, harness._member(*row)) for i, row in enumerate(rows)]
    assert all(member is not None for _, member in members)
    assert len({member[0] for _, member in members}) == 1
    done = harness._group_results(members)
    assert sorted(done) == list(range(len(instances)))
    for i, (_, row) in enumerate(rows):
        # repr tells -0.0 from 0.0, and a numpy scalar from a float
        assert repr(done[i]) == repr(_alone(tid, row)), i


#: The public operation of each integral id, the reference a group is checked against.
_PUBLIC = {
    "prop7.1": integral.integral_schwarz_ball,
    "prop7.2": integral.integral_schwarz_pair,
    "prop7.11": integral.integral_schwarz_range,
    "prop7.12": integral.integral_triangle,
    "prop7.3": integral.integral_gruss,
}


def _alone(tid, row):
    """The result of a row from its public operation, each {"poly"} function discretized on
    its own: 1-D Horner, where a group takes one 2-D pass."""
    field, dim, args = row
    spec = harness._SPECS[tid]
    dom = next(arg for arg in args if isinstance(arg, integral.WeightedDomain))
    args = [
        arg if kind != "function" or isinstance(arg, integral.DiscretizedFunction)
        else integral.DiscretizedFunction._computed(integral._poly_values(dom, arg, field), field)
        for (_, kind), arg in zip(spec.params, args)
    ]
    return harness._result(tid, field, dim, _PUBLIC[tid](*args))


# ---------------------------------------------------------------------------
# A bad row in a group is reported as it is alone, after the rows before it.


def _break_unit_norm(inst):
    return dict(inst, h=_rescaled(inst["h"], 2.0))


def _break_range(inst):
    return dict(inst, m=inst["M"], M=inst["m"])


def _break_horner(inst):
    huge = {"re": 1e308, "im": 1e308}
    return dict(inst, f={"poly": [huge] * len(inst["f"]["poly"])})


def _overflow_norm(inst):
    # Horner stays finite at 1e200 a coefficient; the norm's square sum does not
    return dict(inst, f={"poly": [1e200] * len(inst["f"]["poly"])})


#: (theorem, field, how the bad row is made, the start of its message).
_BAD_ROWS = {
    "unit-norm": ("prop7.3", "complex", _break_unit_norm, "||h|| = "),
    "range": ("prop7.11", "real", _break_range, "need M > m, got m="),
    "horner": ("prop7.1", "complex", _break_horner,
               "prop7.1 'f': entries must be finite (no NaN/Inf)"),
    "norm-overflow": ("prop7.1", "real", _overflow_norm,
                      "prop7.1 gap is inf; the inputs leave double precision"),
}


def _write(tmp_path, name, instances) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_BAD_ROWS))
def test_the_first_bad_row_of_a_group_is_reported_first(
    tmp_path, capsys, force_workers, case, workers
):
    # 16 rows of one group; row 9 fails in evaluation and row 13 in decoding.
    # Over 2 or 3 workers a floor of 5 cuts them 0..4, 5..9, 10..14 and 15: row
    # 9 and row 13 are in pieces after this process's first, which the
    # children claim as they start.  At the default floor of 16 the document
    # is one piece.
    tid, field, spoil, start = _BAD_ROWS[case]
    docs = [sample_admissible(tid, field, 1, seed=4, index=i) for i in range(16)]
    docs[9] = spoil(docs[9])
    docs[13] = dict(docs[13], f={"poly": []})
    alone = _write(tmp_path, "alone.json", [docs[9]])
    assert main(["eval", "--input", alone]) == 2
    message = capsys.readouterr().err.replace("instance 0: ", "instance 9: ", 1)
    assert message.startswith(f"ineq: instance 9: {start}")
    path = _write(tmp_path, "doc.json", docs)
    force_workers(workers, floor=5)
    assert main(["eval", "--input", path]) == 2
    assert capsys.readouterr() == ("", message)
    assert_no_child_left()
    # with records kept, the same error
    assert main(["eval", "--input", path, "--output", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr() == ("", message)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# How much work a group makes.


def test_a_group_makes_one_horner_pass_per_function_per_chunk(
    tmp_path, monkeypatch, force_workers
):
    # ten prop7.1 rows of one group, on the default 64-node domain: one chunk
    path = _write(tmp_path, "doc.json", [
        sample_admissible("prop7.1", "real", 1, seed=6, index=i) for i in range(10)
    ])
    force_workers(1)
    evaluate_file(path)  # builds and caches the domain, whose weight is a polynomial
    calls = []
    horner = integral._horner

    def counting(c, *args):
        calls.append(c.shape)
        return horner(c, *args)

    monkeypatch.setattr(integral, "_horner", counting)
    evaluate_file(path)
    assert [shape[1] for shape in calls] == [10, 10], calls  # f and g, ten rows each


def test_a_window_holds_a_bounded_run_of_rows(tmp_path, monkeypatch, force_workers):
    docs = [sample_admissible(tid, "real", 1, seed=7, index=i)
            for i, tid in enumerate(INTEGRAL_IDS * 4)]
    path = _write(tmp_path, "doc.json", docs)
    force_workers(1)
    whole = evaluate_file(path).to_json()
    sizes = []
    group_results = harness._group_results

    def recording(members):
        sizes.append(len(members))
        return group_results(members)

    monkeypatch.setattr(harness, "_group_results", recording)
    monkeypatch.setattr(harness, "_GROUP_WINDOW", 6)
    force_workers(1, floor=20)  # one piece: only the window cuts
    assert evaluate_file(path).to_json() == whole
    assert sizes == [6, 6, 6, 2]


def test_the_rows_drawn_before_a_failing_draw_come_first(monkeypatch):
    # verify draws a window of integral instances before evaluating them; a draw
    # that raises still comes after the results of the rows before it
    spec, calls = harness._SPECS["prop7.1"], []

    def failing(*args):
        calls.append(args)
        if len(calls) == 4:
            raise RuntimeError("draw 3 failed")
        return spec.sampler(*args)

    monkeypatch.setitem(harness._SPECS, "prop7.1", dataclasses.replace(spec, sampler=failing))
    results = harness._suite_results("prop7.1", [(1, harness.FieldTag.REAL)], 0, False, 0, 6)
    got = []
    with pytest.raises(RuntimeError, match="draw 3 failed"):
        for result in results:
            got.append(result)
    assert len(got) == 3
