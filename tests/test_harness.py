"""Randomized verification harness: sampling, evaluation, suite reports."""

import ast
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineq import (
    FieldTag,
    InputFormatError,
    ScalarPair,
    THEOREM_IDS,
    coefficients,
    emit_report,
    evaluate_file,
    evaluate_instance,
    run_suite,
    sample_admissible,
    vector,
)
from ineq import bessel, conditions, gruss, harness, integral, legacy, tally
from ineq.cli import main
from ineq.harness import _SPECS, REAL_ONLY_IDS, normalize_theorem_id
from ineq.tally import CSV_COLUMNS, leq_with_slack

from conftest import (
    assert_no_child_left, count_forks, every_id_document, hold_here, sampled_row, write_document
)


def test_theorem_catalog():
    assert len(THEOREM_IDS) == 25
    assert len(set(THEOREM_IDS)) == 25
    assert REAL_ONLY_IDS <= set(THEOREM_IDS)
    assert normalize_theorem_id(" Thm2.1 ") == "thm2.1"
    with pytest.raises(InputFormatError, match="unknown theorem id"):
        normalize_theorem_id("thm9.9")


def test_sampling_is_deterministic():
    a = sample_admissible("thm2.2", "complex", 3, seed=5, index=9)
    b = sample_admissible("thm2.2", "complex", 3, seed=5, index=9)
    assert a == b
    c = sample_admissible("thm2.2", "complex", 3, seed=5, index=10)
    assert a != c


def test_every_theorem_samples_admissibly_in_both_fields():
    for tid in THEOREM_IDS:
        fields = ["real"] if tid in REAL_ONLY_IDS else ["real", "complex"]
        for field in fields:
            inst = sample_admissible(tid, field, 3, seed=1, index=2)
            result = evaluate_instance(inst)
            assert result.admissible, (tid, field)
            flags = [leq_with_slack(lhs, rhs) for _, lhs, _, rhs in result.comparisons]
            assert all(flags), (tid, field)


def test_real_only_ids_force_real_field():
    inst = sample_admissible("prop7.11", "complex", 3, seed=0)
    assert inst["field"] == "real"


def test_small_suite_has_no_violations():
    rep = run_suite(trials=8, dims=(1, 2, 3), fields=("real", "complex"), seed=3)
    assert rep.violations == 0
    assert rep.aggregate["count"] == 25 * 8
    assert all(stats["count"] == 8 for stats in rep.per_theorem.values())
    assert rep.metadata["mode"] == "verify"
    assert rep.metadata["adversarial"] is False


def test_adversarial_mode_finds_counterexamples():
    rep = run_suite(
        theorems=["thm2.1", "thm2.2", "thm4.1", "thm5.1"],
        trials=40,
        seed=0,
        adversarial=True,
    )
    assert rep.violations == 0
    for tid in ("thm2.1", "thm2.2", "thm4.1", "thm5.1"):
        assert rep.per_theorem[tid]["counterexamples"] > 0, tid
    assert rep.counterexamples == sum(
        s["counterexamples"] for s in rep.per_theorem.values()
    )


def test_complex_only_run_skips_real_only_theorems():
    rep = run_suite(theorems=["prop7.11", "thm2.1"], trials=4, dims=(2,), fields=("complex",))
    assert rep.per_theorem["prop7.11"]["count"] == 0
    assert rep.per_theorem["thm2.1"]["count"] == 4
    # a run of real-only ids alone would draw nothing, and is refused
    with pytest.raises(InputFormatError) as refused:
        run_suite(theorems=["prop7.11"], trials=4, dims=(2,), fields=("complex",))
    assert str(refused.value) == "the run draws no instance: prop7.11 takes real fields only"


def test_record_structure_and_prefix_determinism():
    kwargs = dict(theorems=["thm2.2"], dims=(2, 3), fields=("real",), seed=11)
    long = run_suite(trials=6, keep_records=True, **kwargs)
    short = run_suite(trials=3, keep_records=True, **kwargs)
    assert long.records[:3] == short.records
    rec = short.records[0]
    assert set(rec) == {
        "index", "theorem", "field", "dim", "admissible", "margin",
        "gap", "bound", "slack", "passed", "comparisons",
    }
    for entry in rec["comparisons"]:
        assert len(entry) == 5 and isinstance(entry[4], bool)
    assert "records" in long.as_dict()
    assert "records" not in run_suite(trials=2, **kwargs).as_dict()


def test_run_suite_validates_arguments():
    with pytest.raises(InputFormatError):
        run_suite(trials=0)
    with pytest.raises(InputFormatError):
        run_suite(trials=1, seed=-1)
    with pytest.raises(InputFormatError):
        run_suite(trials=1, dims=(0,))
    with pytest.raises(InputFormatError):
        run_suite(trials=1, fields=())
    with pytest.raises(InputFormatError, match="at least one dimension"):
        run_suite(trials=1, dims=[])
    with pytest.raises(InputFormatError, match="seed must be nonnegative"):
        sample_admissible("thm2.1", seed=-1)


def test_a_repeated_theorem_id_runs_once():
    kwargs = dict(trials=4, dims=(2,), fields=("real",), seed=3, keep_records=True)
    once = run_suite(["thm2.1"], **kwargs)
    assert run_suite(["thm2.1", "THM2.1"], **kwargs).to_json() == once.to_json()
    assert once.per_theorem["thm2.1"]["count"] == 4


@pytest.mark.parametrize("adversarial", [False, True])
def test_verify_and_eval_tally_alike(tmp_path, adversarial):
    # the documents of a run's instances 0..n-1, evaluated from a file, give
    # the run's per-theorem stats and records; prop7.11 is real-only, and
    # thm5.2 and legacy1.20 are Bessel ids
    dims, fields, seed, n = (1, 2, 3), ("real", "complex"), 21, 24
    for tid in ("thm2.2", "prop7.11", "thm5.2", "legacy1.20"):
        rep = run_suite(
            [tid], trials=n, dims=dims, fields=fields, seed=seed,
            adversarial=adversarial, keep_records=True,
        )
        grid = [
            (d, f) for d in dims for f in fields
            if not (tid in REAL_ONLY_IDS and f == "complex")
        ]
        docs = []
        for i in range(n):
            dim, field = grid[i % len(grid)]
            docs.append(sample_admissible(tid, field, dim, seed, adversarial, index=i))
        path = tmp_path / f"{tid}.json"
        path.write_text(json.dumps({"instances": docs}), encoding="utf-8")
        evaluated = evaluate_file(str(path))
        assert evaluated.per_theorem == {tid: rep.per_theorem[tid]}
        assert evaluated.aggregate == rep.aggregate
        assert evaluated.records == rep.records


def test_eval_decides_each_comparison_once(tmp_path, monkeypatch):
    calls = []
    decide = tally.leq_with_slack

    def counting(lhs, rhs, tol):
        calls.append((lhs, rhs))
        return decide(lhs, rhs, tol)

    docs = [
        sample_admissible(tid, "real", 3, seed=6, adversarial=(i % 2 == 1), index=i)
        for i, tid in enumerate(THEOREM_IDS)
    ]
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"instances": docs}), encoding="utf-8")
    monkeypatch.setattr(tally, "leq_with_slack", counting)
    rep = evaluate_file(str(path))
    assert rep.counterexamples > 0
    assert calls == [(v1, v2) for rec in rep.records for _, v1, _, v2, _ in rec["comparisons"]]


#: Per report: (module, function) -> number of calls each Gruss-type id makes.
_CALLS_PER_REPORT = {
    ("gruss", "require_unit"): {
        tid: 1 for tid in ("thm4.1", "thm4.2", "thm4.3", "thm4.4", "legacy1.10", "legacy1.13")
    },
    ("bessel", "fourier_coefficients"): {"thm6.1": 2, "thm6.2": 2},
    ("conditions", "require_nondegenerate"): {"thm4.4": 2},
}


@pytest.mark.parametrize("target", sorted(_CALLS_PER_REPORT), ids="{0[1]}".format)
def test_gruss_and_bessel_reports_compute_each_term_once(monkeypatch, target):
    calls = []
    module, name = target
    owner = {"gruss": gruss, "bessel": bessel, "conditions": conditions.ScalarPair}[module]
    func = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return func(*args)

    for holder in (owner, legacy):  # legacy imports require_unit by name
        if getattr(holder, name, None) is func:
            monkeypatch.setattr(holder, name, counting)
    for tid, per_report in _CALLS_PER_REPORT[target].items():
        fields = ("real",) if tid in REAL_ONLY_IDS else ("real", "complex")
        docs = [
            sample_admissible(tid, field, dim, seed=4, adversarial=adversarial, index=dim)
            for dim in (1, 2, 3, 8)
            for field in fields
            for adversarial in (False, True)
        ]
        del calls[:]
        for doc in docs:
            evaluate_instance(doc)
        assert len(calls) == per_report * len(docs), tid


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tol_is_rejected(tmp_path, tol):
    with pytest.raises(InputFormatError, match="tol must be finite"):
        run_suite(theorems=["thm2.1"], trials=1, tol=tol)
    doc = tmp_path / "one.json"
    doc.write_text(json.dumps({"instances": [sample_admissible("thm2.1")]}), encoding="utf-8")
    with pytest.raises(InputFormatError, match="tol must be finite"):
        evaluate_file(str(doc), tol=tol)
    # a negative tol stays allowed: every comparison then fails
    assert run_suite(theorems=["thm2.1"], trials=1, tol=-1.0).violations == 1
    assert evaluate_file(str(doc), tol=-1.0).violations == 1


def test_evaluate_instance_rejects_malformed_input():
    with pytest.raises(InputFormatError):
        evaluate_instance([1, 2])
    with pytest.raises(InputFormatError):
        evaluate_instance({})
    with pytest.raises(InputFormatError):
        evaluate_instance({"theorem": "thm9.9", "field": "real"})
    with pytest.raises(InputFormatError):
        evaluate_instance({"theorem": "thm2.1", "field": "real"})
    with pytest.raises(InputFormatError):
        evaluate_instance(
            {"theorem": "thm2.1", "field": "real", "x": [1, 0], "a": [1, 0]}
        )  # no radius
    for bad in ([True, 0.0], ["1.0", 0.0], [[1.0, 0.0], 0.0], [{"re": "x"}, 0.0], "10"):
        with pytest.raises(InputFormatError):
            evaluate_instance(
                {"theorem": "thm2.1", "field": "real", "x": bad, "a": [1, 0], "r": 1.0}
            )


@pytest.mark.parametrize(
    "tid, key, value",
    [
        ("thm2.1", "x", vector([0.5, 0.5], FieldTag.REAL)),
        ("thm5.1", "lam", coefficients([0.5], FieldTag.REAL)),
        ("thm2.2", "pair", ScalarPair(1.0, 2.0)),
        ("prop7.1", "f", {"poly": np.array([1.0, 0.5])}),
    ],
    ids=["Vector", "CoefficientSequence", "ScalarPair", "ndarray-poly"],
)
def test_a_typed_value_in_a_document_is_refused_by_its_key(tid, key, value):
    # a document holds JSON values only; what a sampler draws is never decoded
    inst = dict(sample_admissible(tid, "real", 2, seed=0), **{key: value})
    with pytest.raises(InputFormatError, match=f"^{tid} '{key}': expected "):
        evaluate_instance(inst)


def _bits(value):
    return float(value).hex()


def _comparison_bits(comparisons):
    return [(l1, _bits(v1), l2, _bits(v2)) for l1, v1, l2, v2, *_ in comparisons]


@pytest.mark.parametrize("adversarial", [False, True])
def test_suite_records_equal_the_json_route(adversarial):
    # run_suite evaluates typed instances; the same instances sampled as
    # documents, serialized, parsed and decoded must give identical bits
    dims, fields, seed = (1, 2, 3, 8, 16), ("real", "complex"), 13
    rep = run_suite(
        trials=20, dims=dims, fields=fields, seed=seed,
        adversarial=adversarial, keep_records=True,
    )
    assert len(rep.records) == 25 * 20
    for rec in rep.records:
        tid, i = rec["theorem"], rec["index"]
        grid = [
            (d, f) for d in dims for f in fields
            if not (tid in REAL_ONLY_IDS and f == "complex")
        ]
        dim, field = grid[i % len(grid)]
        doc = sample_admissible(tid, field, dim, seed, adversarial, index=i)
        direct = evaluate_instance(json.loads(json.dumps(doc)))
        assert (rec["field"], rec["dim"], rec["admissible"]) == (
            direct.field, direct.dim, direct.admissible,
        ), (tid, i)
        assert [_bits(rec[k]) for k in ("margin", "gap", "bound")] == [
            _bits(direct.margin), _bits(direct.gap), _bits(direct.bound),
        ], (tid, i)
        assert _comparison_bits(rec["comparisons"]) == _comparison_bits(direct.comparisons)


def test_evaluate_file_matches_in_memory_results(tmp_path):
    instances = [
        sample_admissible(tid, field, 3, seed=4, index=i)
        for i, (tid, field) in enumerate(
            [("thm2.1", "real"), ("thm2.2", "complex"), ("thm5.1", "real"), ("prop7.1", "real")]
        )
    ]
    path = tmp_path / "instances.json"
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    rep = evaluate_file(str(path))
    assert rep.metadata["mode"] == "eval"
    assert rep.aggregate["count"] == 4
    assert rep.violations == 0
    assert len(rep.records) == 4
    for inst, rec in zip(instances, rep.records):
        direct = evaluate_instance(inst)
        assert rec["gap"] == direct.gap
        assert rec["bound"] == direct.bound
        assert rec["theorem"] == direct.theorem


def test_evaluate_file_error_reporting(tmp_path):
    with pytest.raises(InputFormatError):
        evaluate_file(str(tmp_path / "missing.json"))
    bad_top = tmp_path / "top.json"
    bad_top.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InputFormatError, match="instances"):
        evaluate_file(str(bad_top))
    bad_inst = tmp_path / "inst.json"
    bad_inst.write_text(json.dumps({"instances": [{"theorem": "thm2.1"}]}), encoding="utf-8")
    with pytest.raises(InputFormatError, match="instance 0"):
        evaluate_file(str(bad_inst))


def test_emit_report_json_and_csv(tmp_path):
    rep = run_suite(
        theorems=["thm2.1"], trials=4, dims=(2,), fields=("real",), keep_records=True
    )
    jpath = tmp_path / "rep.json"
    emit_report(rep, str(jpath), "json")
    text = jpath.read_text(encoding="utf-8")
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["aggregate"]["count"] == 4

    cpath = tmp_path / "rep.csv"
    emit_report(rep, str(cpath), "csv")
    with open(cpath, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 5
    assert rows[1][4] in ("true", "false")

    bare = run_suite(theorems=["thm2.1"], trials=2, dims=(2,), fields=("real",))
    with pytest.raises(InputFormatError):
        emit_report(bare, str(cpath), "csv")
    with pytest.raises(InputFormatError):
        emit_report(rep, str(cpath), "xml")


def _readers(tree: ast.Module, attr: str) -> list:
    """The module-level names whose definition reads the attribute `attr` of anything."""
    return [
        name
        for name, node in _definitions(tree)
        if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))
    ]


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and single-name assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _ineq_imports(path: Path) -> set:
    """The names a module imports from `ineq`: the modules it names, and the names it takes
    from the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("ineq.")}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "ineq"):
                names |= {a.name for a in node.names}
            elif module.startswith((".", "ineq.")):
                names.add(module.lstrip(".").removeprefix("ineq.").split(".")[0])
    return names


def test_untrusted_input_stays_on_the_validating_path():
    # the pipeline's stages import only downward: a sampler cannot read a
    # document, the decoder cannot draw, and neither can count; only the
    # registry in `harness` ties them together, and the fork runner knows none
    package = Path(harness.__file__).parent
    imports = {path.stem: _ineq_imports(path) for path in package.glob("*.py")}
    stages = {"sampling", "documents", "tally"}
    assert stages <= set(imports)
    for stage in sorted(stages):
        assert not imports[stage] & (stages | {"harness", "runner"}), stage
    assert not imports["runner"] & (stages | {"harness"})
    assert stages | {"runner"} <= imports["harness"]
    assert {name for name, names in imports.items() if "harness" in names} == {
        "__init__", "cli", "sharpness",
    }


def test_square_roots_are_taken_by_math_sqrt():
    # x ** 0.5 and pow(x, 0.5) call libm's pow, which is not correctly rounded
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                exponent = node.right
            elif isinstance(node, ast.Call) and len(node.args) == 2 and "pow" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                exponent = node.args[1]
            else:
                continue
            if isinstance(exponent, ast.Constant) and exponent.value == 0.5:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_row_result_calls_a_theorem_operation():
    # both runners, and `evaluate_instance`, certify a row in one place; a group
    # of integral rows is one call of the operation over rows, in `_chunk_reports`
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    assert _readers(tree, "operation") == ["_row_result", "_chunk_reports"]
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "operation"]
    calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert reads and all(any(read is func for func in calls) for read in reads)
    assert not [func for func in calls if getattr(func, "id", None) == "globals"]


def test_registry_is_the_one_source_of_ids_samplers_and_schemas():
    assert THEOREM_IDS == tuple(_SPECS)
    assert REAL_ONLY_IDS == {"prop7.11", "prop7.12"}
    for tid, spec in _SPECS.items():
        doc = sample_admissible(tid, "real", 3, seed=0)
        decode_order = [key for _, key, _ in spec.steps]
        assert list(doc) == ["theorem", "field", *decode_order, "seed"], tid
        assert callable(spec.sampler) and callable(spec.operation), tid
        assert spec.grouped == tid.startswith("prop7."), tid


#: (kind, theorem, key, value): a bool, a string or an int beyond double range
#: where a number belongs, or a number that is not integral where a count belongs.
BAD_NUMBERS = [
    ("vector", "thm2.1", "x", ["1.5", 0.0]),
    ("vector", "thm2.1", "x", [{"re": "1", "im": 0.0}, 0.0]),
    ("vector", "thm2.1", "x", [10**400, 0.0]),
    ("seq", "thm5.1", "lam", [True, 0.0]),
    ("pair", "thm2.2", "pair", {"lo": "1", "hi": 2.0}),
    ("real", "thm2.1", "r", "1.5"),
    ("real", "thm2.1", "r", True),
    ("real", "thm2.1", "r", None),
    ("real", "thm2.1", "r", 10**400),
    ("count", "thm5.1", "size", 2.7),
    ("count", "thm5.1", "size", "2"),
    ("count", "thm5.1", "size", True),
    ("domain", "prop7.1", "domain", {"rule": {"n": 8.9}}),
    ("domain", "prop7.1", "domain", {"rule": {"n": "64"}}),
    ("domain", "prop7.1", "domain", {"interval": ["0", 1.0]}),
    ("domain", "prop7.1", "domain", {"weight": {"poly": [False]}}),
    ("function", "prop7.1", "f", {"poly": ["1"]}),
    ("function", "prop7.1", "f", {"values": [True] * 64}),
]


def test_bad_numbers_cover_every_kind():
    kinds = {kind for spec in _SPECS.values() for _, kind in spec.params}
    assert kinds == {kind for kind, *_ in BAD_NUMBERS}
    for kind, tid, key, _ in BAD_NUMBERS:
        assert (key, kind) in _SPECS[tid].params


@pytest.mark.parametrize(
    "kind, tid, key, bad", BAD_NUMBERS, ids=[f"{c[0]}-{i}" for i, c in enumerate(BAD_NUMBERS)]
)
def test_every_kind_applies_one_number_rule(kind, tid, key, bad):
    inst = sample_admissible(tid, "real", 3, seed=0)
    inst[key] = bad
    with pytest.raises(InputFormatError, match=f"^{tid} '{key}': "):
        evaluate_instance(inst)


def test_integral_floats_are_counts():
    inst = sample_admissible("thm5.1", "real", 3, seed=0)
    assert evaluate_instance(dict(inst, size=float(inst["size"]))) == evaluate_instance(inst)
    p71 = sample_admissible("prop7.1", "real", 3, seed=0)
    domain = dict(p71["domain"], rule={"kind": "gauss", "n": 64.0})
    assert evaluate_instance(dict(p71, domain=domain)) == evaluate_instance(p71)


def test_record_dim_follows_the_schema_not_stray_keys():
    inst = {"theorem": "thm2.1", "field": "real", "x": [0.5, 0.5], "a": [1.0, 0.0], "r": 1.0}
    stray = dict(inst, domain={"rule": {"kind": "gauss", "n": 8}})
    assert evaluate_instance(stray) == evaluate_instance(inst)
    assert evaluate_instance(stray).dim == 2
    p71 = sample_admissible("prop7.1", "real", 3, seed=0)
    assert evaluate_instance(p71).dim == p71["domain"]["rule"]["n"]


def test_missing_key_lists_the_keys_the_theorem_needs():
    with pytest.raises(InputFormatError, match=r"missing key 'r' \(needs x, a, r\)$"):
        evaluate_instance({"theorem": "thm2.1", "field": "real", "x": [1, 0], "a": [1, 0]})
    inst = sample_admissible("prop7.3", "real", 3, seed=0)
    del inst["h"]
    with pytest.raises(InputFormatError, match=r"\(needs domain, f, g, h, pair_f, pair_g\)$"):
        evaluate_instance(inst)


def test_errors_inside_an_operation_are_not_missing_keys(monkeypatch):
    # operations are read from the registry when called, so this patch takes effect
    def broken(*args):
        raise KeyError("r")

    monkeypatch.setitem(_SPECS, "thm2.1", dataclasses.replace(_SPECS["thm2.1"], operation=broken))
    inst = {"theorem": "thm2.1", "field": "real", "x": [0.5, 0.5], "a": [1.0, 0.0], "r": 1.0}
    with pytest.raises(KeyError):
        evaluate_instance(inst)


def test_a_field_tag_and_its_name_give_equal_reports():
    assert FieldTag.parse(FieldTag.COMPLEX) is FieldTag.COMPLEX
    kwargs = dict(theorems=["thm2.2", "prop7.11"], trials=6, dims=(2, 3), seed=2)
    by_tag = run_suite(fields=[FieldTag.COMPLEX, FieldTag.REAL], keep_records=True, **kwargs)
    by_name = run_suite(fields=["complex", "real"], keep_records=True, **kwargs)
    assert by_tag.to_json() == by_name.to_json()
    assert sample_admissible("thm2.2", FieldTag.COMPLEX) == sample_admissible("thm2.2", "complex")


def test_theorem_order_does_not_change_per_theorem_stats():
    kwargs = dict(trials=12, dims=(1, 3), fields=("real", "complex"), seed=4)
    ab = run_suite(theorems=["thm2.1", "thm5.2"], **kwargs)
    ba = run_suite(theorems=["thm5.2", "thm2.1"], **kwargs)
    assert ab.per_theorem == ba.per_theorem
    assert list(ba.per_theorem) == ["thm5.2", "thm2.1"]


def test_far_indices_are_deterministic_and_distinct():
    far = 2**40
    a = sample_admissible("thm4.3", "complex", 3, seed=1, index=far)
    assert a == sample_admissible("thm4.3", "complex", 3, seed=1, index=far)
    assert a != sample_admissible("thm4.3", "complex", 3, seed=1, index=far + 1)
    for bad in (-1, 2**64):
        with pytest.raises(InputFormatError, match="index must be in"):
            sample_admissible("thm4.3", index=bad)


def test_domain_node_caps_are_checked_before_building(monkeypatch):
    built = []

    def recording(interval, weight, kind, n):
        built.append((kind, n))
        raise RuntimeError("stop before allocating")

    inst = sample_admissible("prop7.1", "real", 1, seed=0)
    monkeypatch.setattr(integral, "build_domain", recording)
    for kind, cap in (("gauss", 2048), ("trapezoid", 2**20)):
        over = {"interval": [0.0, 3.0], "rule": {"kind": kind, "n": cap + 1}}
        with pytest.raises(
            InputFormatError, match=f"^prop7.1 'domain': rule.n: {kind} rules take at most {cap} "
        ):
            evaluate_instance(dict(inst, domain=over))
        with pytest.raises(RuntimeError, match="stop before allocating"):
            evaluate_instance(dict(inst, domain=dict(over, rule={"kind": kind, "n": cap})))
    assert built == [("gauss", 2048), ("trapezoid", 2**20)]


def test_domain_cache_is_bounded_and_keeps_records(tmp_path, monkeypatch):
    n = 2**16  # 40 distinct domains hold 2.6M nodes, above the 2**21 bound
    specs = [
        {"interval": [0.0, 1.0], "weight": {"poly": [1.0, 0.1 * i]},
         "rule": {"kind": "trapezoid", "n": n}}
        for i in range(40)
    ]
    instances = []
    for i, spec in enumerate(specs + specs[:5]):  # the first five return after eviction
        inst = sample_admissible("prop7.1", "real", 1, seed=2, index=i)
        inst["domain"] = spec
        instances.append(inst)
    path = tmp_path / "domains.json"
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")

    cache = integral._DOMAIN_CACHE
    held = []
    add = cache.add

    def recording(key, dom):
        add(key, dom)
        held.append(cache.total)
        assert cache.total == sum(d.size for d in cache.values())

    cache.clear()
    monkeypatch.setattr(cache, "add", recording)
    try:
        bounded = evaluate_file(str(path)).records
        assert len(held) == 45 and max(held) <= integral._DOMAIN_CACHE_NODES
        cache.clear()
        monkeypatch.setattr(cache, "budget", 2**40)
        unbounded = evaluate_file(str(path)).records
        assert len(cache) == 40
    finally:
        cache.clear()
    assert bounded == unbounded


def test_sampled_documents_own_their_domain():
    # a returned document is the caller's to edit: changing any nested part
    # of its domain leaves the default spec, later samples and suites alone
    saved = json.loads(json.dumps(integral.DEFAULT_DOMAIN_SPEC))

    def suite():
        rep = run_suite(["prop7.1"], trials=4, dims=(3,), fields=("real",), seed=6,
                        keep_records=True)
        return rep.to_json()

    fresh, report = sample_admissible("prop7.1", "real", 3, seed=6), suite()
    try:
        for tid in ("prop7.1", "prop7.2", "prop7.11", "prop7.12", "prop7.3"):
            dom = sample_admissible(tid, "real", 3, seed=6)["domain"]
            dom["interval"][1] = 2.0
            dom["weight"]["poly"].append(1.0)
            dom["rule"]["kind"] = "trapezoid"
            dom["rule"]["n"] = 8
        assert integral.DEFAULT_DOMAIN_SPEC == saved
        assert sample_admissible("prop7.1", "real", 3, seed=6) == fresh
        assert suite() == report
    finally:
        integral.DEFAULT_DOMAIN_SPEC.clear()
        integral.DEFAULT_DOMAIN_SPEC.update(saved)
        integral._DOMAIN_CACHE.clear()


def _argument_bits(kind, value):
    """What tells two arguments of a kind apart bit for bit, -0.0 from 0.0 included."""
    if kind == "vector":
        return value.field, value.coords.dtype, value.coords.tobytes()
    if kind == "seq":
        return value.field, value.entries.dtype, value.entries.tobytes()
    if kind == "pair":
        return [(type(v), np.array(v).tobytes()) for v in (value.lo, value.hi)]
    if kind == "real":
        return type(value), np.array(value).tobytes()
    if kind == "count":
        return value.field, value.dim, value.size
    if kind == "domain":
        return value.nodes.tobytes(), value.weights.tobytes()
    return value.dtype, value.shape, value.tobytes()  # a function's coefficients


@given(st.integers(1, 16), st.booleans(), st.integers(0, 2**64 - 1))
def test_a_sampled_document_decodes_to_the_sampled_arguments(dim, adversarial, index):
    seed = 12
    for tid in THEOREM_IDS:
        fields = [FieldTag.REAL] if tid in REAL_ONLY_IDS else [FieldTag.REAL, FieldTag.COMPLEX]
        for field in fields:
            doc, (tag, rec_dim, args) = sampled_row(tid, field, dim, seed, adversarial, index=index)
            doc_tid, (doc_field, doc_dim, decoded) = harness._document_row(doc)
            assert (doc_tid, doc_field, doc_dim) == (tid, tag, rec_dim)
            for (key, kind), want, got in zip(_SPECS[tid].params, args, decoded):
                assert _argument_bits(kind, got) == _argument_bits(kind, want), (tid, field, key)
            # and the sampled row, evaluated alone, is the document's result (repr tells -0.0)
            alone = harness._row_result(tid, (tag, rec_dim, args))
            assert repr(alone) == repr(evaluate_instance(doc)), (tid, field)


#: sha256 of `json.dumps` of the list of documents `sample_admissible` writes at
#: seed 3 for every id x dims 1, 2, 3, 8, 16 x both fields x plain and
#: adversarial, the i-th of them at index i.  An encoder change keeps it.
SAMPLE_DOCS_SHA256 = "1f6c801a417fd6b492b2cca86ceb5eb83a16af00781fce54a8dbf8fe244408eb"


def test_sampled_documents_are_pinned():
    cases = itertools.product(THEOREM_IDS, (1, 2, 3, 8, 16), ("real", "complex"), (False, True))
    docs = [
        sample_admissible(tid, field, dim, seed=3, adversarial=adversarial, index=i)
        for i, (tid, dim, field, adversarial) in enumerate(cases)
    ]
    assert hashlib.sha256(json.dumps(docs).encode("utf-8")).hexdigest() == SAMPLE_DOCS_SHA256


def test_eval_keys_results_by_the_normalised_id(tmp_path):
    # one theorem spelled two ways is one per-theorem entry, and the records
    # name it by its id
    first = sample_admissible("thm2.1", "real", 3, seed=1)
    second = dict(sample_admissible("thm2.1", "real", 3, seed=1, index=1), theorem="THM2.1 ")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"instances": [first, second]}), encoding="utf-8")
    rep = evaluate_file(str(path))
    assert list(rep.per_theorem) == ["thm2.1"]
    assert rep.per_theorem["thm2.1"]["count"] == 2
    assert [rec["theorem"] for rec in rep.records] == ["thm2.1", "thm2.1"]


def test_eval_records_name_the_field_by_its_tag(tmp_path):
    # a field spelled in any case is one field, and the records name it by its tag
    real = dict(sample_admissible("thm2.1", "real", 3, seed=1), field="REAL")
    cplx = dict(sample_admissible("thm2.1", "complex", 3, seed=1, index=1), field="Complex")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"instances": [real, cplx]}), encoding="utf-8")
    assert [rec["field"] for rec in evaluate_file(str(path)).records] == ["real", "complex"]


# ---------------------------------------------------------------------------
# run_suite split over forked workers.


_SPLIT_CASES = {
    "plain": dict(trials=7, dims=(1, 2, 3, 8, 16), seed=3),
    "adversarial": dict(trials=7, dims=(1, 3), seed=4, adversarial=True),
    "negative tol": dict(theorems=["thm2.1", "prop7.12"], trials=5, tol=-1e-3, seed=5),
    "repeated ids": dict(
        theorems=["thm5.2", "THM5.2 ", "legacy1.20", "thm5.2"], trials=4, seed=6
    ),
    "fewer trials than workers": dict(trials=2, dims=(2, 8), seed=8),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_report_does_not_depend_on_the_worker_count(force_workers, monkeypatch, case):
    # 7 trials split unevenly over 2 and 3 workers; 2 trials leave one of 3
    # slices empty
    forks = count_forks(monkeypatch)
    reports = []
    for n in (1, 2, 3):
        force_workers(n)
        forks.clear()
        reports.append(run_suite(keep_records=True, **_SPLIT_CASES[case]).to_json())
        assert len(forks) == n - 1
        assert_no_child_left()
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def _act_at(monkeypatch, tid, index, action):
    """Call `action()` before `tid`'s instance `index` is evaluated, in any process.

    It wraps the operation in `tid`'s registry entry, which harness reads at
    call time; `tid` is an id whose instances are not grouped."""
    current = {}
    real_rng_for = harness._rng_for
    spec = _SPECS[tid]
    real_operation = spec.operation

    def rng_for(key, i):
        current["index"] = i
        return real_rng_for(key, i)

    def operation(*args):
        if current["index"] == index:
            action()
        return real_operation(*args)

    monkeypatch.setattr(harness, "_rng_for", rng_for)
    monkeypatch.setitem(_SPECS, tid, dataclasses.replace(spec, operation=operation))


def _log_pid(path):
    with open(path, "a", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")


def _logged_pids(path) -> set:
    return set(path.read_text(encoding="ascii").split()) if path.exists() else set()


def _logged_by(path):
    """`hold_here`'s `ready`: one of the run's children has logged its pid in `path`."""
    return lambda children: bool(_logged_pids(path) & {str(pid) for pid in children})


#: With 10 trials over 2 workers and a floor of 5, instance 1 of thm4.1 lies in
#: the first piece, 0..7, which this process claims before it forks, and 9 in
#: the next, 8..9, which the child claims while this process is held.  At the
#: default floor of 16 the first piece, always this process's, holds both.
@pytest.mark.parametrize("index", [1, 9])
def test_an_error_in_any_slice_is_raised_as_in_a_serial_run(
    force_workers, monkeypatch, capsys, tmp_path, index
):
    raised_in = tmp_path / "pids"

    def fail():
        _log_pid(raised_in)
        raise InputFormatError("broken")

    _act_at(monkeypatch, "thm4.1", index, fail)
    if index == 9:
        hold_here(monkeypatch, harness, "_results", _logged_by(raised_in))
    ids = ["thm4.1", "thm2.1", "thm5.2"]
    errors, cli = [], []
    for n in (1, 2):
        force_workers(n, floor=5)
        with pytest.raises(InputFormatError) as info:
            run_suite(ids, trials=10, seed=2)
        errors.append((type(info.value), str(info.value)))
        assert_no_child_left()
        rc = main(["verify", "--theorems", ",".join(ids), "--trials", "10", "--seed", "2"])
        captured = capsys.readouterr()
        cli.append((rc, captured.out, captured.err))
        assert_no_child_left()
    assert errors[1] == errors[0] == (InputFormatError, f"instance {index}: broken")
    assert cli[1] == cli[0] == (2, "", f"ineq: instance {index}: broken\n")
    pids = set(raised_in.read_text(encoding="ascii").split())
    # a child's error ends the child, and this process then computes its
    # slice: instance 9 raised in each of the two forked runs' child too
    assert len(pids) == (3 if index == 9 else 1)
    assert str(os.getpid()) in pids


def test_a_child_that_dies_has_its_slices_computed_here(force_workers, monkeypatch, tmp_path):
    # over 3 workers each theorem is one piece, and thm4.1's, the second, is
    # claimed by a child while this process is held; that child dies at
    # instance 7, and the pieces it claimed and did not send are computed here
    parent, died = os.getpid(), tmp_path / "pids"

    def die_in_a_child():
        if os.getpid() != parent:
            _log_pid(died)
            os._exit(1)

    _act_at(monkeypatch, "thm4.1", 7, die_in_a_child)
    kwargs = dict(theorems=["thm2.1", "thm4.1", "thm5.2"], trials=10, seed=2, keep_records=True)
    force_workers(1)
    serial = run_suite(**kwargs).to_json()
    hold_here(monkeypatch, harness, "_results", _logged_by(died))
    force_workers(3)
    assert run_suite(**kwargs).to_json() == serial
    assert_no_child_left()
    assert len(died.read_text(encoding="ascii").split()) == 1


# ---------------------------------------------------------------------------
# Whole theorems as pieces: two jobs or more per worker.

#: Eight ids, so at 2 and 3 workers a piece is a whole theorem but in the tail,
#: which 40 trials cut finer; the integral ids, last, are evaluated in groups.
_CLAIM_IDS = ["thm4.1", "thm2.1", "thm2.2", "thm5.2", "thm6.1", "legacy1.13", "prop7.1", "prop7.3"]
#: The same ids with thm4.1 fourth: a piece a child claims while this process is held.
_CHILD_IDS = [*_CLAIM_IDS[1:4], "thm4.1", *_CLAIM_IDS[4:]]
_CLAIM_CASES = {
    "plain": dict(trials=40, dims=(1, 3, 8), seed=11),
    "adversarial": dict(trials=40, dims=(2, 16), seed=12, adversarial=True),
    "records": dict(
        trials=40, dims=(1, 3, 8), fields=("complex", "real"), seed=13, keep_records=True
    ),
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", sorted(_CLAIM_CASES))
def test_whole_theorem_pieces_give_the_serial_report(force_workers, monkeypatch, case, workers):
    kwargs = dict(theorems=_CLAIM_IDS, **_CLAIM_CASES[case])
    force_workers(1)
    serial = run_suite(**kwargs).to_json()
    forks = count_forks(monkeypatch)
    force_workers(workers)
    assert run_suite(**kwargs).to_json() == serial
    assert len(forks) == workers - 1
    if case == "adversarial":
        assert json.loads(serial)["aggregate"]["counterexamples"] > 0


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("where", ["here", "child"])
def test_an_error_in_a_claimed_piece_is_the_serial_error(
    force_workers, monkeypatch, tmp_path, where, workers
):
    # thm4.1 is the first piece, which this process claims before it forks,
    # or the fourth, which a child claims while this process is held
    raised_in = tmp_path / "pids"

    def fail():
        _log_pid(raised_in)
        raise InputFormatError("broken")

    _act_at(monkeypatch, "thm4.1", 21, fail)
    ids = _CLAIM_IDS if where == "here" else _CHILD_IDS
    force_workers(1)
    with pytest.raises(InputFormatError) as serial:
        run_suite(ids, trials=40, seed=3)
    raised_in.unlink()
    child_raised = _logged_by(raised_in)
    forks = hold_here(
        monkeypatch, harness, "_results", lambda children: where == "here" or child_raised(children)
    )
    force_workers(workers)
    with pytest.raises(InputFormatError) as forked:
        run_suite(ids, trials=40, seed=3)
    assert_no_child_left()
    assert str(forked.value) == str(serial.value) == "instance 21: broken"
    here = str(os.getpid())
    if where == "here":
        assert _logged_pids(raised_in) == {here}
    else:  # raised in the child that claimed it, then here in its turn
        [child] = _logged_pids(raised_in) - {here}
        assert _logged_pids(raised_in) == {here, child} and int(child) in forks


@pytest.mark.parametrize("workers", [2, 3])
def test_a_child_that_dies_mid_run_has_its_pieces_computed_here(
    force_workers, monkeypatch, tmp_path, workers
):
    # the child that claims thm4.1 dies at its instance 21, after sending the
    # pieces it counted before
    parent, died = os.getpid(), tmp_path / "pids"

    def die_in_a_child():
        if os.getpid() != parent:
            _log_pid(died)
            os._exit(1)

    _act_at(monkeypatch, "thm4.1", 21, die_in_a_child)
    kwargs = dict(theorems=_CHILD_IDS, trials=40, seed=4, keep_records=True)
    force_workers(1)
    serial = run_suite(**kwargs).to_json()
    forks = hold_here(monkeypatch, harness, "_results", _logged_by(died))
    force_workers(workers)
    assert run_suite(**kwargs).to_json() == serial
    assert_no_child_left()
    [child] = _logged_pids(died)
    assert int(child) in forks


@pytest.mark.parametrize("workers", [2, 3])
def test_a_slow_child_changes_no_byte(force_workers, monkeypatch, workers):
    parent, results, slept = os.getpid(), harness._results, []

    def slow_first_piece(rows):
        if os.getpid() != parent and not slept:  # each child appends to its own copy
            slept.append(True)
            time.sleep(0.2)
        return results(rows)

    monkeypatch.setattr(harness, "_results", slow_first_piece)
    kwargs = dict(theorems=_CLAIM_IDS, **_CLAIM_CASES["records"])
    force_workers(1)
    serial = run_suite(**kwargs).to_json()
    force_workers(workers)
    assert run_suite(**kwargs).to_json() == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_a_clean_run_evaluates_every_instance_once(force_workers, monkeypatch, tmp_path, workers):
    logged, suite_results = tmp_path / "evaluated", harness._suite_results

    def logging_results(tid, grid, seed, adversarial, lo, hi):
        results = suite_results(tid, grid, seed, adversarial, lo, hi)
        for i, result in zip(range(lo, hi), results):
            with open(logged, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {tid} {i}\n")
            yield result

    monkeypatch.setattr(harness, "_suite_results", logging_results)
    forks = count_forks(monkeypatch)
    force_workers(workers)
    run_suite(_CLAIM_IDS, trials=40, dims=(1, 3), seed=6)
    rows = [line.split() for line in logged.read_text(encoding="ascii").splitlines()]
    assert sorted((tid, int(i)) for _, tid, i in rows) == sorted(
        (tid, i) for tid in _CLAIM_IDS for i in range(40)
    )
    assert {pid for pid, _, _ in rows} <= {str(os.getpid()), *map(str, forks)}


def test_a_forked_run_takes_pipe_descriptors_past_the_select_limit(force_workers):
    # with 1,100 descriptors open, the claim and result pipes get numbers
    # above select's FD_SETSIZE of 1024
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < 1200:
        pytest.skip(f"RLIMIT_NOFILE {soft} leaves no descriptor above 1024")
    held = []
    try:
        while not held or held[-1] < 1100:
            held.append(os.open(os.devnull, os.O_RDONLY))
        kwargs = dict(theorems=_CLAIM_IDS, trials=10, seed=7, keep_records=True)
        force_workers(1)
        serial = run_suite(**kwargs).to_json()
        force_workers(3)
        assert run_suite(**kwargs).to_json() == serial
    finally:
        for fd in held:
            os.close(fd)


# ---------------------------------------------------------------------------
# A child's messages, and evaluate_file split over forked workers.


def test_a_records_free_child_message_does_not_grow_with_trials(
    force_workers, monkeypatch, tmp_path
):
    # a child sends one pickled (piece, tally) per piece, here the second
    # half of the one job (a floor of half the job cuts it in two), which it
    # claims while this process is held; without records its size does not
    # depend on the piece's length, but for the pickled width of the two
    # counts (the total and the theorem's), one byte wider each from 256 on
    logged, dumps = tmp_path / "sizes", pickle.dumps

    def logging_dumps(obj, protocol=None):
        data = dumps(obj, protocol)
        with open(logged, "a", encoding="ascii") as fh:
            fh.write(f"{len(data)}\n")
        return data

    monkeypatch.setattr(pickle, "dumps", logging_dumps)
    hold_here(monkeypatch, harness, "_results", lambda children: logged.exists())
    sizes = {}
    for trials in (100, 10_000):
        force_workers(2, floor=trials // 2)
        run_suite(["thm2.1"], trials=trials, dims=(1, 2, 3, 8, 16), seed=1)
        sizes[trials] = [int(n) for n in logged.read_text(encoding="ascii").split()]
        logged.unlink()
    assert len(sizes[100]) == len(sizes[10_000]) == 1
    assert 0 <= sizes[10_000][0] - sizes[100][0] <= 2
    assert sizes[10_000][0] < 512


@pytest.mark.parametrize("case", ["every id", "two instances"])
def test_eval_does_not_depend_on_the_worker_count(force_workers, monkeypatch, tmp_path, case):
    # 100 instances split unevenly over 3 workers; 2 instances, fewer than
    # 3 CPUs, take 2 workers, one instance each
    if case == "every id":
        path, size = every_id_document(tmp_path), 100
    else:
        docs = [sample_admissible("thm5.2", "complex", 3, seed=4, index=i) for i in range(2)]
        path, size = write_document(tmp_path, docs), 2
    forks = count_forks(monkeypatch)
    reports = []
    for n in (1, 2, 3):
        force_workers(n)
        forks.clear()
        reports.append(evaluate_file(path).to_json())
        assert len(forks) == min(n, size) - 1
        assert_no_child_left()
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    if case == "every id":
        assert json.loads(reports[0])["aggregate"]["counterexamples"] > 0


def _act_at_marked(monkeypatch, action):
    """Call `action()` before a document instance with a "mark" key is decoded."""
    real_document_row = harness._document_row

    def document_row(inst):
        if "mark" in inst:
            action()
        return real_document_row(inst)

    monkeypatch.setattr(harness, "_document_row", document_row)


def _marked_document(tmp_path, index) -> str:
    """10 instances, the one at `index` marked."""
    docs = [sample_admissible("thm4.1", "real", 3, seed=2, index=i) for i in range(10)]
    docs[index]["mark"] = True
    return write_document(tmp_path, docs)


#: With 10 instances over 2 workers and a floor of 5, instance 1 lies in the
#: piece this process claims before it forks, 0..4, and 9 in the one the child
#: claims while it is held, 5..9.  At the default floor of 16 the document is
#: one piece.
@pytest.mark.parametrize("index", [1, 9])
def test_an_eval_error_in_any_slice_is_raised_as_in_a_serial_run(
    force_workers, monkeypatch, capsys, tmp_path, index
):
    raised_in = tmp_path / "pids"

    def fail():
        _log_pid(raised_in)
        raise InputFormatError("broken")

    _act_at_marked(monkeypatch, fail)
    if index == 9:
        hold_here(monkeypatch, harness, "_results", _logged_by(raised_in))
    path = _marked_document(tmp_path, index)
    errors, cli = [], []
    for n in (1, 2):
        force_workers(n, floor=5)
        with pytest.raises(InputFormatError) as info:
            evaluate_file(path)
        errors.append((type(info.value), str(info.value)))
        assert_no_child_left()
        rc = main(["eval", "--input", path])
        captured = capsys.readouterr()
        cli.append((rc, captured.out, captured.err))
        assert_no_child_left()
    assert errors[1] == errors[0] == (InputFormatError, f"instance {index}: broken")
    assert cli[1] == cli[0] == (2, "", f"ineq: instance {index}: broken\n")
    pids = set(raised_in.read_text(encoding="ascii").split())
    assert len(pids) == (3 if index == 9 else 1)
    assert str(os.getpid()) in pids


def test_an_eval_child_that_dies_has_its_slice_computed_here(
    force_workers, monkeypatch, tmp_path
):
    # over 3 workers and with a floor of 3, instance 7 lies in the third piece,
    # 6..8, which a child claims while this process is held
    parent, died = os.getpid(), tmp_path / "pids"

    def die_in_a_child():
        if os.getpid() != parent:
            _log_pid(died)
            os._exit(1)

    _act_at_marked(monkeypatch, die_in_a_child)
    path = _marked_document(tmp_path, 7)
    force_workers(1, floor=3)
    serial = evaluate_file(path).to_json()
    hold_here(monkeypatch, harness, "_results", _logged_by(died))
    force_workers(3)
    assert evaluate_file(path).to_json() == serial
    assert_no_child_left()
    assert len(died.read_text(encoding="ascii").split()) == 1


def test_result_is_the_one_constructor_of_instance_results():
    # every result is `_result`'s copy of a report's certificate, so the record
    # template's types hold for every result a tally counts
    def constructors(tree, scope=""):
        found = []
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += constructors(node, f"{scope}.{node.name}".lstrip("."))
                continue
            if isinstance(node, ast.Call):
                func = node.func
                if "InstanceResult" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    found.append(scope or "<module>")
            found += constructors(node, scope)
        return found

    package = Path(harness.__file__).parent
    assert [
        (path.name, scope)
        for path in sorted(package.glob("*.py"))
        for scope in constructors(ast.parse(path.read_text(encoding="utf-8")))
    ] == [("harness.py", "_result")]
