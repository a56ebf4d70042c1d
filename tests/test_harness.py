"""Randomized verification harness: sampling, evaluation, suite reports."""

import csv
import json
import zlib

import numpy as np
import pytest

from ineq import (
    FieldMismatchError,
    FieldTag,
    InputFormatError,
    THEOREM_IDS,
    coefficients,
    emit_report,
    evaluate_file,
    evaluate_instance,
    run_suite,
    sample_admissible,
    vector,
)
from ineq import harness
from ineq.harness import _SPECS, CSV_COLUMNS, REAL_ONLY_IDS, normalize_theorem_id


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
            assert result.passed(), (tid, field)


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
    rep = run_suite(theorems=["prop7.11"], trials=4, dims=(2,), fields=("complex",))
    assert rep.per_theorem["prop7.11"]["count"] == 0


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
    decide = harness.leq_with_slack

    def counting(lhs, rhs, tol):
        calls.append((lhs, rhs))
        return decide(lhs, rhs, tol)

    docs = [
        sample_admissible(tid, "real", 3, seed=6, adversarial=(i % 2 == 1), index=i)
        for i, tid in enumerate(THEOREM_IDS)
    ]
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"instances": docs}), encoding="utf-8")
    monkeypatch.setattr(harness, "leq_with_slack", counting)
    rep = evaluate_file(str(path))
    assert rep.counterexamples > 0
    assert calls == [(v1, v2) for rec in rep.records for _, v1, _, v2, _ in rec["comparisons"]]


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


def test_typed_values_pass_through_only_in_their_field():
    inst = {"theorem": "thm2.1", "field": "real", "x": [0.5, 0.5], "a": [1.0, 0.0], "r": 1.0}
    typed = dict(inst, x=vector(inst["x"], FieldTag.REAL))
    assert evaluate_instance(typed) == evaluate_instance(inst)
    with pytest.raises(FieldMismatchError):
        evaluate_instance(dict(typed, field="complex", a=[{"re": 1.0}, {"re": 0.0}]))


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


def test_registry_is_the_one_source_of_ids_samplers_and_schemas():
    assert THEOREM_IDS == tuple(_SPECS)
    assert REAL_ONLY_IDS == {"prop7.11", "prop7.12"}
    for tid, spec in _SPECS.items():
        doc = sample_admissible(tid, "real", 3, seed=0)
        decode_order = [key for _, key, _ in spec.steps]
        assert list(doc) == ["theorem", "field", *decode_order, "seed"], tid
        assert callable(getattr(harness, spec.operation)), tid


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
    # operations are looked up by name when called, so this patch takes effect
    def broken(*args):
        raise KeyError("r")

    monkeypatch.setattr(harness, "reverse_schwarz_ball", broken)
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


def test_instance_i_starts_at_counter_block_i_times_2_to_the_64():
    # a generator that instance i - 1 left dirty (many doubles, a half-used
    # 32-bit word) yields the same instance i as a fresh stream advanced to
    # block i * 2**64, which is what sample_admissible(index=i) replays
    tid, seed, i = "thm6.2", 9, 5
    stream = harness._Stream(seed, tid)
    dirty = harness._rng_for(stream, i - 1)
    dirty.uniform(size=10_001)
    dirty.integers(0, 2**31, size=3, dtype=np.uint32)
    reused = harness._rng_for(stream, i)
    key = np.random.SeedSequence([seed, zlib.crc32(tid.encode("ascii"))])
    fresh = np.random.Generator(np.random.Philox(key).advance(i << 64))
    assert reused.uniform(size=7).tolist() == fresh.uniform(size=7).tolist()

    doc = sample_admissible(tid, "complex", 4, seed, index=i)
    inst = harness._SAMPLERS[tid](harness._rng_for(stream, i), 4, FieldTag.COMPLEX, False)
    assert dict(harness._encode_instance(inst), seed=seed) == doc


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

    monkeypatch.setattr(harness, "build_domain", recording)
    for kind, cap in (("gauss", 2048), ("trapezoid", 2**20)):
        over = {"interval": [0.0, 3.0], "rule": {"kind": kind, "n": cap + 1}}
        with pytest.raises(InputFormatError, match=f"^rule.n: {kind} rules take at most {cap} "):
            harness._dec_domain(over)
        with pytest.raises(RuntimeError, match="stop before allocating"):
            harness._dec_domain(dict(over, rule={"kind": kind, "n": cap}))
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

    cache = harness._DOMAIN_CACHE
    held = []
    add = cache.add

    def recording(key, dom):
        add(key, dom)
        held.append(cache.nodes)
        assert cache.nodes == sum(d.size for d in cache.values())

    cache.clear()
    monkeypatch.setattr(cache, "add", recording)
    try:
        bounded = evaluate_file(str(path)).records
        assert len(held) == 45 and max(held) <= harness._DOMAIN_CACHE_NODES
        cache.clear()
        monkeypatch.setattr(harness, "_DOMAIN_CACHE_NODES", 2**40)
        unbounded = evaluate_file(str(path)).records
        assert len(cache) == 40
    finally:
        cache.clear()
    assert bounded == unbounded


@pytest.mark.parametrize("field", ["real", "complex"])
def test_coordinate_lists_decode_bit_identically_to_the_per_element_route(field):
    constructors = {"vector": vector, "seq": coefficients}
    checked = 0
    for tid in THEOREM_IDS:
        for dim in (1, 2, 3, 8, 16):
            inst = sample_admissible(tid, field, dim, seed=4, index=dim)
            tag = FieldTag.parse(inst["field"])
            for key, kind in _SPECS[tid].params:
                if kind not in constructors:
                    continue
                fast = harness._dec_coords(inst[key], tag)
                assert isinstance(fast, np.ndarray), (tid, key)  # the one-call route ran
                slow = [harness._dec_scalar(v) for v in inst[key]]
                build = constructors[kind]
                a, b = build(fast, tag), build(slow, tag)
                got, want = (a.coords, b.coords) if kind == "vector" else (a.entries, b.entries)
                assert got.dtype == want.dtype == tag.dtype
                assert got.tobytes() == want.tobytes(), (tid, dim, key)
                checked += 1
    assert checked > 200


def test_sampled_documents_own_their_domain():
    # a returned document is the caller's to edit: changing any nested part
    # of its domain leaves the default spec, later samples and suites alone
    saved = json.loads(json.dumps(harness.DEFAULT_DOMAIN_SPEC))

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
        assert harness.DEFAULT_DOMAIN_SPEC == saved
        assert sample_admissible("prop7.1", "real", 3, seed=6) == fresh
        assert suite() == report
    finally:
        harness.DEFAULT_DOMAIN_SPEC.clear()
        harness.DEFAULT_DOMAIN_SPEC.update(saved)
        harness._DOMAIN_CACHE.clear()


class _UniformOnly:
    """A draw source with `uniform(low, high, size)` and nothing else."""

    __slots__ = ("_rng",)

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._rng.uniform(low, high, size)


def test_samplers_draw_only_through_uniform():
    # the draw-source contract: a stand-in exposing only `uniform` reproduces
    # every sampled document bit for bit
    seed, checked = 11, 0
    for tid in THEOREM_IDS:
        stream = harness._Stream(seed, tid)
        tags = [FieldTag.REAL] if tid in REAL_ONLY_IDS else [FieldTag.REAL, FieldTag.COMPLEX]
        for dim in (1, 2, 3, 8, 16):
            for tag in tags:
                for adversarial in (False, True):
                    for i in range(3):
                        want = sample_admissible(tid, tag, dim, seed, adversarial, index=i)
                        source = _UniformOnly(harness._rng_for(stream, i))
                        inst = harness._SAMPLERS[tid](source, dim, tag, adversarial)
                        got = dict(harness._encode_instance(inst), seed=seed)
                        assert json.dumps(got) == json.dumps(want), (tid, dim, tag, i)
                        checked += 1
    assert checked == 1440
