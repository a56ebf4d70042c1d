"""Command line entry points."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineq import (
    THEOREM_IDS, InputFormatError, documents, evaluate_file, harness, integral, run_suite,
    sample_admissible, space,
)
from ineq.cli import main
from ineq.sharpness import CONSTRUCTIONS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ineq" in capsys.readouterr().out


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_small_run(capsys):
    rc, out, err = run_cli(
        capsys,
        "verify",
        "--theorems", "thm2.1,thm4.1",
        "--trials", "6",
        "--dims", "2,3",
        "--field", "real",
        "--seed", "1",
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["metadata"]["theorems"] == ["thm2.1", "thm4.1"]
    assert doc["metadata"]["fields"] == ["real"]
    assert doc["aggregate"]["violations"] == 0
    assert "records" not in doc


def test_verify_runs_a_repeated_theorem_once(capsys):
    argv = ["verify", "--trials", "4", "--dims", "2", "--field", "real"]
    rc, twice, _ = run_cli(capsys, *argv, "--theorems", "thm2.1,thm2.1")
    assert rc == 0
    assert twice == run_cli(capsys, *argv, "--theorems", "thm2.1")[1]
    assert json.loads(twice)["per_theorem"]["thm2.1"]["count"] == 4


def test_verify_output_is_reproducible(capsys):
    argv = ["verify", "--theorems", "thm2.2", "--trials", "5", "--seed", "9"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_unknown_theorem(capsys):
    rc, out, err = run_cli(capsys, "verify", "--theorems", "thm9.9", "--trials", "2")
    assert rc == 2
    assert err.startswith("ineq: ")
    assert "thm9.9" in err


def test_verify_rejects_bad_flag_values(capsys):
    # an out-of-range value is the library's one-line refusal, and a field argparse
    # does not offer is its usage error
    for argv in (
        ["verify", "--trials", "0"],
        ["verify", "--seed", "-1"],
        ["verify", "--dims", "0,2"],
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "") and err.startswith("ineq: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", "quaternion"])
    assert exc.value.code == 2


#: Flags whose value parses but is out of range: (argv, the library call given the
#: parsed value), "DOC" standing for an instance document's path.
_REFUSED_FLAGS = {
    "trials 0": (["verify", "--trials", "0"], lambda doc: run_suite(trials=0)),
    "seed -1": (["verify", "--seed", "-1"], lambda doc: run_suite(seed=-1)),
    "dims 0,2": (["verify", "--dims", "0,2"], lambda doc: run_suite(dims=(0, 2))),
    "dims ,": (["verify", "--dims", ","], lambda doc: run_suite(dims=())),
    "tol nan": (["verify", "--tol", "nan"], lambda doc: run_suite(tol=math.nan)),
    "theorems ,": (["verify", "--theorems", ","], lambda doc: run_suite(theorems=())),
    "eval tol inf": (
        ["eval", "--input", "DOC", "--tol", "inf"], lambda doc: evaluate_file(doc, tol=math.inf)
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_FLAGS))
def test_a_refused_flag_is_the_library_refusal_in_one_line(tmp_path, capsys, case):
    # the library owns every range rule: the command line prints its message, and
    # no traceback
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"instances": [sample_admissible("thm2.1")]}), encoding="utf-8")
    argv, call = _REFUSED_FLAGS[case]
    with pytest.raises(InputFormatError) as refused:
        call(str(doc))
    argv = [str(doc) if arg == "DOC" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"ineq: {refused.value}\n")


def test_a_verify_that_draws_no_instance_exits_2(capsys):
    # prop7.11 takes real fields only: alone over the complex field it would certify
    # nothing, and alongside an id that draws it counts 0
    assert run_cli(capsys, "verify", "--theorems", "prop7.11", "--field", "complex") == (
        2, "", "ineq: the run draws no instance: prop7.11 takes real fields only\n"
    )
    rc, out, err = run_cli(
        capsys, "verify", "--theorems", "prop7.11,thm2.1", "--field", "complex", "--trials", "4"
    )
    assert (rc, err) == (0, "")
    per_theorem = json.loads(out)["per_theorem"]
    assert (per_theorem["prop7.11"]["count"], per_theorem["thm2.1"]["count"]) == (0, 4)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dims", "99999999999", "--theorems", "thm2.1"],
        ["--dims", "3,513", "--theorems", "thm5.1"],
        ["--dims", "2," + "9" * 4000, "--theorems", "prop7.1"],
    ],
    ids=["thm2.1", "thm5.1", "prop7.1"],
)
def test_verify_too_large_a_dimension_exits_2_before_sampling(capsys, monkeypatch, argv):
    # every id takes one rule, the family cap of `eval`: dimension 513 is the first over it
    def never(*args):
        raise AssertionError("sampled a dimension over the cap")

    monkeypatch.setattr(harness, "_rng_for", never)
    rc, out, err = run_cli(capsys, "verify", "--trials", "1", *argv)
    assert rc == 2 and out == "" and err.count("\n") == 1 and len(err) < 300
    assert err.startswith("ineq: dimension ") and "is too large" in err


def test_verify_dimension_cap_is_on_the_family_size_times_dim(capsys):
    # dimension 512 samples a family of 511 vectors: 261,632 coordinates, within the
    # cap of 2**18; dimension 513 samples 512 of them, 262,656 coordinates
    argv = ["verify", "--trials", "2", "--theorems", "thm2.1", "--dims"]
    rc, out, err = run_cli(capsys, *argv, "1,512")
    assert rc == 0 and err == ""
    assert harness.sample_admissible("thm6.2", "complex", 512)["size"] == 511
    rc, out, err = run_cli(capsys, *argv, "1,513")
    assert rc == 2 and out == ""
    assert err == (
        "ineq: dimension 513 is too large: a family sampled in it takes more than 262144 "
        "coordinates\n"
    )
    with pytest.raises(harness.InputFormatError, match="^dimension 513 is too large"):
        harness.sample_admissible("thm6.2", "complex", 513)


def test_verify_negative_tol_forces_violation_exit(capsys):
    # with a negative slack every comparison fails, exercising exit code 1
    rc, out, err = run_cli(
        capsys, "verify", "--theorems", "thm2.1", "--trials", "3", "--tol", "-1",
    )
    assert rc == 1
    assert json.loads(out)["aggregate"]["violations"] > 0


def test_sharpness_default_grid(capsys):
    rc, out, err = run_cli(capsys, "sharpness", "--construction", "thm21")
    assert rc == 0
    doc = json.loads(out)
    assert doc["construction"] == "thm21"
    assert len(doc["ratios"]) == 7
    assert 0.999 <= doc["extrapolated_limit"] <= 1.001


def test_sharpness_custom_grid(capsys):
    rc, out, err = run_cli(
        capsys, "sharpness", "--construction", "thm22", "--eps-grid", "0.5:0.125:3"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["epsilons"] == pytest.approx([0.5, 0.25, 0.125])


def test_sharpness_invalid_grid_exits_2(capsys):
    rc, out, err = run_cli(
        capsys, "sharpness", "--construction", "thm22", "--eps-grid", "2.0:0.5:2"
    )
    assert rc == 2
    assert err.startswith("ineq: ")


def test_eval_roundtrip(tmp_path, capsys):
    instances = [
        sample_admissible("thm2.1", "real", 2, seed=6, index=0),
        sample_admissible("thm6.2", "complex", 3, seed=6, index=1),
    ]
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    out_path = tmp_path / "out.json"

    rc, out, err = run_cli(
        capsys, "eval", "--input", str(src), "--output", str(out_path)
    )
    assert rc == 0 and err == ""
    stdout_doc = json.loads(out)
    assert stdout_doc["aggregate"]["count"] == 2
    assert "records" not in stdout_doc
    full = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(full["records"]) == 2

    csv_path = tmp_path / "out.csv"
    rc, _, _ = run_cli(
        capsys, "eval", "--input", str(src), "--output", str(csv_path), "--format", "csv"
    )
    assert rc == 0
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[:3] == ["index", "theorem", "field"]


def test_eval_missing_input_exits_2(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "eval", "--input", str(tmp_path / "nope.json"))
    assert rc == 2
    assert err.startswith("ineq: ")


def test_eval_csv_without_output_exits_2_before_reading(tmp_path, capsys):
    # stdout carries the JSON summary, so CSV records need a file: the flags are
    # refused before the document is read, so a missing one is not what is reported
    src = tmp_path / "doc.json"
    src.write_text(json.dumps({"instances": [_thm51()]}), encoding="utf-8")
    for path in (src, tmp_path / "nope.json"):
        rc, out, err = run_cli(capsys, "eval", "--input", str(path), "--format", "csv")
        assert rc == 2 and out == ""
        assert err == "ineq: --format csv needs --output FILE: stdout carries the JSON summary\n"


def test_eval_malformed_instance_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"instances": [{"theorem": "thm2.1"}]}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 2
    assert "instance 0" in err


@pytest.mark.parametrize("command", [["verify"], ["eval", "--input", "unused.json"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_exits_2(capsys, command, tol):
    assert run_cli(capsys, *command, f"--tol={tol}") == (
        2, "", f"ineq: tol must be finite, got {float(tol)!r}\n"
    )


@pytest.mark.parametrize("grid", ["nan:1:5", "inf:1:3", "1e-3:inf:3", "1:-inf:2", "1e-3:nan:4"])
def test_non_finite_eps_grid_exits_2(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--construction", "thm21", f"--eps-grid={grid}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--eps-grid" in err and "finite" in err and "Traceback" not in err


def test_a_degenerate_sharpness_pair_exits_2_with_one_line(capsys):
    # eps 1e-17 rounds the thm22 pair (1 - eps, 1 + eps) to (1.0, 1.0)
    rc, out, err = run_cli(
        capsys, "sharpness", "--construction", "thm22", "--eps-grid", "0.5:1e-17:2"
    )
    assert (rc, out) == (2, "")
    assert err == "ineq: pair (1.0, 1.0): hi is within relative 1e-12 of +/- lo\n"


@settings(max_examples=150, deadline=None)
@given(
    construction=st.sampled_from(CONSTRUCTIONS),
    start=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    stop=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    count=st.integers(1, 4),
)
@example(construction="thm21", start=5e-324, stop=5e-324, count=1)  # a zero bound
def test_any_finite_positive_eps_grid_exits_0_or_2_with_one_line(
    construction, start, stop, count
):
    out, err = io.StringIO(), io.StringIO()
    argv = ["sharpness", "--construction", construction, f"--eps-grid={start!r}:{stop!r}:{count}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1
    if rc == 0:
        assert len(json.loads(out.getvalue())["ratios"]) <= count
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("ineq: ")


def test_eval_overflow_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.json"
    src.write_text(
        '{"instances":[{"theorem":"thm2.1","field":"real",'
        '"x":[1e200,1e200],"a":[1e200,0],"r":1.0}]}',
        encoding="utf-8",
    )
    rc, out, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 2
    assert out == ""
    assert err.startswith("ineq: instance 0: ") and "Traceback" not in err


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
def test_eval_refuses_an_admissible_ratio_that_overflows(tmp_path, capsys, output):
    # the gap is -1.49e284 from rounding and the bound 5e-281, so gap / bound is
    # -inf: the tally refuses the result before the report head renders it
    x = [1.1e150, 3.3e149, 7e148]
    src = tmp_path / "ratio.json"
    src.write_text(json.dumps({"instances": [
        {"theorem": "thm2.1", "field": "real", "x": x, "a": x, "r": 1e-140}
    ]}), encoding="utf-8")
    argv = ["eval", "--input", str(src)] + (["--output", str(tmp_path / "out.json")] * output)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "ineq: instance 0: thm2.1 ratio is -inf; the inputs leave double precision\n"


_PROP71 = {
    "theorem": "prop7.1",
    "field": "real",
    "domain": {"rule": {"kind": "gauss", "n": 8}},
    "f": {"poly": [1.0, 0.5]},
    "g": {"poly": [1.0]},
    "r": 1.0,
}


def _thm51(**changes):
    return dict(sample_admissible("thm5.1", "real", 3, seed=0), **changes)


def _sampled(tid, field="real", **changes):
    return dict(sample_admissible(tid, field, 2, seed=0), **changes)


_THM43 = _sampled("thm4.3", "complex")


@pytest.mark.parametrize(
    "instance, message",
    [
        (dict(_PROP71, domain={"rule": "gauss"}), "prop7.1 'domain': rule: expected an object"),
        (dict(_PROP71, domain={"rule": ["gauss", 8]}), "prop7.1 'domain': rule: expected"),
        (dict(_PROP71, domain={"rule": {"n": 8.9}}), "prop7.1 'domain': rule.n: expected an"),
        (
            dict(_PROP71, domain={"interval": [0, 1, 5]}),
            "prop7.1 'domain': interval: expected [a, b], got [0, 1, 5]",
        ),
        (dict(_PROP71, f={"poly": []}), "prop7.1 'f': expected a non-empty list, got []"),
        (dict(_PROP71, f={"values": []}), "prop7.1 'f': expected a non-empty list, got []"),
        (dict(_PROP71, r="1.5"), "prop7.1 'r': expected a number, got '1.5'"),
        (dict(_PROP71, r=True), "prop7.1 'r': expected a number, got True"),
        (_thm51(size=2.7), "thm5.1 'size': expected an integer, got 2.7"),
        (_thm51(size="2"), "thm5.1 'size': expected an integer, got '2'"),
        (_thm51(size=True), "thm5.1 'size': expected an integer, got True"),
        (
            _sampled("thm2.2", pair={"lo": float("inf"), "hi": 2.0}),
            "thm2.2 'pair': expected a finite 'lo', got inf",
        ),
        (
            dict(_THM43, pair_x=dict(_THM43["pair_x"], hi={"re": float("nan"), "im": 0.0})),
            "thm4.3 'pair_x': expected a finite 'hi', got (nan+0j)",
        ),
        (_sampled("thm2.1", r=float("inf")), "thm2.1 'r': expected a finite number, got inf"),
        (_sampled("prop2.4", m=float("-inf")), "prop2.4 'm': expected a finite number, got -inf"),
        (
            dict(_PROP71, domain={"interval": [-1e308, 1e308], "weight": {"poly": [1.0]}}),
            "prop7.1 'domain': interval [-1e+308, 1e+308] is wider than the float range\n",
        ),
    ],
    ids=[
        "rule-string", "rule-list", "rule-n-fraction", "interval-three", "empty-poly",
        "empty-values", "r-string", "r-bool", "size-fraction", "size-string", "size-bool",
        "pair-lo-inf", "complex-pair-hi-nan", "r-inf", "m-minus-inf", "interval-too-wide",
    ],
)
def test_eval_bad_parameter_exits_2_naming_the_key(tmp_path, capsys, instance, message):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"instances": [instance]}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 2 and out == ""
    assert err.startswith(f"ineq: instance 0: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


#: sha256 of the stdout of `ineq verify --trials 40 --dims 1,2,3,8,16 --seed S
#: [--adversarial]`.  A change that alters these bytes on purpose updates them
#: and says why in CHANGES.md.
VERIFY_SHA256 = {
    (0, False): "b25314a2beed010b8cd5385e0ef674a71f1cf966f2adabb10904a4963b379796",
    (0, True): "15c8153514601268e7dff0c8ed0b6e9efe8b3f50a9114ff596cf0c2848e6cd7b",
    (1, False): "bb42731556b9e3227afb06f2e9ccaec284b5ec52a51503810389133d07fd575e",
    (1, True): "1d3d0362d2fbd2238048ddf83fe74e4acf71b99e21151f296889e88abeec0fee",
    (7, False): "2081e2948c3cea2fb98a2fe07b9741a5e2bcba798ee06984d9d31b3a72c0c0b2",
    (7, True): "7d009877751dfdae23e2136385a475da8aed433d7bbe45ff85ad74f435cd5ed2",
}


@pytest.mark.parametrize("seed, adversarial", sorted(VERIFY_SHA256))
def test_verify_stdout_is_pinned(capsys, seed, adversarial):
    argv = ["verify", "--trials", "40", "--dims", "1,2,3,8,16", "--seed", str(seed)]
    rc, out, err = run_cli(capsys, *argv, *(["--adversarial"] if adversarial else []))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_SHA256[seed, adversarial]


@pytest.mark.parametrize("seed, adversarial", sorted(VERIFY_SHA256))
def test_verify_stdout_is_pinned_on_two_workers(capsys, force_workers, seed, adversarial):
    force_workers(2)
    test_verify_stdout_is_pinned(capsys, seed, adversarial)


def test_forked_verify_writes_stdout_once():
    # text left unflushed in stdout before the fork must not be written again
    # by a child
    argv = ["verify", "--trials", "40", "--dims", "1,2,3,8,16", "--seed", "0"]
    script = (
        "import os, sys\n"
        "from ineq import runner\n"
        "from ineq.cli import main\n"
        "runner._FORK_BREAK_EVEN = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.stdout.write('before the report\\n')\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # keep the text in the buffer at the fork
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == ""
    head, report = proc.stdout.split("\n", 1)
    assert head == "before the report"
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == VERIFY_SHA256[0, False]


def _sampled_document() -> dict:
    """Every id x dims 1,2,3,8,16 x both fields, plain then adversarial."""
    instances = [
        sample_admissible(tid, field, dim, seed=3, adversarial=adversarial, index=i)
        for adversarial in (False, True)
        for i, (tid, dim, field) in enumerate(
            (tid, dim, field)
            for tid in THEOREM_IDS
            for dim in (1, 2, 3, 8, 16)
            for field in ("real", "complex")
        )
    ]
    return {"instances": instances}


#: sha256 of the `ineq eval --output FILE [--format csv]` file written for
#: `_sampled_document()`.
EVAL_RECORDS_SHA256 = {
    "json": "3a245f06648c7ea3c19e7335862e2fbec83ee1c89a515264392ae4a603ed1086",
    "csv": "7690d0d5b4a2879f8b93ca58a886e19d9bf1f23fffb56f728c313d52d4465279",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_RECORDS_SHA256))
def test_eval_records_are_pinned(tmp_path, capsys, fmt):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_sampled_document()), encoding="utf-8")
    dest = tmp_path / f"out.{fmt}"
    rc, out, err = run_cli(
        capsys, "eval", "--input", str(src), "--output", str(dest), "--format", fmt
    )
    assert rc == 0 and err == ""
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == EVAL_RECORDS_SHA256[fmt]


@pytest.mark.parametrize("fmt", sorted(EVAL_RECORDS_SHA256))
def test_eval_records_are_pinned_on_three_workers(tmp_path, capsys, force_workers, fmt):
    force_workers(3)
    test_eval_records_are_pinned(tmp_path, capsys, fmt)


#: Quadrature domains on [0, 1] for `_multi_domain_document`: both rules, 64 to
#: 8192 nodes, every weight non-constant.
_MULTI_DOMAINS = (
    ("gauss", 64, [1.0, 1.0]),
    ("gauss", 256, [0.5, 0.0, 1.0]),
    ("gauss", 1024, [2.0, -1.0]),
    ("trapezoid", 512, [1.0, 0.0, 0.0, 3.0]),
    ("trapezoid", 2048, [1.0, 2.0]),
    ("trapezoid", 8192, [0.5, 1.0]),
)
_INTEGRAL_IDS = ("prop7.1", "prop7.2", "prop7.11", "prop7.12", "prop7.3")


def _multi_domain_document() -> dict:
    """17 sampled prop7.* instances moved onto each of `_MULTI_DOMAINS` (102 in all): every
    integral id, both fields, one in four adversarial.  h is rescaled to unit norm on its
    domain by numpy's own polyval and sum, and f and g with it, so the pointwise
    hypotheses against h are unchanged."""
    from numpy.polynomial import polynomial as npp

    from ineq import build_domain, polynomial

    instances = []
    for d, (kind, n, weight) in enumerate(_MULTI_DOMAINS):
        spec = {"interval": [0.0, 1.0], "weight": {"poly": weight}, "rule": {"kind": kind, "n": n}}
        dom = build_domain((0.0, 1.0), polynomial(weight), kind, n)
        for j in range(17):
            tid = _INTEGRAL_IDS[j % 5]
            field = ("real", "complex")[(j // 5) % 2]
            index, adversarial = 17 * d + j, j % 4 == 3
            inst = sample_admissible(tid, field, 1, seed=5, adversarial=adversarial, index=index)
            inst["domain"] = spec
            if "h" in inst:
                coeffs = [complex(c["re"], c["im"]) if isinstance(c, dict) else c
                          for c in inst["h"]["poly"]]
                values = npp.polyval(dom.nodes, np.array(coeffs))
                scale = 1.0 / float(np.sqrt(np.sum(dom.weights * np.abs(values) ** 2)))
                for key in ("f", "g", "h"):
                    inst[key] = {"poly": [
                        {k: v * scale for k, v in c.items()} if isinstance(c, dict) else c * scale
                        for c in inst[key]["poly"]
                    ]}
            instances.append(inst)
    return {"instances": instances}


#: sha256 of the `ineq eval --output FILE` file written for `_multi_domain_document()`.
MULTI_DOMAIN_SHA256 = "dbb4943db93fe35ce8850a4bd4077cfb7273a60108be8ccf97e01eb6726aca87"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_multi_domain_eval_records_are_pinned(tmp_path, capsys, force_workers, workers):
    force_workers(workers)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_multi_domain_document()), encoding="utf-8")
    dest = tmp_path / "out.json"
    rc, out, err = run_cli(capsys, "eval", "--input", str(src), "--output", str(dest))
    assert rc == 0 and err == ""
    assert json.loads(out)["aggregate"]["count"] == 102
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == MULTI_DOMAIN_SHA256


def test_forked_eval_writes_stdout_once(tmp_path, capsys):
    # as for verify: text unflushed in stdout at the fork is written once
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_sampled_document()), encoding="utf-8")
    argv = ["eval", "--input", str(src)]
    rc, serial, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    script = (
        "import os, sys\n"
        "from ineq import runner\n"
        "from ineq.cli import main\n"
        "runner._FORK_BREAK_EVEN = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.stdout.write('before the report\\n')\n"
        f"sys.exit(main({argv!r}))\n"
    )
    pkg = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([pkg, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # keep the text in the buffer at the fork
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "before the report\n" + serial


#: sha256 of the stdout of `ineq sharpness --construction C` (default grid).
SHARPNESS_SHA256 = {
    "thm21": "8582a4cb1ebe72f1b4ac47599f9889ac9c3ea4014b4d46cd88040a2b8d80aca1",
    "thm22": "f350cd1457998d0aaccf1f08a25c52bab7e9f6d1c8c3e16f3b0659b71e591bb0",
    "legacy11": "6227fb1bb5afdcd4196945592975882cd0a2008ba84cb037ef34893bad512a54",
}


@pytest.mark.parametrize("construction", sorted(SHARPNESS_SHA256))
def test_sharpness_stdout_is_pinned(capsys, construction):
    rc, out, err = run_cli(capsys, "sharpness", "--construction", construction)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SHARPNESS_SHA256[construction]


@pytest.mark.parametrize("kind", ["gauss", "trapezoid"])
def test_eval_huge_rule_n_exits_2_without_building(tmp_path, capsys, monkeypatch, kind):
    def never(*args):
        raise AssertionError("build_domain called for an over-cap rule.n")

    monkeypatch.setattr(integral, "build_domain", never)
    instance = dict(_PROP71, domain={"rule": {"kind": kind, "n": 10**9}})
    src = tmp_path / "huge.json"
    src.write_text(json.dumps({"instances": [instance]}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 2 and out == ""
    assert err.startswith(f"ineq: instance 0: prop7.1 'domain': rule.n: {kind} rules take at most ")
    assert err.count("\n") == 1 and "Traceback" not in err


_NAN, _INF = float("nan"), float("inf")
_C3 = [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 1.0}]

#: (theorem, field, key, bad value, exit code, stderr after "ineq: instance 0: ").
#: An exit-0 case names, instead of a message, the all-float value whose report
#: and record bytes it must equal.
_MALFORMED_COORDS = {
    "bool": ("thm2.1", "real", "x", [1.0, True, 0.5], 2,
             "thm2.1 'x': expected a number or {'re','im'} object, got True"),
    "string": ("thm2.1", "real", "x", [1.0, "2.0", 0.5], 2,
               "thm2.1 'x': expected a number or {'re','im'} object, got '2.0'"),
    "int-among-floats": ("thm2.1", "real", "x", [1.0, 2, 0.5], 0, [1.0, 2.0, 0.5]),
    "nested-list": ("thm2.1", "real", "x", [[1.0, 2.0], 0.5, 0.25], 2,
                    "thm2.1 'x': expected a number or {'re','im'} object, got [1.0, 2.0]"),
    "re-alone": ("thm2.1", "complex", "x", [{"re": 1.0}] + _C3, 0,
                 [{"re": 1.0, "im": 0.0}] + _C3),
    "extra-key": ("thm2.1", "complex", "x", [{"re": 1.0, "im": 0.0, "x": 0.0}] + _C3, 2,
                  "thm2.1 'x': expected a number or {'re','im'} object, "
                  "got {'re': 1.0, 'im': 0.0, 'x': 0.0}"),
    "bool-part": ("thm2.1", "complex", "x", [{"re": True, "im": 0.0}] + _C3, 2,
                  "thm2.1 'x': expected a number, got True"),
    "nan-token": ("thm2.1", "real", "x", [1.0, _NAN, 0.5], 2,
                  "thm2.1 'x': entries must be finite (no NaN/Inf)"),
    "infinity-token": ("thm2.1", "complex", "x", [{"re": _INF, "im": 0.0}] + _C3, 2,
                       "thm2.1 'x': entries must be finite (no NaN/Inf)"),
    "pair-in-real": ("thm2.1", "real", "x", [{"re": 1.0, "im": 0.0}, 0.5, 0.25], 2,
                     "thm2.1 'x': complex entries are not representable over real"),
    "empty": ("thm2.1", "real", "x", [], 2, "thm2.1 'x': dimension must be >= 1"),
    "seq-string": ("thm5.1", "real", "lam", ["0.5"], 2,
                   "thm5.1 'lam': expected a number or {'re','im'} object, got '0.5'"),
    "seq-nested": ("thm5.1", "complex", "lam", [[0.5, 0.0]], 2,
                   "thm5.1 'lam': expected a number or {'re','im'} object, got [0.5, 0.0]"),
    "seq-nan": ("thm5.1", "real", "lam", [_NAN], 2,
                "thm5.1 'lam': entries must be finite (no NaN/Inf)"),
    "complex-seq-nan": ("thm5.1", "complex", "lam", [{"re": _NAN, "im": 0.0}, _C3[1]], 2,
                        "thm5.1 'lam': entries must be finite (no NaN/Inf)"),
    "complex-seq-infinity": ("thm5.1", "complex", "lam", [_C3[0], {"re": 0.0, "im": _INF}], 2,
                             "thm5.1 'lam': entries must be finite (no NaN/Inf)"),
    "int-part": ("thm2.1", "complex", "x", [{"re": 1, "im": 0.0}] + _C3, 0,
                 [{"re": 1.0, "im": 0.0}] + _C3),
    "seq-int-part": ("thm5.1", "complex", "lam", [{"re": 0.5, "im": 0}, _C3[1]], 0,
                     [{"re": 0.5, "im": 0.0}, _C3[1]]),
}


def _eval_one(tmp_path, capsys, inst, *options):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"instances": [inst]}), encoding="utf-8")  # NaN, Infinity tokens
    return run_cli(capsys, "eval", "--input", str(src), *options)


@pytest.mark.parametrize("case", sorted(_MALFORMED_COORDS))
def test_eval_coordinate_lists_keep_their_rules_and_messages(tmp_path, capsys, case):
    tid, field, key, value, code, expected = _MALFORMED_COORDS[case]
    inst = sample_admissible(tid, field, 3, seed=0)
    rc, out, err = _eval_one(tmp_path, capsys, dict(inst, **{key: value}))
    assert rc == code
    if code == 2:
        assert out == "" and err == f"ineq: instance 0: {expected}\n"
        return
    dest = tmp_path / "records.json"
    runs = []
    for coords in (value, expected):
        runs.append(_eval_one(tmp_path, capsys, dict(inst, **{key: coords}), "--output", str(dest)))
        runs[-1] += (dest.read_bytes(),)
    assert err == "" and runs[0] == runs[1] and runs[0][0] == 0


def test_eval_family_over_the_size_cap_exits_2_without_building(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("standard_basis called for an over-cap family")

    # a sampled family is built while sampling, so sample first
    inst = dict(sample_admissible("thm5.1", "real", 3, seed=0), x=[0.5] * 2000, size=2000)
    monkeypatch.setattr(documents, "standard_basis", never)
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert rc == 2 and out == ""
    assert err == (
        "ineq: instance 0: thm5.1 'size': size 2000 in dimension 2000 takes 4000000 "
        "coordinates, more than 262144\n"
    )


def test_eval_family_size_cap_is_on_size_times_dim(tmp_path, capsys):
    # 512 basis vectors in dimension 512 are 2**18 coordinates, the cap; in
    # dimension 513, one coordinate more each, they pass it
    inst = sample_admissible("thm5.1", "real", 3, seed=0)
    at_cap = dict(inst, x=[1.0] * 512, size=512, lam=[1.0] * 512)
    assert _eval_one(tmp_path, capsys, at_cap)[0] == 0
    rc, out, err = _eval_one(tmp_path, capsys, dict(at_cap, x=[1.0] * 513))
    assert rc == 2 and err.startswith("ineq: instance 0: thm5.1 'size': size ")
    # a size above the dimension keeps its own message
    rc, out, err = _eval_one(tmp_path, capsys, dict(inst, size=10**9))
    assert rc == 2 and err == "ineq: instance 0: thm5.1 'size': cannot take 1000000000 basis vectors in dimension 3\n"


_TINY_PAIR = {"lo": 1e-100, "hi": 2e-100}
_TINY_POLY_PAIR = {"lo": 1e-200, "hi": 2e-200}


@pytest.mark.parametrize(
    "instance",
    [
        # (re_x * re_y) ** 0.5 underflows to 0 in legacy_gruss_pair
        {
            "theorem": "legacy1.13", "field": "real", "x": [1.5e-100, 0], "y": [1.5e-100, 0],
            "e": [1, 0], "pair_x": _TINY_PAIR, "pair_y": _TINY_PAIR,
        },
        # ZeroDivisionError in integral_gruss
        {
            "theorem": "prop7.3", "field": "real", "domain": {"rule": {"kind": "gauss", "n": 8}},
            "f": {"poly": [1.5e-200]}, "g": {"poly": [1.5e-200]}, "h": {"poly": [1.0]},
            "pair_f": _TINY_POLY_PAIR, "pair_g": _TINY_POLY_PAIR,
        },
    ],
    ids=["legacy1.13", "prop7.3"],
)
def test_eval_arithmetic_error_exits_2(tmp_path, capsys, instance):
    rc, out, err = _eval_one(tmp_path, capsys, instance)
    assert rc == 2 and out == ""
    assert err.startswith("ineq: instance 0: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [b'{"instances": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", b'{"instances": ["\xff"]}'],
    ids=["nested", "not-utf-8"],
)
def test_eval_unreadable_document_exits_2(tmp_path, capsys, text):
    src = tmp_path / "in.json"
    src.write_bytes(text)
    rc, out, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 2 and out == ""
    assert err.startswith(f"ineq: {src} is not valid JSON: ") and err.count("\n") == 1


_ALLOWED = [
    (tid, field)
    for tid in THEOREM_IDS
    for field in ("real", "complex")
    if not (field == "complex" and tid in harness.REAL_ONLY_IDS)
]


#: Instance keys that are not coordinates, radii, pair values or coefficients.
_UNSCALED = ("theorem", "field", "size", "domain", "seed")


def _scaled(value, k: int):
    """value with every number times 10**k, rounded once (to inf past the double range)."""
    if isinstance(value, dict):
        return {key: _scaled(v, k) for key, v in value.items()}
    if isinstance(value, list):
        return [_scaled(v, k) for v in value]
    return float(Decimal(value).scaleb(k))


@pytest.mark.parametrize("tid, field", _ALLOWED)
@settings(max_examples=5, deadline=None)
@given(
    k=st.integers(100, 330).flatmap(lambda k: st.sampled_from((k, -k))),
    dim=st.sampled_from((1, 2, 3, 8)),
    index=st.integers(0, 2**32),
)
# thm5.2, real: finite values whose sum overflows, which the tally still counts
@example(k=154, dim=1, index=404982)
def test_eval_exit_code_holds_at_any_scale(tmp_path_factory, tid, field, k, dim, index):
    # every input number of a sampled document scaled by 10**k: bad input (2)
    # when the scale breaks double precision, never a traceback
    inst = sample_admissible(tid, field, dim, seed=5, adversarial=index % 2 == 1, index=index)
    fixed = {key: inst.pop(key) for key in _UNSCALED if key in inst}
    src = tmp_path_factory.mktemp("scaled") / "in.json"
    src.write_text(json.dumps({"instances": [dict(_scaled(inst, k), **fixed)]}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["eval", "--input", str(src)]) in (0, 1, 2)


@pytest.mark.parametrize("records", [False, True], ids=["summary", "records"])
def test_eval_counts_finite_values_whose_sum_overflows(tmp_path, capsys, records):
    # thm5.2 at dim 1, scaled by 1e154: its half_route links are 6.8e307, so the sum of
    # its values overflows, and every value is finite
    inst = sample_admissible("thm5.2", "real", 1, seed=5, index=404982)
    fixed = {key: inst.pop(key) for key in _UNSCALED if key in inst}
    options = ("--output", str(tmp_path / "out.json")) if records else ()
    rc, out, err = _eval_one(tmp_path, capsys, dict(_scaled(inst, 154), **fixed), *options)
    assert (rc, err) == (0, "") and json.loads(out)["aggregate"]["count"] == 1


@pytest.mark.parametrize(
    "error, message",
    [
        (ValueError("broken"), "ineq: instance 0: broken\n"),
        (
            ZeroDivisionError("underflowed"),
            "ineq: instance 0: thm2.1 underflowed; the inputs leave double precision\n",
        ),
    ],
    ids=["bad input", "out of range"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_verify_names_an_instance_whose_operation_raises_as_eval_does(
    tmp_path, capsys, monkeypatch, force_workers, workers, error, message
):
    def broken(*args):
        raise error

    spec = harness._SPECS["thm2.1"]
    monkeypatch.setitem(harness._SPECS, "thm2.1", dataclasses.replace(spec, operation=broken))
    force_workers(workers)
    assert run_cli(capsys, "verify", "--theorems", "thm2.1", "--trials", "8") == (2, "", message)
    assert _eval_one(tmp_path, capsys, sample_admissible("thm2.1", "real", 3)) == (2, "", message)


#: What `ineq` writes of thm2.1 instance 0 when its chain's gap link is NaN.
_NAN_GAP = "ineq: instance 0: thm2.1 gap is nan; the inputs leave double precision\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_refuses_a_non_finite_result_as_eval_does(
    tmp_path, capsys, monkeypatch, force_workers, workers
):
    spec = harness._SPECS["thm2.1"]

    def nan_gap(*args):
        chain = spec.operation(*args)
        return dataclasses.replace(chain, values=chain.values[:-2] + (math.nan, chain.bound))

    monkeypatch.setitem(harness._SPECS, "thm2.1", dataclasses.replace(spec, operation=nan_gap))
    force_workers(workers)
    assert run_cli(capsys, "verify", "--theorems", "thm2.1", "--trials", "8") == (2, "", _NAN_GAP)
    with pytest.raises(InputFormatError) as refused:
        run_suite(["thm2.1"], trials=8, keep_records=True)
    assert f"ineq: {refused.value}\n" == _NAN_GAP
    inst = sample_admissible("thm2.1", "real", 3)
    assert _eval_one(tmp_path, capsys, inst) == (2, "", _NAN_GAP)
    assert _eval_one(tmp_path, capsys, inst, "--output", str(tmp_path / "out.json")) == (
        2, "", _NAN_GAP
    )


_GAUSS_8 = {"rule": {"kind": "gauss", "n": 8}}


@pytest.mark.parametrize(
    "instance, message",
    [
        (
            {"theorem": "prop7.1", "field": "real", "domain": _GAUSS_8,
             "f": {"poly": [1e308, 1e308]}, "g": {"poly": [1.0]}, "r": 1.0},
            "prop7.1 'f': entries must be finite (no NaN/Inf)",
        ),
        (
            {"theorem": "prop7.1", "field": "complex", "domain": _GAUSS_8,
             "f": {"poly": [{"re": 1e308, "im": 0.0}, {"re": 0.0, "im": 1e308},
                            {"re": 1e308, "im": 1e308}]},
             "g": {"poly": [1.0]}, "r": 1.0},
            "prop7.1 'f': entries must be finite (no NaN/Inf)",
        ),
        (
            {"theorem": "prop7.2", "field": "real", "domain": _GAUSS_8,
             "f": {"poly": [1e200]}, "g": {"poly": [1e200]}, "pair": {"lo": 0.5, "hi": 2.0}},
            None,  # OverflowError in a float power: the message names no key
        ),
    ],
    ids=["real-values", "complex-values", "norm"],
)
def test_eval_overflowing_polynomial_exits_2(tmp_path, capsys, instance, message):
    rc, out, err = _eval_one(tmp_path, capsys, instance)
    assert rc == 2 and out == ""
    assert err.startswith("ineq: instance 0: ") and err.count("\n") == 1
    assert message is None or err == f"ineq: instance 0: {message}\n"


def test_eval_subnormal_degenerate_pair_exits_2_naming_the_pair(tmp_path, capsys):
    inst = sample_admissible("thm4.3", "real", 3, seed=0)
    inst["pair_x"] = {"lo": 5e-324, "hi": -5e-324}
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert rc == 2 and out == ""
    assert err == (
        "ineq: instance 0: pair (5e-324, -5e-324): hi is within relative 1e-12 of +/- lo\n"
    )


def test_eval_error_quotes_a_huge_value_briefly(tmp_path, capsys):
    inst = {"theorem": "thm2.1", "field": "real", "x": [[0.5] * 200_000], "a": [0.0], "r": 1.0}
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert rc == 2 and out == ""
    assert len(err.encode("utf-8")) < 1000
    head = "ineq: instance 0: thm2.1 'x': expected a number or {'re','im'} object, got [0.5, 0.5"
    assert err.startswith(head) and err.endswith("...\n") and err.count("\n") == 1
    # a family size too large for its dimension, as a float and as a 1,000-digit integer
    for size, text in ((1e300, str(int(1e300))), (10**1000, str(10**1000))):
        inst = dict(sample_admissible("thm5.1", "real", 3, seed=0), size=size)
        rc, out, err = _eval_one(tmp_path, capsys, inst)
        assert rc == 2 and out == "" and len(err.encode("utf-8")) < 300
        assert err.startswith(f"ineq: instance 0: thm5.1 'size': cannot take {text[:40]}")
        assert err.endswith("... basis vectors in dimension 3\n") and err.count("\n") == 1
    # a quadrature rule over its node cap, as a float and as a 4,000-digit integer
    for n, text in ((1e300, str(int(1e300))), (10**3999, str(10**3999))):
        inst = sample_admissible("prop7.1", "real", 1, seed=0)
        inst["domain"]["rule"]["n"] = n
        rc, out, err = _eval_one(tmp_path, capsys, inst)
        assert rc == 2 and out == "" and len(err.encode("utf-8")) < 300
        head = "ineq: instance 0: prop7.1 'domain': rule.n: gauss rules take at most 2048 nodes"
        assert err.startswith(f"{head}, got {text[:40]}") and err.endswith("...\n")
        assert err.count("\n") == 1


def test_eval_stdout_does_not_depend_on_output(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_sampled_document()), encoding="utf-8")
    kept = []
    evaluate_file = harness.evaluate_file

    def recording(*args, **kwargs):
        report = evaluate_file(*args, **kwargs)
        kept.append(report.records is not None)
        return report

    monkeypatch.setattr("ineq.cli.evaluate_file", recording)
    rc, bare, err = run_cli(capsys, "eval", "--input", str(src))
    assert rc == 0 and err == ""
    rc, with_output, err = run_cli(
        capsys, "eval", "--input", str(src), "--output", str(tmp_path / "out.json")
    )
    assert rc == 0 and err == ""
    assert bare == with_output
    assert kept == [False, True]
    assert harness.evaluate_file(str(src), keep_records=False).records is None


#: The keys of the first coefficient pair of each id that takes one.
_SEQUENCE_PAIR_KEYS = {
    "thm5.2": ("gammas", "Gammas"),
    "thm6.2": ("gammas_x", "Gammas_x"),
    "legacy1.20": ("gammas", "Gammas"),
}


@pytest.mark.parametrize("tid", sorted(_SEQUENCE_PAIR_KEYS))
def test_eval_underflowing_coefficient_pair_exits_2_naming_the_sequences(tmp_path, capsys, tid):
    lo, hi = _SEQUENCE_PAIR_KEYS[tid]
    inst = dict(sample_admissible(tid, "real", 3, seed=0), size=1, **{lo: [1e-160], hi: [-1e-160]})
    if tid == "thm6.2":
        inst.update(phis_y=[1.0], Phis_y=[2.0])
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert rc == 2 and out == ""
    assert err == (
        "ineq: instance 0: coefficient sequences are degenerate: "
        "Gamma within relative 1e-12 of +/- gamma\n"
    )


@pytest.mark.parametrize("tid", sorted(_SEQUENCE_PAIR_KEYS))
def test_eval_coefficient_lengths_are_checked_first(tmp_path, capsys, tid):
    lo, hi = _SEQUENCE_PAIR_KEYS[tid]
    inst = dict(sample_admissible(tid, "real", 3, seed=0), **{lo: [0.5, 0.5], hi: [0.5, 0.5, 0.5]})
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert rc == 2 and out == ""
    assert err == "ineq: instance 0: sequence lengths differ: 2 vs 3\n"


@pytest.mark.parametrize(
    "instance",
    [
        {"theorem": "prop7.2", "field": "real", "domain": _GAUSS_8,
         "f": {"poly": [1.0]}, "g": {"poly": [1.0]}, "pair": {"lo": 1e159, "hi": 1e160}},
        {"theorem": "legacy1.18", "field": "real", "x": [1e160, 0], "size": 1,
         "lam": [1e160], "r": 1},
    ],
    ids=["prop7.2", "legacy1.18"],
)
def test_eval_float_overflow_names_the_theorem(tmp_path, capsys, instance):
    # a float ** overflows: Python's text alone names no theorem
    rc, out, err = _eval_one(tmp_path, capsys, instance)
    assert rc == 2 and out == ""
    assert err == (
        f"ineq: instance 0: {instance['theorem']} (34, 'Numerical result out of range'); "
        "the inputs leave double precision\n"
    )


#: Each id's scalar pairs and coefficient-sequence pairs, as (lo key, hi key) and (key, key).
_EDGE_PAIR_KEYS = ("pair", "pair_x", "pair_y")
_EDGE_SEQ_PAIRS = (("gammas", "Gammas"), ("gammas_x", "Gammas_x"), ("phis_y", "Phis_y"), ("m", "M"))
#: Keys an instance document holds that are not values of the instance.
_EDGE_KEPT = ("theorem", "field", "seed", "size", "domain")


def _edge_scaled(value, scale):
    """An encoded value with every number in it, complex parts too, times scale."""
    if isinstance(value, dict):
        return {k: _edge_scaled(v, scale) for k, v in value.items()}
    if isinstance(value, list):
        return [_edge_scaled(v, scale) for v in value]
    return value * scale


def _edge_times(inst, scale):
    """inst with each of its values, not its kept keys, times scale."""
    return {k: v if k in _EDGE_KEPT else _edge_scaled(v, scale) for k, v in inst.items()}


def _edge_tied(inst, sign):
    """inst with hi = sign * lo in each of its scalar and sequence pairs."""
    tied = dict(inst)
    for key in _EDGE_PAIR_KEYS:
        if key in tied:
            tied[key] = {"lo": tied[key]["lo"], "hi": _edge_scaled(tied[key]["lo"], sign)}
    for lo_key, hi_key in _EDGE_SEQ_PAIRS:
        if lo_key in tied:
            tied[hi_key] = _edge_scaled(tied[lo_key], sign)
    return tied


def _edge_cases():
    """One-instance documents at the edges of the float range: for every id, dims 1-3 and
    each of its fields, a sampled instance with its values scaled by 1e-320, 1e-160, 1e160
    and 1e308, as it is and with hi = lo and hi = -lo in each of its pairs."""
    cases = []
    for tid in THEOREM_IDS:
        fields = ("real",) if tid in harness.REAL_ONLY_IDS else ("real", "complex")
        for dim, field in [(dim, field) for dim in (1, 2, 3) for field in fields]:
            inst = sample_admissible(tid, field, dim, seed=7, index=dim)
            for scale in (1e-320, 1e-160, 1e160, 1e308):
                scaled = _edge_times(inst, scale)
                name = f"{tid}-{field}-{dim}-x{scale:g}"
                cases.append((name, scaled))
                for sign in (1.0, -1.0):
                    tied = _edge_tied(scaled, sign)
                    if tied != scaled:
                        cases.append((f"{name}-hi={sign:+g}lo", tied))
    return cases


def test_eval_keeps_its_exit_contract_at_the_edges_of_the_float_range(tmp_path, capsys):
    # exit 0, 1 or 2, never a traceback, and at most one line on stderr; numpy's warnings
    # are errors here, so a warning eval would print fails too
    src = tmp_path / "in.json"
    broken = []
    for name, inst in _edge_cases():
        src.write_text(json.dumps({"instances": [inst]}), encoding="utf-8")
        try:
            rc = main(["eval", "--input", str(src)])
        except Exception as exc:  # any exception that escapes main is the failure looked for
            broken.append((name, repr(exc)))
            continue
        err = capsys.readouterr().err
        if rc not in (0, 1, 2) or err.count("\n") > 1 or "Traceback" in err:
            broken.append((name, rc, err))
    assert broken == []


def _edge_records(tmp_path, capsys, instances):
    """The records `ineq eval --output` writes for `instances`, which must all certify."""
    src, dest = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    rc, out, err = run_cli(capsys, "eval", "--input", str(src), "--output", str(dest))
    assert (rc, err) == (0, "")
    return json.loads(dest.read_text(encoding="utf-8"))["records"]


#: Degree of a record's gap, bound and slack in its document's scale.  A margin
#: has degree 1, a comparison degree 2, but for the Bessel ids' last one, gap <= bound.
_SCALE_DEGREE = {"thm5.1": 1, "legacy1.18": 1, "thm6.1": 2}


def _assert_scaled_record(plain, scaled, scale):
    """scaled is plain with each value times scale^(its degree), to 1e-12, and each flag kept."""
    deg = _SCALE_DEGREE[plain["theorem"]]

    def times(value, d):
        return pytest.approx(value * scale**d, rel=1e-12, abs=0.0)

    assert (scaled["admissible"], scaled["passed"]) == (plain["admissible"], plain["passed"])
    assert scaled["margin"] == times(plain["margin"], 1)
    for key in ("gap", "bound", "slack"):
        assert scaled[key] == times(plain[key], deg), key
    comps = plain["comparisons"]
    for i, (p, s) in enumerate(zip(comps, scaled["comparisons"])):
        d = deg if i == len(comps) - 1 else 2
        assert (s[0], s[2], s[4]) == (p[0], p[2], p[4])
        assert (s[1], s[3]) == (times(p[1], d), times(p[3], d)), p


@pytest.mark.parametrize("tid", sorted(_SCALE_DEGREE))
def test_ball_bessel_bounds_scale_with_their_documents(tmp_path, capsys, tid):
    # every float times 2^332: the squares of the inputs pass the float max, the norm
    # forms of these bounds do not, and a power of two scales every value exactly
    scale = 2.0**332
    plain = [
        sample_admissible(tid, field, dim, seed=0, adversarial=i == 3, index=i)
        for dim in (3, 8) for field in ("real", "complex") for i in range(4)
    ]
    scaled = [_edge_times(inst, scale) for inst in plain]
    records = _edge_records(tmp_path, capsys, plain + scaled)
    for p, s in zip(records[: len(plain)], records[len(plain):]):
        _assert_scaled_record(p, s, scale)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_legacy_bessel_ball_certifies_a_document_scaled_by_1e100(tmp_path, capsys, field):
    # every value of the chain stays in range at 1e100, so its construction must too
    inst = sample_admissible("legacy1.18", field, 3, seed=0, index=1)
    plain, scaled = _edge_records(tmp_path, capsys, [inst, _edge_times(inst, 1e100)])
    assert (scaled["admissible"], scaled["passed"]) == (plain["admissible"], plain["passed"])
    for key in ("gap", "bound"):
        assert scaled[key] == pytest.approx(plain[key] * 1e100, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_legacy_bessel_ball_past_the_range_names_the_range(tmp_path, capsys, field):
    # at 2^532 the squared chain itself leaves the range (||x||^2 is about 1e320): the
    # error says so, not that ||lambda|| > r fails
    inst = _edge_times(sample_admissible("legacy1.18", field, 3, seed=0, index=1), 2.0**532)
    rc, out, err = _eval_one(tmp_path, capsys, inst)
    assert (rc, out) == (2, "")
    assert err.startswith("ineq: instance 0: legacy1.18 ")
    assert err.endswith("; the inputs leave double precision\n") and err.count("\n") == 1


def test_legacy_bessel_pair_certifies_a_gamma_below_the_rounding_of_gamma(tmp_path, capsys):
    # ||G+g|| and ||G-g|| are both 1.0 in floats, but sum Re(G_i conj(g_i)) = 1e-17 > 0
    inst = {"theorem": "legacy1.20", "field": "real", "x": [0.6, 0.3], "size": 1,
            "gammas": [1e-17], "Gammas": [1.0]}
    (record,) = _edge_records(tmp_path, capsys, [inst])
    assert (record["admissible"], record["passed"]) == (True, True)
    assert record["bound"] == pytest.approx(0.6 * (1 + 1e-17) / (4e-17) ** 0.5 - 0.6, rel=1e-15)


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by its path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_cold_start_empties_every_cache_a_run_fills(tmp_path, capsys):
    # each benchmark call stands for a fresh process: a cache that `cold_start`
    # does not reach would have the benchmark time warm caches
    verify = ["verify", "--trials", "2", "--dims", "3", "--field", "real"]
    assert run_cli(capsys, *verify, "--theorems", "prop7.1,thm5.1")[0] == 0
    src = tmp_path / "doc.json"
    src.write_text(json.dumps({"instances": [_PROP71]}), encoding="utf-8")
    assert run_cli(capsys, "eval", "--input", str(src))[0] == 0
    caches = (integral._DOMAIN_CACHE, space._BASIS_CACHE)
    assert all(caches) and integral._DEFAULT_DOMAIN_KEY in integral._DOMAIN_CACHE
    _perfbench_workloads().cold_start()
    assert not any(caches)
    assert [cache.total for cache in caches] == [0, 0]
