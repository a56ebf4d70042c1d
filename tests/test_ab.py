"""tools/ab.py: its verdicts on synthetic pairs, and its refusals, with no process started."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPECS = {spec["name"]: spec for spec in BENCH["end_to_end"]}
TYPICAL = {"instances_per_s": 18_000.0, "setup_s": 0.12, "peak_rss_mb": 40.7}
#: Ten runs about a median of 1: quartiles (inclusive) at -1.75 and +1.75 steps.
STEPS = (-4, -3, -2, -1, 0, 1, 2, 3, 4, 0)


def _runs(median, step):
    return [median * (1 + step * d) for d in STEPS]


def _summary(name, before, after):
    pairs = [{"before": {name: a}, "after": {name: b}} for a, b in zip(before, after)]
    return ab.summary(SPECS[name], pairs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_an_a_a_set_reads_no_change_on_every_metric(name):
    before = _runs(TYPICAL[name], 0.01)
    after = before[3:] + before[:3]
    s = _summary(name, before, after)
    assert s["verdict"] == "no change"
    assert s["change_of_median"] == 0


def test_a_lead_in_every_pair_beyond_a_spread_is_a_gain():
    before = _runs(18_000.0, 0.005)
    s = _summary("instances_per_s", before, [1.10 * a for a in before])
    assert (s["verdict"], s["after_better_in"]) == ("gain", "10/10")


def test_a_lead_in_eight_of_ten_pairs_is_no_gain():
    before = _runs(18_000.0, 0.005)
    after = [a * (0.99 if k < 2 else 1.10) for k, a in enumerate(before)]
    s = _summary("instances_per_s", before, after)
    assert (s["verdict"], s["after_better_in"]) == ("no change", "8/10")


def test_a_lead_in_every_pair_inside_a_spread_is_no_gain():
    before = _runs(18_000.0, 0.02)  # interquartile range 7% of the median
    s = _summary("instances_per_s", before, [a + 0.05 * 18_000.0 for a in before])
    assert (s["verdict"], s["after_better_in"]) == ("no change", "10/10")


@pytest.mark.parametrize("factor, verdict", [(1.30, "worse"), (1.20, "no change")])
def test_a_median_worse_by_more_than_the_bound_is_worse(factor, verdict):
    assert SPECS["setup_s"]["bound"] == 0.25
    before = _runs(0.12, 0.01)
    assert _summary("setup_s", before, [factor * a for a in before])["verdict"] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    before = _runs(18_000.0, 0.06)  # interquartile range 21% of the median
    assert _summary("instances_per_s", before, before[5:] + before[:5])["verdict"] == "unresolved"


@pytest.mark.parametrize("name, before, after", [
    # every B run higher, but the lead (175) is inside A's interquartile range (295)
    ("instances_per_s", [1000, 1010, 1020, 1030, 1040, 1300, 1310, 1320, 1330, 1340],
     [1341 + k for k in range(10)]),
    ("setup_s", [0.10, 0.101, 0.102, 0.103, 0.104, 0.14, 0.141, 0.142, 0.143, 0.144],
     [0.0999 - 0.001 * k for k in range(10)]),
])
def test_a_wide_spread_is_resolved_when_every_b_run_beats_every_a_run(name, before, after):
    q1, q3 = ab.quartiles(before)
    assert q3 - q1 > SPECS[name]["bound"] * statistics.median(before)
    s = _summary(name, before, after)
    assert (s["verdict"], s["after_better_in"]) == ("no change", "10/10")


def _stdout(correct=True, failed=0, attempted=500, rate=18_000.0):
    lines = [
        {"report_sha256": "ab" * 32},
        {"unscaled": {"raw_instances_per_s": rate / 2, "raw_setup_s": 0.1,
                      "host_slowdown": 2.0, "calls": 3}},
        {"env": {**dict.fromkeys(ab.MACHINE, "x"), "commit": None, "src_sha256": "cd" * 32}},
        {"correct": correct, "attempted": attempted, "failed": failed,
         "metrics": {"instances_per_s": {"value": rate, "unit": "1/s"},
                     "setup_s": {"value": 0.12, "unit": "s"},
                     "peak_rss_mb": {"value": 40.7, "unit": "MB"}}},
    ]
    return "".join(json.dumps(line) + "\n" for line in lines)


def test_read_takes_the_metrics_the_raw_rate_and_the_hashes():
    run, env = ab.read(0, _stdout())
    assert run == {"instances_per_s": 18_000.0, "setup_s": 0.12, "peak_rss_mb": 40.7,
                   "raw_instances_per_s": 9_000.0, "correct": True, "attempted": 500,
                   "failed": 0, "report_sha256": "ab" * 32}
    assert env["src_sha256"] == "cd" * 32


@pytest.mark.parametrize("returncode, stdout, name", [
    (0, _stdout(correct=False, failed=500), "outputs_incorrect"),
    (1, _stdout(), "run_failed"),
    (0, "".join(_stdout().splitlines(keepends=True)[:3]), "output_malformed"),
    (0, "", "output_malformed"),
    (0, _stdout()[:-20], "output_malformed"),
])
def test_a_run_the_benchmark_would_refuse_is_refused_by_name(returncode, stdout, name):
    with pytest.raises(ab.Refused, match=name):
        ab.read(returncode, stdout)


def _stub(monkeypatch, outputs):
    """Replace the process runner: each call gets the next stdout of `outputs(cwd)`."""
    calls = []

    def run(argv, cwd, capture_output, text, env):
        calls.append((argv, Path(cwd).name, env["PYTHONDONTWRITEBYTECODE"]))
        return subprocess.CompletedProcess(argv, 0, outputs(Path(cwd).name), "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    return calls


def test_a_pair_runs_the_benchmark_command_in_each_checkout_in_the_given_order(monkeypatch):
    calls = _stub(monkeypatch, lambda side: _stdout())
    sides = {"before": Path("a"), "after": Path("b")}
    pair, envs = ab.run_pair(BENCH, sides, "suite", 7, ("after", "before"))
    argv = ["python3", "perfbench/run.py", "--workload", "suite", "--seed", "7", "--seconds", "15"]
    assert calls == [(argv, "b", "1"), (argv, "a", "1")]
    assert list(pair) == ["seed", "first", "after", "before"] and pair["first"] == "after"


def test_a_pair_whose_sides_fail_different_shares_is_refused(monkeypatch):
    _stub(monkeypatch, lambda side: _stdout(failed=5 if side == "b" else 0))
    with pytest.raises(ab.Refused, match=r"suite seed 7: more operations failed"):
        ab.run_pair(BENCH, {"before": Path("a"), "after": Path("b")}, "suite", 7, ab.SIDES)


def test_main_prints_a_verdict_per_metric_the_hashes_and_a_bench_record(
    monkeypatch, tmp_path, capsys
):
    for side in "ab":
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    _stub(monkeypatch, lambda side: _stdout(rate=18_000.0 if side == "a" else 21_000.0))
    assert ab.main(["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
                    "--workload", "quadrature", "--seed", "5", "--runs", "10"]) == 0
    out = capsys.readouterr().out
    head, _, record = out.partition("\n{")
    assert head.splitlines() == [
        "quadrature instances_per_s: gain; median 18000 -> 21000 1/s (+16.67%), B better in "
        "10/10 pairs; A's quartiles 18000..18000 (bound 15%)",
        "quadrature setup_s: no change; median 0.12 -> 0.12 s (+0.00%), B better in 0/10 "
        "pairs; A's quartiles 0.12..0.12 (bound 25%)",
        "quadrature peak_rss_mb: no change; median 40.7 -> 40.7 MB (+0.00%), B better in 0/10 "
        "pairs; A's quartiles 40.7..40.7 (bound 5%)",
        "quadrature: report hashes equal in all 10 pairs",
    ]
    record = json.loads("{" + record)
    latest = json.loads((ROOT / "BENCH_suite.json").read_text())["records"][-1]
    assert list(record) == list(latest)
    entry = record["workloads"]["quadrature"]
    assert list(entry) == list(latest["workloads"]["quadrature"])
    assert [p["seed"] for p in entry["pairs"]] == list(range(5, 15))
    assert [p["first"] for p in entry["pairs"]] == ["before", "after"] * 5
    assert set(entry["summary"]) == {*SPECS, "raw_instances_per_s"}
    assert record["order"].startswith("quadrature seeds 5..14;")
