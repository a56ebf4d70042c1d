"""Paired A/B runs of the benchmark on two checkouts, judged as a claimed change is judged.

    python3 tools/ab.py --a PARENT --b CHANGE [--workload W] [--seed S] [--runs 10]

Pair k of each workload in A's BENCHMARK.json (or of `--workload`) runs its
command with `--workload W --seed S+k --seconds <run_seconds>` as a fresh
process in checkout A ("before") and in B ("after"), A first for even k, with
PYTHONDONTWRITEBYTECODE=1, so give fresh copies (`git archive`).  stdout gets
`judge`'s verdict on each (workload, end-to-end metric), the unscaled rate
and set-up time beside them (never judged), whether each pair's report hashes
match, and a BENCH record whose `what` and `note` its author writes.  The
exit code is 1 on a `Refused` run, a "worse" or an "unresolved".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
#: The unscaled figures of the end-to-end metrics perfbench rescales, summarised
#: beside them and never judged.
RAW = (
    {"name": "raw_instances_per_s", "unit": "1/s", "better": "higher"},
    {"name": "raw_setup_s", "unit": "s", "better": "lower"},
)
MACHINE = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")
COMMIT = ("commit", "src_sha256")


class Refused(Exception):
    """A run the benchmark would refuse; the message names why, as the benchmark does."""


def read(returncode: int, stdout: str) -> tuple[dict, dict]:
    """One perfbench run's figures and its `env` line, from its exit code and stdout."""
    if returncode != 0:
        raise Refused(f"run_failed (exit {returncode})")
    try:
        *head, result = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        info = {key: value for line in head for key, value in line.items()}
        run = {name: metric["value"] for name, metric in result["metrics"].items()}
        run.update({spec["name"]: info["unscaled"][spec["name"]] for spec in RAW})
        run.update({key: result[key] for key in ("correct", "attempted", "failed")})
        run.update({key: value for key, value in info.items() if key.endswith("_sha256")})
        env = info["env"]
    except (ValueError, KeyError, TypeError, AttributeError):
        raise Refused("output_malformed") from None
    if run["correct"] is not True:
        raise Refused("outputs_incorrect")
    return run, env


def quartiles(values: list) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(spec: dict, before: list, after: list) -> int:
    """Pairs in which B reads better; a tie counts for neither side."""
    sign = 1 if spec["better"] == "higher" else -1
    return sum(sign * (b - a) > 0 for a, b in zip(before, after))


def judge(spec: dict, before: list, after: list) -> str:
    """One end-to-end metric's verdict over the pairs, by its `better` and `bound`: "gain" if
    B reads better in at least 9/10 of the pairs and its median beats A's by more than A's
    interquartile range; "worse" if B's median is worse than A's by more than `bound` x A's
    median; "unresolved" if A's interquartile range exceeds `bound` x its median, unless
    every B run beats every A run; "no change" otherwise."""
    sign = 1 if spec["better"] == "higher" else -1
    a, b = statistics.median(before), statistics.median(after)
    q1, q3 = quartiles(before)
    if 10 * wins(spec, before, after) >= 9 * len(before) and sign * (b - a) > q3 - q1:
        return "gain"
    if sign * (a - b) > spec["bound"] * abs(a):
        return "worse"
    beats_all = min(sign * x for x in after) > max(sign * x for x in before)
    return "unresolved" if q3 - q1 > spec["bound"] * abs(a) and not beats_all else "no change"


def summary(spec: dict, pairs: list) -> dict:
    """One metric's median and quartiles per side, change of median, B's wins and verdict."""
    before, after = ([pair[side][spec["name"]] for pair in pairs] for side in SIDES)
    out = {side: dict(zip(("median", "q1", "q3"), (statistics.median(v), *quartiles(v))))
           for side, v in zip(SIDES, (before, after))}
    out["change_of_median"] = out["after"]["median"] / out["before"]["median"] - 1
    out["after_better_in"] = f"{wins(spec, before, after)}/{len(pairs)}"
    if "bound" in spec:
        out["verdict"] = judge(spec, before, after)
    return out


def describe(workload: str, spec: dict, s: dict) -> str:
    """One metric's line: its verdict (or "not judged"), the change of its median, B's wins,
    and A's quartiles against the bound of a judged metric."""
    line = (f"{workload} {spec['name']}: {s.get('verdict', 'not judged')}; median "
            f"{s['before']['median']:.6g} -> {s['after']['median']:.6g} {spec['unit']} "
            f"({s['change_of_median']:+.2%}), B better in {s['after_better_in']} pairs")
    if "bound" not in spec:
        return line
    return (f"{line}; A's quartiles {s['before']['q1']:.6g}..{s['before']['q3']:.6g} "
            f"(bound {spec['bound']:.0%})")


def run_pair(bench: dict, checkouts: dict, workload: str, seed: int, order: tuple):
    """Both sides' runs of one seed, in `order`; returns (pair, each side's env)."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"])]
    pair, envs = {"seed": seed, "first": order[0]}, {}
    for side in order:
        proc = subprocess.run(argv, cwd=checkouts[side], capture_output=True, text=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        try:
            pair[side], envs[side] = read(proc.returncode, proc.stdout)
        except Refused as exc:
            stderr = proc.stderr.strip().splitlines()[-1:]
            raise Refused(" ".join([f"{workload} seed {seed} {side}: {exc}", *stderr])) from None
    share = {side: pair[side]["failed"] / max(pair[side]["attempted"], 1) for side in SIDES}
    if share["before"] != share["after"]:
        raise Refused(f"{workload} seed {seed}: more operations failed (shares {share})")
    print(f"ab: {workload} seed {seed}: " + ", ".join(
        f"{side} {pair[side]['instances_per_s']:,.0f}/s" for side in SIDES), file=sys.stderr)
    return pair, envs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--b", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: each)")
    parser.add_argument("--seed", type=int, default=1, help="pair k runs seed SEED+k")
    parser.add_argument("--runs", type=int, default=10, help="pairs per workload, at least 2")
    args = parser.parse_args(argv)
    if not (args.a / "BENCHMARK.json").is_file() or not args.b.is_dir():
        parser.error("--a must be a checkout with a BENCHMARK.json, and --b a checkout")
    bench = json.loads((args.a / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    if args.runs < 2:
        parser.error("--runs must be at least 2: quartiles need two runs")
    workloads = [args.workload] if args.workload else workloads
    checkouts = {"before": args.a.resolve(), "after": args.b.resolve()}
    seeds = range(args.seed, args.seed + args.runs)
    record = {"what": "", "command": " ".join(bench["command"]) + " --workload W --seed S "
              f"--seconds {bench['run_seconds']}", "order": ", then ".join(
                  f"{w} seeds {seeds[0]}..{seeds[-1]}" for w in workloads) + "; each pair ran "
              "back to back, the side that ran first alternating (field 'first').",
              "machine": {}, "commits": {}, "note": "", "workloads": {}}
    lines, verdicts = [], set()
    try:
        for workload in workloads:
            pairs, envs = zip(*(run_pair(bench, checkouts, workload, seed, order) for seed, order
                                in zip(seeds, [SIDES, SIDES[::-1]] * len(seeds))))
            record["machine"] = {key: envs[0]["before"][key] for key in MACHINE}
            record["commits"] = {side: {name: envs[0][side][name] for name in COMMIT}
                                 for side in SIDES}
            sums = {spec["name"]: summary(spec, pairs) for spec in [*bench["end_to_end"], *RAW]}
            record["workloads"][workload] = {"summary": sums, "pairs": list(pairs)}
            for spec in [*bench["end_to_end"], *RAW]:
                verdicts.add(sums[spec["name"]].get("verdict"))
                lines.append(describe(workload, spec, sums[spec["name"]]))
            differ = [pair["seed"] for pair in pairs if any(
                value != pair["after"].get(key)
                for key, value in pair["before"].items() if key.endswith("_sha256"))]
            lines.append(f"{workload}: report hashes " + (
                f"differ at seeds {differ}" if differ else f"equal in all {len(pairs)} pairs"))
    except Refused as exc:
        print(f"ab: refused: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(record, indent=1))
    return 1 if verdicts & {"worse", "unresolved"} else 0


if __name__ == "__main__":
    sys.exit(main())
