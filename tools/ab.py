"""Paired A/B timing of two source checkouts on one perfbench workload.

Usage, from anywhere:

    python3 tools/ab.py --a PARENT_CHECKOUT --b CHANGED_CHECKOUT \
        --workload suite|eval-records|quadrature [--seed N] [--calls 40]

Each checkout gets one long-lived process, which imports that checkout's
`perfbench/run.py` (so BLAS is pinned as perfbench pins it), sets the workload
up with perfbench's own `set_up`, and then runs one call at a time with
perfbench's `call`, timing perfbench's calibration kernel right before and
right after it.  The two processes take turns, one call each, and the side
that goes first alternates, so both see the same host speed.  Call k is the
same `argv(k)` on both sides.

The output gives, per side, the median raw and rescaled rate (instances per
second; rescaled as perfbench rescales, by the mean kernel time over its
reference time), the B/A ratio of each median, the number of pairs B won, and
the report hashes of call 0.  Two copies of one checkout (an A/A run) read
within 1% of 1.0 rescaled; raw ratios follow the host's speed and spread
more.  Nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def serve(checkout: Path, workload: str, seed: int) -> None:
    """One side: answer each line k on stdin with one timed call as a JSON line."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import run  # noqa: E402  (perfbench's run.py; pins BLAS before numpy)
    from calibration import Calibration  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    with tempfile.TemporaryDirectory() as workdir:
        main, work, _setup, _numpy = run.set_up(WORKLOADS[workload], seed, Path(workdir))
        cal = Calibration(work.calibration_lapack_reps)
        work.start()
        print("ready", flush=True)
        for line in sys.stdin:
            k = int(line)
            before = cal.seconds()
            t0 = time.perf_counter()
            code, stdout = run.call(main, work.argv(k))
            elapsed = time.perf_counter() - t0
            after = cal.seconds()
            raw = work.instances_per_call / elapsed
            print(json.dumps({
                "raw": raw,
                "rescaled": raw * cal.slowdown((before + after) / 2),
                "problems": work.check(k, code, stdout),
                "shas": work.shas(),
            }), flush=True)


def start(checkout: Path, args) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, __file__, "--serve", str(checkout), "--workload", args.workload,
         "--seed", str(args.seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    if proc.stdout.readline().strip() != "ready":
        raise SystemExit(f"ab: {checkout} did not set up")
    return proc


def ask(proc: subprocess.Popen, k: int) -> dict:
    proc.stdin.write(f"{k}\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, help="the reference checkout")
    parser.add_argument("--b", type=Path, help="the checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=40, help="calls per side")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve.resolve(), args.workload, args.seed)
        return 0
    if args.a is None or args.b is None:
        parser.error("--a and --b are required")
    sides = {"a": start(args.a.resolve(), args), "b": start(args.b.resolve(), args)}
    runs = {"a": [], "b": []}
    try:
        for k in range(args.calls):
            for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
                runs[side].append(ask(sides[side], k))
    finally:
        for proc in sides.values():
            proc.stdin.close()
            proc.wait()
    out = {"workload": args.workload, "seed": args.seed, "calls": args.calls}
    for key in ("raw", "rescaled"):
        a, b = ([r[key] for r in runs[s]] for s in ("a", "b"))
        out[key] = {
            "a_median": statistics.median(a),
            "b_median": statistics.median(b),
            "ratio": statistics.median(b) / statistics.median(a),
            "b_wins": f"{sum(y > x for x, y in zip(a, b))}/{len(a)}",
        }
    out["shas"] = {side: runs[side][0]["shas"] for side in runs}
    out["problems"] = {side: [p for r in runs[side] for p in r["problems"]] for side in runs}
    print(json.dumps(out, indent=1))
    return 0 if not any(out["problems"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
