"""Benchmark of the ineq package, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload suite|eval-records|quadrature \
        --seed N --seconds S --trace 0|1

The program is imported from the checkout's `src/` directory; nothing needs to
be installed.  With `--trace 0` the run reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it measures untraced for half the time and
traced for the other half, and reports the per-layer metrics (tracing.py).
Rates and times are rescaled to a reference host speed (calibration.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the report
hashes, the unscaled figures, the environment, and any trace hooks that found
no target.  Each run also writes its result, and a traced run its spans, to
`.perfbench_out/` in the checkout.  perfbench/README.md says why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import os

# Gauss rules call an eigen-solver: pin BLAS before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from calibration import Calibration, setup_slowdown
from workloads import WORKLOADS, cold_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Fresh processes whose set-up is timed; setup_s is their median.
SETUP_REPEATS = 5
#: Fewest calls a measurement takes, however long they run.
MIN_CALLS = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this fresh process, print it, and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def require_checkout() -> None:
    """Refuse to run anywhere but a source checkout with the package under src/."""
    if not (SRC / "ineq" / "__init__.py").is_file():
        print(f"perfbench: no ineq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)


def set_up(workload_cls, seed: int, workdir: Path):
    """Import the program, generate the inputs and warm up.

    Returns (main, workload, set-up seconds, numpy import seconds).  numpy is
    imported first and timed on its own: its import is the same for every
    version of the program, and set-up is rescaled by it (calibration.py).
    """
    t_numpy = time.perf_counter()
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ineq.cli

    if not Path(ineq.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported ineq from {ineq.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    workload = workload_cls(seed, str(workdir))
    workload.setup()
    code, _out = call(ineq.cli.main, workload.warmup_argv())
    if code != 0:
        print(f"perfbench: warm-up call exited {code}", file=sys.stderr)
        sys.exit(1)
    return ineq.cli.main, workload, time.perf_counter() - t0, t0 - t_numpy


def call(main, argv):
    """One in-process CLI invocation on cold caches; returns (exit code, stdout)."""
    cold_start()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed instance, not a dead benchmark
            code = f"raised {exc!r}"
    return code, out.getvalue()


def measure(main, workload, seconds: float, cal, tracer=None) -> dict:
    """Closed loop of CLI calls for `seconds`; per-call rates and failures.

    Each call's rate is rescaled by the calibration kernel timed just before
    and just after it (see calibration.py); the raw rates are kept as well.
    """
    rates, raw_rates, slowdowns = [], [], []
    attempted, failed, problems = 0, 0, []
    workload.start()
    deadline = time.perf_counter() + seconds
    before = cal.seconds()
    k = 0
    while k < MIN_CALLS or time.perf_counter() < deadline:
        argv = workload.argv(k)
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        code, stdout = call(main, argv)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        after = cal.seconds()
        slowdown = cal.slowdown((before + after) / 2)
        before = after
        n = workload.instances_per_call
        found = workload.check(k, code, stdout)
        attempted += n
        if found:
            failed += n
            problems.extend(f"call {k}: {p}" for p in found[:5])
        raw_rates.append(n / elapsed)
        rates.append(n / elapsed * slowdown)
        slowdowns.append(slowdown)
        k += 1
    return {
        "calls": k,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "instances_per_s": statistics.median(rates),
        "raw_instances_per_s": statistics.median(raw_rates),
        "host_slowdown": statistics.median(slowdowns),
        "shas": workload.shas(),
    }


def child_setups(args) -> list[tuple[float, float]]:
    """(rescaled, raw) set-up seconds of fresh processes running this run's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = child["setup_raw_s"]
        times.append((raw / setup_slowdown(child["numpy_import_s"]), raw))
    return times


def environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "ineq"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD's commit when the checkout is a git work tree (read, no git process)."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
        return next((l.split()[0] for l in packed if l.endswith(" " + ref[5:])), None)
    return None


def tree_sha256(path: Path) -> str:
    """Hash of the package's .py files, naming the measured code without git."""
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.py")):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ineq_main, workload, setup_raw_s, numpy_s = set_up(
            WORKLOADS[args.workload], args.seed, workdir
        )
        if args.setup_only:
            print(json.dumps({"setup_raw_s": setup_raw_s, "numpy_import_s": numpy_s}))
            return 0
        cal = Calibration(workload.calibration_lapack_reps)
        if args.trace == 0:
            setups = child_setups(args)
            run = measure(ineq_main, workload, args.seconds, cal)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "instances_per_s": metric(run["instances_per_s"], "1/s"),
                "setup_s": metric(statistics.median(s for s, _raw in setups), "s"),
                "peak_rss_mb": metric(peak_mb, "MB"),
            }
            runs = [run]
            unscaled = {
                "raw_instances_per_s": run["raw_instances_per_s"],
                "raw_setup_s": statistics.median(raw for _s, raw in setups),
                "host_slowdown": run["host_slowdown"],
                "calls": run["calls"],
            }
        else:
            runs, metrics = traced_runs(ineq_main, workload, cal, args)
            unscaled = {"calls": [r["calls"] for r in runs]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    shas = [r["shas"] for r in runs]
    if len({json.dumps(s, sort_keys=True) for s in shas}) != 1:
        problems.append(f"traced and untraced reports differ: {shas}")
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    env = environment(args)
    print(json.dumps(shas[0]))
    print(json.dumps({"unscaled": unscaled}))
    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "shas": shas[0], "unscaled": unscaled, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def traced_runs(ineq_main, workload, cal, args):
    """Untraced then traced halves of the run; per-layer metrics from the spans."""
    untraced = measure(ineq_main, workload, args.seconds / 2, cal)
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        traced = measure(
            tracer.wrap("cli.main", ineq_main), workload, args.seconds / 2, cal, tracer
        )
    finally:
        tracing.uninstall(undo)
    if missing:
        print(json.dumps({"trace_hooks_missing": missing}))
    layer = tracing.rollup(
        tracer.spans, traced["attempted"], traced["calls"], traced["host_slowdown"]
    )
    layer["trace.overhead_frac"] = (
        1.0 - traced["instances_per_s"] / untraced["instances_per_s"],
        "frac",
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(tracer.spans, OUT_DIR / f"{args.workload}.spans.jsonl")
    metrics = {name: metric(value, unit) for name, (value, unit) in sorted(layer.items())}
    return [untraced, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
