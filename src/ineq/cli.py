"""Command line front end: verify, sharpness, and eval subcommands.

Reports are printed as deterministic JSON (stable key order, 17-significant-
digit floats, no timestamps), so identical flags and seed produce identical
bytes.  Exit codes: 0 all asserted inequalities held, 1 violations were
found, 2 the input could not be understood.

Argument parsing only turns text into numbers and lists: the range of every
value is the library's rule (`run_suite`, `evaluate_file`), whose refusal is
printed as one line, "ineq: ...".  The eps grid is checked here, because
numpy builds it from its endpoints before `sweep` sees it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .errors import IneqError, InputFormatError
from .harness import DEFAULT_DIMS, DEFAULT_TRIALS, THEOREM_IDS, evaluate_file, run_suite
from .sharpness import CONSTRUCTIONS, sweep
from .tally import CHAIN_REL_TOL, emit_report, render_json


def _dims_arg(text: str):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")


def _theorems_arg(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _eps_grid_arg(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:COUNT, got {text!r}"
        )
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid endpoints must be finite, got {text!r}")
    if start <= 0 or stop <= 0 or count < 1:
        raise argparse.ArgumentTypeError("grid endpoints must be positive, count >= 1")
    # numpy's power can overflow on its way to a far endpoint, which it then sets exactly
    with np.errstate(over="ignore"):
        return tuple(float(e) for e in np.geomspace(start, stop, count))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineq",
        description="Evaluate, certify, and stress-test reverse inequalities "
        "on concrete inner-product spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="randomized suite: sampled admissible instances must satisfy every bound",
    )
    verify.add_argument(
        "--theorems",
        type=_theorems_arg,
        default=None,
        metavar="IDS",
        help=f"comma-separated ids (default: all; known: {', '.join(THEOREM_IDS)})",
    )
    verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    verify.add_argument(
        "--dims",
        type=_dims_arg,
        default=DEFAULT_DIMS,
        metavar="D1,D2,...",
        help="ambient dimensions cycled over (default: 1,2,3,8)",
    )
    verify.add_argument("--field", choices=("real", "complex", "both"), default="both")
    verify.add_argument("--tol", type=float, default=CHAIN_REL_TOL)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--adversarial",
        action="store_true",
        help="inflate residuals past the hypothesis to hunt for counterexamples "
        "to the bare inequalities",
    )

    sharp = sub.add_parser("sharpness", help="ratio sweep along an explicit family")
    sharp.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    sharp.add_argument(
        "--eps-grid",
        type=_eps_grid_arg,
        default=None,
        metavar="START:STOP:COUNT",
        help="geometric grid (default depends on the construction)",
    )

    evaluate = sub.add_parser("eval", help="evaluate instances from a JSON document")
    evaluate.add_argument("--input", required=True, metavar="FILE")
    evaluate.add_argument("--output", default=None, metavar="FILE")
    evaluate.add_argument("--format", choices=("json", "csv"), default="json")
    evaluate.add_argument("--tol", type=float, default=CHAIN_REL_TOL)

    return parser


def _cmd_verify(args) -> int:
    fields = ("real", "complex") if args.field == "both" else (args.field,)
    report = run_suite(
        theorems=args.theorems,
        trials=args.trials,
        dims=args.dims,
        fields=fields,
        tol=args.tol,
        seed=args.seed,
        adversarial=args.adversarial,
    )
    sys.stdout.write(report.to_json())
    return 0 if report.violations == 0 else 1


def _cmd_sharpness(args) -> int:
    result = sweep(args.construction, args.eps_grid)
    sys.stdout.write(render_json(result.as_dict()))
    return 0


def _cmd_eval(args) -> int:
    if args.format == "csv" and args.output is None:
        raise InputFormatError("--format csv needs --output FILE: stdout carries the JSON summary")
    report = evaluate_file(args.input, tol=args.tol, keep_records=args.output is not None)
    if args.output is not None:
        emit_report(report, args.output, args.format)
    # stdout carries the aggregates only; records go to --output
    sys.stdout.write(dataclasses.replace(report, record_texts=None).to_json())
    return 0 if report.violations == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sharpness":
            return _cmd_sharpness(args)
        return _cmd_eval(args)
    except (IneqError, OSError) as exc:
        print(f"ineq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
