"""The benchmark's workloads: inputs made from the seed, CLI calls, output checks.

Every workload drives `ineq.cli.main` in-process from one closed-loop caller:
the next call starts when the previous one has returned.  A call is one user
invocation of `ineq`, so the program's in-process caches are emptied before
each call (`cold_start`), as a fresh `ineq` process would find them.

Why these three (see also README.md in this directory):

* suite         -- `ineq verify` on the `test_criterion_1` mix; RNG, sampling
                   and evaluation do nearly all the work, rendering almost none.
* eval-records  -- `ineq eval --output` on a document of every id, dim and
                   field with a fixed adversarial share; the untrusted-input
                   path (JSON parse, validated decode, per-record render and
                   write) with no RNG or sampling at all.
* quadrature    -- `ineq eval` on `prop7.*` only, over shared domains from 64
                   to 8192 nodes; the only workload where the integral layer,
                   long arrays and `build_domain` dominate.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

#: The `test_criterion_1` mix: every id, these dims, both fields, tol 1e-9.
#: The ids are listed so that a theorem added later does not change the work.
SUITE_IDS = (
    "thm2.1", "thm2.2", "prop2.3", "prop2.4", "thm4.1", "thm4.2", "thm4.3",
    "thm4.4", "thm5.1", "thm5.2", "thm6.1", "thm6.2", "legacy1.1", "legacy1.3",
    "legacy1.7", "legacy1.8", "legacy1.10", "legacy1.13", "legacy1.18",
    "legacy1.20", "prop7.1", "prop7.2", "prop7.11", "prop7.12", "prop7.3",
)
SUITE_DIMS = (1, 2, 3, 8, 16)
SUITE_TOL = 1e-9
#: Trials per theorem per call: 25 ids x 20 = 500 instances, ~0.18 s a call.
SUITE_TRIALS = 20

#: Instances in the eval-records document (two passes over the id x dim x
#: field grid); the seed picks which fifth of them are adversarial.
RECORDS_INSTANCES = 500
ADVERSARIAL_SHARE = 0.2

#: Domains of the quadrature workload.  All live on [0, 1], so the sampler's
#: pointwise hypotheses (built on the default 64-node rule) mostly carry over.
QUADRATURE_DOMAINS = (
    ("gauss", 64, (1.0,)),
    ("gauss", 256, (1.0, 1.0)),
    ("gauss", 1024, (0.5, 0.0, 1.0)),
    ("trapezoid", 512, (2.0, -1.0)),
    ("trapezoid", 2048, (1.0, 0.0, 0.0, 3.0)),
    ("trapezoid", 8192, (1.0,)),
)
QUADRATURE_IDS = ("prop7.1", "prop7.2", "prop7.11", "prop7.12", "prop7.3")
#: Instances per domain per call; each id gets 16 on every domain.
QUADRATURE_PER_DOMAIN = 80

#: Every CHECK_STRIDE-th eval record is re-evaluated through the scalar path.
CHECK_STRIDE = 41
CHECK_REL = 1e-12


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cold_start() -> None:
    """Empty the program's in-process caches, as a new `ineq` process has them."""
    for name, module in list(sys.modules.items()):
        if not (name == "ineq" or name.startswith("ineq.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and attr.upper().endswith("_CACHE"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Suite:
    """`ineq verify` through `cli.main`; call k uses its own derived seed."""

    name = "suite"
    instances_per_call = len(SUITE_IDS) * SUITE_TRIALS
    calibration_lapack_reps = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first_sha: str | None = None

    def setup(self) -> None:
        """verify's inputs are its flags: nothing to generate."""

    def start(self) -> None:
        """Begin a measurement: forget the hashes of earlier calls."""
        self.first_sha = None

    def _argv(self, trials: int, seed: int) -> list[str]:
        dims = ",".join(str(d) for d in SUITE_DIMS)
        return [
            "verify", "--theorems", ",".join(SUITE_IDS), "--trials", str(trials),
            "--dims", dims, "--field", "both", "--tol", repr(SUITE_TOL), "--seed", str(seed),
        ]

    def warmup_argv(self) -> list[str]:
        return self._argv(1, self.seed)

    def argv(self, k: int) -> list[str]:
        return self._argv(SUITE_TRIALS, self.seed * 100_000 + k)

    def check(self, k: int, code, stdout: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code!r}, expected 0")
        try:
            report = json.loads(stdout)
            aggregate = report["aggregate"]
            per_theorem = report["per_theorem"]
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable report: {exc!r}"]
        if aggregate.get("count") != self.instances_per_call:
            problems.append(f"count {aggregate.get('count')} != {self.instances_per_call}")
        if aggregate.get("violations") != 0:
            problems.append(f"{aggregate.get('violations')} violations")
        if list(per_theorem) != list(SUITE_IDS):
            problems.append(f"theorems reported: {list(per_theorem)}")
        for tid, stats in per_theorem.items():
            ratio = stats.get("max_ratio")
            if ratio is None or not ratio <= 1.0 + SUITE_TOL:
                problems.append(f"{tid}: max_ratio {ratio!r} exceeds 1 + tol")
        if k == 0:
            self.first_sha = sha256_text(stdout)
        return problems

    def shas(self) -> dict:
        return {"report_sha256": self.first_sha}


class EvalDocument:
    """`ineq eval --input DOC --output RECORDS.json` on a document fixed at set-up."""

    calibration_lapack_reps = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.doc_path = os.path.join(workdir, "instances.json")
        self.warm_path = os.path.join(workdir, "warmup.json")
        self.records_path = os.path.join(workdir, "records.json")
        self.instances: list[dict] = []
        self.first_sha: str | None = None
        self.first_records_sha: str | None = None

    @property
    def instances_per_call(self) -> int:
        return len(self.instances)

    def make_instances(self) -> list[dict]:
        raise NotImplementedError

    def setup(self) -> None:
        self.instances = self.make_instances()
        docs = ((self.doc_path, self.instances), (self.warm_path, self.instances[:25]))
        for path, instances in docs:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"instances": instances}, fh)

    def start(self) -> None:
        self.first_sha = self.first_records_sha = None

    def warmup_argv(self) -> list[str]:
        return ["eval", "--input", self.warm_path, "--output", self.records_path]

    def argv(self, k: int) -> list[str]:
        return ["eval", "--input", self.doc_path, "--output", self.records_path]

    def check(self, k: int, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code!r}, expected 0"]
        try:
            with open(self.records_path, "rb") as fh:
                records_bytes = fh.read()
        except OSError as exc:
            return [f"records file unreadable: {exc}"]
        stdout_sha = sha256_text(stdout)
        records_sha = hashlib.sha256(records_bytes).hexdigest()
        if self.first_sha is not None:
            # The input is the same on every call, so the output bytes must be.
            if (stdout_sha, records_sha) != (self.first_sha, self.first_records_sha):
                return ["output bytes differ from the first call on the same input"]
            return []
        problems = self._check_content(stdout, records_bytes)
        if not problems:
            self.first_sha, self.first_records_sha = stdout_sha, records_sha
        return problems

    def _check_content(self, stdout: str, records_bytes: bytes) -> list[str]:
        from ineq.harness import evaluate_instance

        n = len(self.instances)
        try:
            aggregate = json.loads(stdout)["aggregate"]
            records = json.loads(records_bytes)["records"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = []
        if aggregate.get("count") != n or aggregate.get("violations") != 0:
            problems.append(f"aggregate {aggregate!r} for {n} instances")
        if len(records) != n:
            return problems + [f"{len(records)} records for {n} instances"]
        for i, (rec, inst) in enumerate(zip(records, self.instances)):
            if rec.get("index") != i or rec.get("theorem") != inst["theorem"]:
                problems.append(f"record {i} is out of order")
                break
        for i in range(0, n, CHECK_STRIDE):
            ref = evaluate_instance(self.instances[i])
            rec = records[i]
            scale = max(abs(ref.gap), abs(ref.bound))
            if rec["admissible"] != ref.admissible or any(
                abs(rec[key] - value) > CHECK_REL * scale
                for key, value in (("gap", ref.gap), ("bound", ref.bound))
            ):
                problems.append(f"record {i} disagrees with the scalar evaluator")
        return problems

    def shas(self) -> dict:
        return {"report_sha256": self.first_sha, "records_sha256": self.first_records_sha}


class EvalRecords(EvalDocument):
    """Every id x dim x field, sampled admissible, a seed-chosen fifth adversarial."""

    name = "eval-records"

    def make_instances(self) -> list[dict]:
        import random

        from ineq.harness import sample_admissible

        # (theorem, field, dim) in sample_admissible's argument order.
        grid = [(t, f, d) for t in SUITE_IDS for d in SUITE_DIMS for f in ("real", "complex")]
        adversarial = set(
            random.Random(self.seed).sample(
                range(RECORDS_INSTANCES), int(ADVERSARIAL_SHARE * RECORDS_INSTANCES)
            )
        )
        return [
            sample_admissible(*grid[i % len(grid)], self.seed, i in adversarial, index=i)
            for i in range(RECORDS_INSTANCES)
        ]


def _scale_coeff(value, c: float):
    if isinstance(value, dict):
        return {key: part * c for key, part in value.items()}
    return value * c


class Quadrature(EvalDocument):
    """`prop7.*` instances moved onto shared domains; h renormalised per domain."""

    name = "quadrature"
    calibration_lapack_reps = 2  # gauss build_domain is an eigen-solve

    def make_instances(self) -> list[dict]:
        import numpy as np

        from ineq import build_domain, polynomial
        from ineq.harness import sample_admissible

        out = []
        index = 0
        for kind, n, weight in QUADRATURE_DOMAINS:
            spec = {
                "interval": [0.0, 1.0],
                "weight": {"poly": list(weight)},
                "rule": {"kind": kind, "n": n},
            }
            dom = build_domain((0.0, 1.0), polynomial(weight), kind, n)
            for j in range(QUADRATURE_PER_DOMAIN):
                tid = QUADRATURE_IDS[j % len(QUADRATURE_IDS)]
                field = "complex" if (j // len(QUADRATURE_IDS)) % 2 else "real"
                inst = sample_admissible(tid, field, 1, self.seed, index=index)
                index += 1
                inst["domain"] = spec
                if "h" in inst:
                    # ||h|| = 1 is a precondition; f, g and h scale together so
                    # the pointwise hypotheses against h are unchanged.
                    coeffs = [complex(c["re"], c["im"]) if isinstance(c, dict) else c
                              for c in inst["h"]["poly"]]
                    values = np.polynomial.polynomial.polyval(dom.nodes, np.array(coeffs))
                    c = 1.0 / float(np.sqrt(np.sum(dom.weights * np.abs(values) ** 2)))
                    for key in ("f", "g", "h"):
                        inst[key] = {"poly": [_scale_coeff(v, c) for v in inst[key]["poly"]]}
                out.append(inst)
        return out


WORKLOADS = {w.name: w for w in (Suite, EvalRecords, Quadrature)}
