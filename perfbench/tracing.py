"""Span recording for the traced benchmark run, from outside the program.

`install` wraps names that the `ineq` modules look up at call time: the
evaluator operations as `ineq.harness` calls them, the condition functions as
the evaluator modules call them, the `Vector` and `CoefficientSequence`
constructors, the comparison and rendering helpers, and the numpy RNG
constructors the harness builds its per-instance generators from.  Every call
through a wrapper records one span ``(id, parent id, name, start ns, end ns,
raised, size)`` in memory; `write_spans` writes them out when the run ends.
No file of the program changes, and an untraced run installs no wrapper.

A few hooks name private harness objects (`_rng_for`, `_SAMPLERS`,
`_EVALUATORS`, `_dec_domain`, `InstanceResult.passed`) because no public name
separates RNG, sampling, decoding and comparison inside `run_suite`.  A hook
whose name is gone is skipped and listed in the run's output; its time then
shows up in its caller's self time instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

#: Stage of ROADMAP item 5 that each span name rolls up into.  Names mapped to
#: None inherit the stage of the span that called them (a Vector built while
#: decoding is decode time, one built inside a bound chain is evaluate time).
STAGES = ("rng", "sample", "decode", "evaluate", "compare", "render")
SPAN_STAGE = {
    "cli.main": "other",
    "harness.run_suite": "other",
    "harness.rng_for": "rng",
    "harness.rng_seed": "rng",
    "harness.rng": "rng",
    "harness.sample": "sample",
    "harness.decode": "decode",
    "harness.file_load": "decode",
    "harness.domain": None,
    "integral.build_domain": None,
    "conditions.check": None,
    "space.vector": None,
    "space.coeff_seq": None,
    "harness.passed": "compare",
    "numutil.compare": "compare",
    "numutil.render": "render",
    "harness.emit": "render",
}
EVALUATOR_LAYERS = ("schwarz", "triangle", "gruss", "bessel", "legacy", "integral")
for _layer in EVALUATOR_LAYERS:
    SPAN_STAGE[f"{_layer}.eval"] = "evaluate"
LAYERS = ("cli", "harness", "space", "conditions") + EVALUATOR_LAYERS + ("numutil",)


class Tracer:
    """In-memory span recorder; records only while `enabled` is true."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, size=None):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            raised = True
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                tracer._stack.pop()
                amount = size(args, result) if size is not None and not raised else 0
                tracer.spans.append((sid, parent, name, t0, t1, raised, amount))

        return traced


def _array_bytes(args, _result) -> int:
    """Bytes of the node arrays an integral operation reads (computed, not measured)."""
    total = 0
    for arg in args:
        for attr in ("values", "weights"):
            arr = getattr(arg, attr, None)
            total += getattr(arr, "nbytes", 0)
    return total


def _text_size(_args, result) -> int:
    return len(result) if isinstance(result, str) else 0


def install(tracer: Tracer):
    """Wrap the program's layer boundaries; returns (undo list, missing hooks)."""
    import numpy as np

    import ineq.cli
    import ineq.harness
    import ineq.space

    undo: list[tuple] = []
    missing: list[str] = []

    def hook(owner, attr, name, size=None):
        if isinstance(owner, dict):
            undo.append((owner, attr, owner[attr]))
            owner[attr] = tracer.wrap(name, owner[attr], size)
            return
        if not hasattr(owner, attr):
            missing.append(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, size))

    harness = ineq.harness
    hook(harness, "_rng_for", "harness.rng_for")
    hook(np.random, "SeedSequence", "harness.rng_seed")
    hook(np.random, "default_rng", "harness.rng")
    for table, name in (("_SAMPLERS", "harness.sample"), ("_EVALUATORS", "harness.decode")):
        entries = getattr(harness, table, None)
        if isinstance(entries, dict):
            for key in list(entries):
                hook(entries, key, name)
        else:
            missing.append(f"ineq.harness.{table}")
    hook(harness, "sample_admissible", "harness.sample")
    hook(harness, "evaluate_instance", "harness.decode")
    hook(harness, "_dec_domain", "harness.domain")
    hook(harness, "build_domain", "integral.build_domain")
    hook(harness.InstanceResult, "passed", "harness.passed")
    hook(harness, "leq_with_slack", "numutil.compare")
    hook(harness, "render_json", "numutil.render", _text_size)
    # The operations harness imports from the evaluator modules (build_domain
    # is wrapped above, polynomial only builds a callable).
    for attr, value in list(vars(harness).items()):
        layer = getattr(value, "__module__", "").rpartition(".")[2]
        if (
            inspect.isfunction(value)
            and layer in EVALUATOR_LAYERS
            and not attr.startswith("_")
            and attr != "polynomial"
        ):
            hook(harness, attr, f"{layer}.eval", _array_bytes if layer == "integral" else None)

    for layer in EVALUATOR_LAYERS:
        module = importlib.import_module(f"ineq.{layer}")
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == "ineq.conditions"
                and not attr.startswith("_")
            ):
                hook(module, attr, "conditions.check")

    hook(ineq.space.Vector, "__init__", "space.vector")
    hook(ineq.space.CoefficientSequence, "__init__", "space.coeff_seq")

    cli = ineq.cli
    hook(cli, "run_suite", "harness.run_suite")
    hook(cli, "evaluate_file", "harness.file_load")
    hook(cli, "emit_report", "harness.emit")
    hook(cli, "render_json", "numutil.render", _text_size)
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def write_spans(spans, path) -> None:
    """One JSON array per line: [id, parent, name, start_ns, end_ns, raised, size]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")))
            fh.write("\n")


def rollup(spans, instances: int, calls: int, slowdown: float) -> dict:
    """Per-layer metrics and the stage roll-up of one traced measurement.

    All times are self times: a span's duration minus the part its wrapped
    children cover, divided by the host `slowdown` measured around the traced
    calls (calibration.py), so they refer to the same speed as the end-to-end
    rates.  Per-instance figures divide by `instances`, per-call figures by
    `calls` (CLI invocations).
    """
    child_ns: dict[int, int] = {}
    by_id: dict[int, tuple] = {}
    for span in spans:
        sid, parent, _name, t0, t1 = span[:5]
        by_id[sid] = span
        child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)

    stage_of: dict[int, str] = {0: "other"}

    def stage(sid):
        found = stage_of.get(sid)
        if found is None:
            span = by_id.get(sid)
            if span is None:
                return "other"
            fixed = SPAN_STAGE.get(span[2], "other")
            found = stage(span[1]) if fixed is None else fixed
            stage_of[sid] = found
        return found

    self_ns: dict[str, int] = {}
    count: dict[str, int] = {}
    size: dict[str, int] = {}
    errors = {layer: 0 for layer in LAYERS}
    stage_ns = {s: 0 for s in STAGES + ("other",)}
    wall_ns = 0
    for sid, parent, name, t0, t1, raised, amount in spans:
        own = (t1 - t0) - child_ns.get(sid, 0)
        self_ns[name] = self_ns.get(name, 0) + own
        count[name] = count.get(name, 0) + 1
        size[name] = size.get(name, 0) + amount
        stage_ns[stage(sid)] += own
        if raised:
            errors[name.split(".")[0]] += 1
        if parent == 0:
            wall_ns += t1 - t0

    def us_per_inst(name):
        return self_ns.get(name, 0) / 1e3 / slowdown / instances

    def s_per_call(name):
        return self_ns.get(name, 0) / 1e9 / slowdown / calls

    def per_inst(name):
        return count.get(name, 0) / instances

    metrics = {
        "harness.rng_us": (
            sum(us_per_inst(n) for n in ("harness.rng_for", "harness.rng_seed", "harness.rng"))
            * 1000,
            "us/1000inst",
        ),
        "harness.rng_calls": (per_inst("harness.rng") * 1000, "count/1000inst"),
        "harness.sample_us": (us_per_inst("harness.sample"), "us/inst"),
        "harness.decode_us": (us_per_inst("harness.decode"), "us/inst"),
        "harness.file_load_s": (s_per_call("harness.file_load"), "s/call"),
        "harness.domain_cache_hit_ratio": (
            1.0 - count.get("integral.build_domain", 0) / max(count.get("harness.domain", 0), 1),
            "ratio",
        ),
        "harness.emit_s": (s_per_call("harness.emit"), "s/call"),
        "space.vectors_per_instance": (per_inst("space.vector"), "1/inst"),
        "space.coeff_seqs_per_instance": (per_inst("space.coeff_seq"), "1/inst"),
        "space.vector_us": (us_per_inst("space.vector") + us_per_inst("space.coeff_seq"), "us/inst"),
        "conditions.check_us": (us_per_inst("conditions.check"), "us/inst"),
        "conditions.checks_per_instance": (per_inst("conditions.check"), "1/inst"),
    }
    for layer in EVALUATOR_LAYERS:
        name = f"{layer}.eval"
        calls_of = count.get(name, 0)
        metrics[f"{layer}.eval_us"] = (
            self_ns.get(name, 0) / 1e3 / slowdown / max(calls_of, 1),
            "us/call",
        )
        metrics[f"{layer}.calls"] = (per_inst(name), "1/inst")
    metrics.update(
        {
            "integral.build_domain_s": (s_per_call("integral.build_domain"), "s/call"),
            "integral.build_domain_calls": (
                count.get("integral.build_domain", 0) / calls,
                "count/call",
            ),
            "integral.bytes_per_instance": (
                size.get("integral.eval", 0) / max(count.get("integral.eval", 0), 1),
                "B/inst-computed",
            ),
            "numutil.compare_us": (
            us_per_inst("numutil.compare") + us_per_inst("harness.passed"),
            "us/inst",
        ),
            "numutil.comparisons_per_instance": (per_inst("numutil.compare"), "1/inst"),
            "numutil.render_s": (s_per_call("numutil.render"), "s/call"),
            "numutil.render_bytes": (size.get("numutil.render", 0) / calls, "B/call"),
            "cli.self_s": (s_per_call("cli.main"), "s/call"),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    for s in STAGES + ("other",):
        metrics[f"stage.{s}_us"] = (stage_ns[s] / 1e3 / slowdown / instances, "us/inst")
    covered = sum(stage_ns[s] for s in STAGES)
    metrics["stage.coverage"] = (covered / wall_ns if wall_ns else 0.0, "frac")
    metrics["trace.spans_per_instance"] = (len(spans) / instances, "1/inst")
    return metrics
