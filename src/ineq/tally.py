"""The tally of certified results, and the report it makes: the one module
that judges, counts and writes every number a report shows.

`run_suite` (verify) and `evaluate_file` (eval) both count through one
`_Tally`: it decides each asserted comparison of an `InstanceResult` once, by
`leq_with_slack`, and those flags set a record's "passed", its per-comparison
booleans and the per-theorem and aggregate counts (`_Stats`).  A record is a
"violation" when its hypothesis holds and some asserted comparison fails, and
a "counterexample" when the hypothesis fails and a comparison fails; the
theorems guarantee zero violations, and counterexamples are what adversarial
mode looks for.  `_Tally.add` alone forms a result's slack and ratio, and
refuses a result with a NaN or infinite number to render, as bad input named
by the instance's index; `_Tally.counted` names an instance whose sampling,
decoding or evaluation raised the same way, for both runners.

Every command writes `render_json`'s one format: two-space indentation, keys
in insertion order, ASCII-escaped strings, numeric lists on one line, floats
as `FLOAT_SLOT` and bools as `BOOL_TEXT`, which CSV cells share.  A kept
record is rendered where it is counted, once, by `_record_text`, one printf
template over the plain values `_result` copies.  A forked child sends a
piece's records as one JSON text, `SuiteReport.to_json` splices the texts in
after the head, which is all that `render_json` writes of a report, and
`SuiteReport.records` is a parsed view of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Sequence

from .errors import IneqError, InputFormatError

#: Relative slack used throughout when checking a <= b on computed chains.
CHAIN_REL_TOL = 1e-9


def leq_with_slack(lhs: float, rhs: float, tol: float = CHAIN_REL_TOL) -> bool:
    """True when lhs <= rhs up to both relative and absolute slack tol."""
    return lhs <= rhs * (1.0 + tol) + tol


#: The printf form of a report float: 17 significant digits (round-trip exact).
FLOAT_SLOT = "%.17g"


def fmt_float(v: float) -> str:
    """Render a double with 17 significant digits (round-trip exact).

    Refuses NaN and infinities: the renderer's own safety check for report
    heads and sharpness sweeps."""
    text = FLOAT_SLOT % v
    # "nan", "inf" and "-inf" are the only renderings with an "n" in them.
    if "n" in text:
        raise ValueError("reports must contain finite numbers only")
    return text


#: The texts of False and True.
BOOL_TEXT = ("false", "true")


def render_json(obj: Any) -> str:
    """Serialize nested dicts/lists/scalars to JSON deterministically.

    Unlike json.dumps, floats are always printed with 17 significant digits so
    that two runs producing equal values emit byte-identical documents.  Dict
    insertion order is preserved; callers build reports in a fixed order.
    Subclasses of the JSON types (numpy floats, str and int subclasses) are
    rendered by the same rules as the types themselves.
    """
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _number_text(v: int | float) -> str:
    return fmt_float(v) if isinstance(v, float) else str(v)


def _emit(obj: Any, out: list[str], pad: str) -> None:
    """Append the JSON text of `obj`; `pad` is a newline plus the indent of obj's line."""
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else BOOL_TEXT[obj])
    elif isinstance(obj, (int, float)):
        out.append(_number_text(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(sep + inner + encode_basestring_ascii(k) + ": ")
            _emit(v, out, inner)
            sep = ","
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        # Numeric lists stay on one line for readable vectors.
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            out.append("[" + ", ".join([_number_text(v) for v in obj]) + "]")
        else:
            inner, sep = pad + "  ", "["
            for v in obj:
                out.append(sep + inner)
                _emit(v, out, inner)
                sep = ","
            out.append(pad + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} deterministically")


@dataclass(frozen=True)
class InstanceResult:
    """One evaluated instance: every asserted comparison plus the headline pair."""

    theorem: str
    field: str
    dim: int
    admissible: bool
    margin: float
    gap: float
    bound: float
    comparisons: tuple[tuple[str, float, str, float], ...]


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate (and optionally per-instance) outcome of a verification run.

    `record_texts` holds the records as `to_json` writes them: runs of
    consecutive records, each run rendered by `_record_text` and joined by
    `_RECORD_SEP`.  `records` is the parsed view of those texts.
    """

    metadata: dict
    aggregate: dict
    per_theorem: dict
    record_texts: Optional[list] = None

    @property
    def violations(self) -> int:
        return int(self.aggregate["violations"])

    @property
    def counterexamples(self) -> int:
        return int(self.aggregate["counterexamples"])

    @cached_property
    def records(self) -> Optional[list]:
        """One dict per record, or None; "index" and "dim" are ints, every other number a float."""
        if self.record_texts is None:
            return None
        records = json.loads("[" + _RECORD_SEP.join(self.record_texts) + "]", parse_int=float)
        for rec in records:
            rec["index"], rec["dim"] = int(rec["index"]), int(rec["dim"])
        return records

    def as_dict(self) -> dict:
        doc = {
            "metadata": self.metadata,
            "aggregate": self.aggregate,
            "per_theorem": self.per_theorem,
        }
        if self.record_texts is not None:
            doc["records"] = self.records
        return doc

    def to_json(self) -> str:
        return "".join(self._json_pieces())

    def _json_pieces(self) -> list:
        """The report's JSON text in pieces: the rendered head, then the record texts."""
        head = render_json({
            "metadata": self.metadata,
            "aggregate": self.aggregate,
            "per_theorem": self.per_theorem,
        })
        if self.record_texts is None:
            return [head]
        if not self.record_texts:
            return [head[:-3], ',\n  "records": []\n}\n']
        pieces = [head[:-3], ',\n  "records": [\n    ']
        for text in self.record_texts:
            pieces += [text, _RECORD_SEP]
        pieces[-1] = "\n  ]\n}\n"
        return pieces


class _Stats:
    __slots__ = ("count", "violations", "counterexamples", "min_slack", "max_ratio")

    def __init__(self):
        self.count = 0
        self.violations = 0
        self.counterexamples = 0
        self.min_slack = None
        self.max_ratio = None

    def add(self, admissible: bool, ok: bool, slack: float, ratio: Optional[float]) -> None:
        """Count one result; its slack and ratio (None when not counted) count if admissible."""
        self.count += 1
        if admissible:
            if not ok:
                self.violations += 1
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack
            if ratio is not None and (self.max_ratio is None or ratio > self.max_ratio):
                self.max_ratio = ratio
        elif not ok:
            self.counterexamples += 1

    def merge(self, later: "_Stats") -> None:
        """Fold in the stats of the rows after these, as `add` would have: ties keep the first.

        Exact for NaN-free values, which `_Tally.add` makes them: it counts a result
        only when its slack and counted ratio are finite."""
        self.count += later.count
        self.violations += later.violations
        self.counterexamples += later.counterexamples
        slack, ratio = later.min_slack, later.max_ratio
        if slack is not None and (self.min_slack is None or slack < self.min_slack):
            self.min_slack = slack
        if ratio is not None and (self.max_ratio is None or ratio > self.max_ratio):
            self.max_ratio = ratio

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "violations": self.violations,
            "counterexamples": self.counterexamples,
            "min_slack": self.min_slack,
            "max_ratio": self.max_ratio,
        }


CSV_COLUMNS = (
    "index",
    "theorem",
    "field",
    "dim",
    "admissible",
    "margin",
    "gap",
    "bound",
    "slack",
    "passed",
)

#: A record's keys in report order: the CSV columns, then its comparisons.
_RECORD_KEYS = CSV_COLUMNS + ("comparisons",)
#: Between two records of a report, and between two comparisons of a record.
_RECORD_SEP = ",\n    "
_COMPARISON_SEP = ",\n        "


#: A record's text at the records indent of a report, its comparisons one "%s":
#: printf slots for `_result`'s int, str, bool and float values, the str and
#: bool ones given as their JSON texts.
_RECORD_TEXT = "{%s\n    }" % ",".join(
    f"\n      {encode_basestring_ascii(key)}: {slot}"
    for key, slot in zip(
        _RECORD_KEYS, ["%d", "%s", "%s", "%d", "%s"] + [FLOAT_SLOT] * 4 + ["%s", "%s"]
    )
)
#: A comparison's text, [lhs label, lhs, rhs label, rhs, flag], at its indent in a record.
_COMPARISON_TEXT = "[%s\n        ]" % ",".join(
    f"\n          {slot}" for slot in ("%s", FLOAT_SLOT, "%s", FLOAT_SLOT, "%s")
)


def _comparisons_text(texts: list) -> str:
    return "[\n        " + _COMPARISON_SEP.join(texts) + "\n      ]" if texts else "[]"


def _record_text(index: int, result: InstanceResult, ok: bool, flags: list, slack: float) -> str:
    """The one definition of a record: its text at the records indent of a report.

    Byte for byte what `render_json` writes for the record's dict there.  The
    values are the plain ones `_result` copies (float numbers, str labels,
    bool flags and an int dim), so one printf template writes every record,
    and finite ones: `_Tally.add` refuses a result before rendering it.
    """
    texts = []
    for (l1, v1, l2, v2), flag in zip(result.comparisons, flags):
        texts.append(_COMPARISON_TEXT % (
            encode_basestring_ascii(l1), v1, encode_basestring_ascii(l2), v2, BOOL_TEXT[flag]
        ))
    return _RECORD_TEXT % (
        index, encode_basestring_ascii(result.theorem), encode_basestring_ascii(result.field),
        result.dim, BOOL_TEXT[result.admissible], result.margin, result.gap, result.bound, slack,
        BOOL_TEXT[ok], _comparisons_text(texts),
    )


#: How a refused result's message ends: its numbers left the range of a float.
_OUT_OF_RANGE = "; the inputs leave double precision"


class _Tally:
    """Stats and records of `run_suite` and `evaluate_file`, from one flag per comparison.

    Per-theorem entries appear in the order of `ids`, then of first appearance.
    """

    __slots__ = ("tol", "total", "per_theorem", "records")

    def __init__(self, tol: float, keep_records: bool, ids: Sequence[str] = ()):
        if not math.isfinite(tol):
            raise InputFormatError(f"tol must be finite, got {tol!r}")
        self.tol = tol
        self.total = _Stats()
        self.per_theorem = {tid: _Stats() for tid in ids}
        self.records: Optional[list] = [] if keep_records else None

    def add(self, index: int, result: InstanceResult) -> None:
        """Count `result`, or refuse it as bad input naming the first NaN or infinite number
        its record or the aggregate renders: gap, bound, margin, each comparison's two
        sides, slack, then ratio.  The one place a result is judged and its slack
        (bound - gap) and ratio are formed; the ratio, gap / bound, is None (not counted,
        not judged) unless the result is admissible with a bound above 1e-300."""
        gap, bound, admissible = result.gap, result.bound, result.admissible
        slack = bound - gap
        ratio = gap / bound if admissible and bound > 1e-300 else None
        total = result.margin + gap + bound + slack + (0.0 if ratio is None else ratio)
        flags = []
        for _, lhs, _, rhs in result.comparisons:
            flags.append(leq_with_slack(lhs, rhs, self.tol))
            total += lhs + rhs
        # a sum of finite floats is finite or overflows; one NaN or inf makes it non-finite,
        # and only then does the scan look for one
        if total - total != 0.0:
            named = [("gap", gap), ("bound", bound), ("margin", result.margin)]
            named += [pair for c in result.comparisons for pair in (c[:2], c[2:])]
            named += [("slack", slack)] + ([] if ratio is None else [("ratio", ratio)])
            for name, value in named:
                if not math.isfinite(value):
                    raise InputFormatError(
                        f"instance {index}: {result.theorem} {name} is {value!r}{_OUT_OF_RANGE}"
                    )
        ok = all(flags)
        stats = self.per_theorem.get(result.theorem)
        if stats is None:
            stats = self.per_theorem[result.theorem] = _Stats()
        stats.add(admissible, ok, slack, ratio)
        self.total.add(admissible, ok, slack, ratio)
        if self.records is not None:
            self.records.append(_record_text(index, result, ok, flags, slack))

    def counted(self, job, lo: int, hi: int) -> "_Tally":
        """A new tally, with this one's tol and records choice, of `job(lo, hi)`.

        The one place an index meets its result, so the one place an error that
        `job` raises for instance i is named by it: bad input, as "instance i: ...",
        and an ArithmeticError, whose text names the row's theorem (a float ** that
        overflowed or a divisor that underflowed to 0), as leaving double precision.
        Its records, if any, are one text: a child sends a piece's records
        as one string, and the report splices it in as it is."""
        part = _Tally(self.tol, self.records is not None)
        results = job(lo, hi)
        for i in range(lo, hi):
            try:
                result = next(results)
            except (IneqError, ValueError, TypeError) as exc:
                raise InputFormatError(f"instance {i}: {exc}")
            except ArithmeticError as exc:
                raise InputFormatError(f"instance {i}: {exc}{_OUT_OF_RANGE}")
            part.add(i, result)
        if part.records:
            part.records = [_RECORD_SEP.join(part.records)]
        return part

    def merge(self, later: "_Tally") -> None:
        """Fold in the tally of the results that follow every one counted here."""
        self.total.merge(later.total)
        for tid, stats in later.per_theorem.items():
            self.per_theorem.setdefault(tid, _Stats()).merge(stats)
        if self.records is not None:
            self.records += later.records

    def report(self, metadata: dict) -> SuiteReport:
        per_theorem = {tid: stats.as_dict() for tid, stats in self.per_theorem.items()}
        return SuiteReport(metadata, self.total.as_dict(), per_theorem, self.records)


def emit_report(report: SuiteReport, path: str, format: str = "json") -> None:
    """Write a report as JSON (full) or CSV (flat per-instance records)."""
    if format == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(report._json_pieces())
        return
    if format != "csv":
        raise InputFormatError(f"unknown format {format!r} (expected 'json' or 'csv')")
    if report.records is None:
        raise InputFormatError("CSV output needs per-instance records")
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            writer.writerow([_csv_cell(rec[c]) for c in CSV_COLUMNS])


def _csv_cell(v):
    if isinstance(v, bool):
        return BOOL_TEXT[v]
    if isinstance(v, float):
        return FLOAT_SLOT % v
    return v
