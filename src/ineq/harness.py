"""The theorem registry and its two runners, `run_suite` (verify) and `evaluate_file` (eval).

Each supported result has a wire id and one `TheoremSpec` in `_SPECS`, whose
order is the canonical report order.  A spec holds the operation's `params`
in call order as (key, kind) pairs, the kinds a document spells
(`documents`); the `sampler` that draws them (`sampling`), bound to the
options of its theorem; the `operation` the harness calls; and `real_only`,
for hypotheses that order real values (m*g <= f <= M*g in prop7.11 and
prop7.12).  The operation is the public bound chain of a vector id, and the
operation over rows (`integral`) of an id whose params include a function,
which the spec marks `grouped`.  `THEOREM_IDS` and `REAL_ONLY_IDS` are
derived from `_SPECS`.

A row is an instance in the one shape its operation takes: (field, record
dim, args), with `args` in `params` order.  Samplers draw rows,
`_document_row` decodes a document into one, and `_row_result`, the one
evaluator, calls the operation; an integral row is the one-row group of its
id.  Each report type states `admissible`, `margin`, `gap`, `bound` and the
`comparisons` it asserts, and `_result` copies them into the
`InstanceResult` that both runners count through one tally (`tally`).  The
tally alone refuses a result with a NaN or infinite number to report, and an
instance whose draw, decode or evaluation raised, as bad input named by its
index.

Both runners share one fork runner, `runner._run`, which deals their jobs
(theorems, or a document) to this process and forked children and merges
their tallies in order.  The default domain and the orthonormal families a
`run_suite` job's sampler draws on are built once, before the fork.

Within a piece, both runners take one results path, `_results`.  It
takes a window of consecutive rows, groups the integral ones by theorem,
field, domain and the form of each function (`_member`), and evaluates each
group as one call of its operation over rows (`TheoremSpec.operation`),
in chunks of at most `_GROUP_CHUNK_NODES` node values per function.  That
arithmetic is elementwise, row sums and min/max, so each row of a group is
bit for bit the instance evaluated alone, a NaN or inf included, which
the tally refuses as it would alone (`_Tally.add`).  A chunk that raises is
evaluated again one row at a time, as is every other instance: an error is
then the one-instance path's, raised after the results before it.  The
other ids are not grouped: their sums go through BLAS, whose order depends
on the array's shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__, documents, integral
from .bessel import (
    bessel_reverse_ball,
    bessel_reverse_pair,
    gruss_orthonormal_ball,
    gruss_orthonormal_pair,
)
from .documents import _ENCODERS, _decode, _decode_steps, _Decoding
from .errors import InputFormatError, _brief
from .gruss import gruss_ball, gruss_ball_refined, gruss_pair, gruss_pair_refined
from .integral import DiscretizedFunction, WeightedDomain, _discretized_rows
from .legacy import (
    legacy_bessel_ball,
    legacy_bessel_pair,
    legacy_gruss_ball,
    legacy_gruss_pair,
    legacy_schwarz_ball,
    legacy_schwarz_pair,
    legacy_triangle_ball,
    legacy_triangle_pair,
)
from .runner import _run
from .sampling import (
    _default_domain,
    _family_size,
    _rng_for,
    _sample_ball,
    _sample_bessel_ball,
    _sample_bessel_pair,
    _sample_family_gruss_ball,
    _sample_family_gruss_pair,
    _sample_gruss_ball,
    _sample_gruss_pair,
    _sample_integral_ball,
    _sample_integral_gruss,
    _sample_integral_pair,
    _sample_integral_range,
    _sample_real_range,
    _sample_two_sided,
    _Stream,
)
from .schwarz import reverse_schwarz_ball, reverse_schwarz_pair
from .space import FieldTag, standard_basis
from .tally import CHAIN_REL_TOL, InstanceResult, SuiteReport, _Tally
from .triangle import triangle_reverse_ball, triangle_reverse_pair

DEFAULT_DIMS = (1, 2, 3, 8)
DEFAULT_FIELDS = ("real", "complex")
DEFAULT_TRIALS = 1000


@dataclass(frozen=True)
class TheoremSpec:
    """Schema, sampler and operation of one theorem id."""

    params: tuple[tuple[str, str], ...]
    sampler: Callable
    operation: Callable
    real_only: bool = False
    steps: tuple = dc_field(init=False, repr=False)
    grouped: bool = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _decode_steps(self.params))
        object.__setattr__(self, "grouped", any(kind == "function" for _, kind in self.params))


_BALL = (("x", "vector"), ("a", "vector"), ("r", "real"))
_TWO_SIDED = (("x", "vector"), ("y", "vector"), ("pair", "pair"))
_RANGE = (("x", "vector"), ("y", "vector"), ("m", "real"), ("M", "real"))
_GRUSS = (("x", "vector"), ("y", "vector"), ("e", "vector"))
_GRUSS_BALL = _GRUSS + (("r1", "real"), ("r2", "real"))
_GRUSS_PAIR = _GRUSS + (("pair_x", "pair"), ("pair_y", "pair"))
_BESSEL_BALL = (("x", "vector"), ("size", "count"), ("lam", "seq"), ("r", "real"))
_BESSEL_PAIR = (("x", "vector"), ("size", "count"), ("gammas", "seq"), ("Gammas", "seq"))
_FAMILY = (("x", "vector"), ("y", "vector"), ("size", "count"))
_FAMILY_BALL = _FAMILY + (("lam", "seq"), ("mu", "seq"), ("r1", "real"), ("r2", "real"))
_FAMILY_PAIR = _FAMILY + (
    ("gammas_x", "seq"), ("Gammas_x", "seq"), ("phis_y", "seq"), ("Phis_y", "seq")
)
_INTEGRAL = (("f", "function"), ("g", "function"))
_INTEGRAL_BALL = _INTEGRAL + (("domain", "domain"), ("r", "real"))
_INTEGRAL_PAIR = _INTEGRAL + (("domain", "domain"), ("pair", "pair"))
_INTEGRAL_RANGE = _INTEGRAL + (("domain", "domain"), ("m", "real"), ("M", "real"))
_INTEGRAL_GRUSS = _INTEGRAL + (
    ("h", "function"), ("domain", "domain"), ("pair_f", "pair"), ("pair_g", "pair")
)


_SPECS: dict[str, TheoremSpec] = {
    "thm2.1": TheoremSpec(_BALL, _sample_ball, reverse_schwarz_ball),
    "thm2.2": TheoremSpec(_TWO_SIDED, _sample_two_sided, reverse_schwarz_pair),
    "prop2.3": TheoremSpec(_BALL, _sample_ball, triangle_reverse_ball),
    "prop2.4": TheoremSpec(_RANGE, _sample_real_range, triangle_reverse_pair),
    "thm4.1": TheoremSpec(_GRUSS_BALL, _sample_gruss_ball, gruss_ball),
    "thm4.2": TheoremSpec(_GRUSS_BALL, _sample_gruss_ball, gruss_ball_refined),
    "thm4.3": TheoremSpec(_GRUSS_PAIR, _sample_gruss_pair, gruss_pair),
    "thm4.4": TheoremSpec(_GRUSS_PAIR, _sample_gruss_pair, gruss_pair_refined),
    "thm5.1": TheoremSpec(_BESSEL_BALL, _sample_bessel_ball, bessel_reverse_ball),
    "thm5.2": TheoremSpec(_BESSEL_PAIR, _sample_bessel_pair, bessel_reverse_pair),
    "thm6.1": TheoremSpec(_FAMILY_BALL, _sample_family_gruss_ball, gruss_orthonormal_ball),
    "thm6.2": TheoremSpec(_FAMILY_PAIR, _sample_family_gruss_pair, gruss_orthonormal_pair),
    "legacy1.1": TheoremSpec(_BALL, partial(_sample_ball, restrict=True), legacy_schwarz_ball),
    "legacy1.3": TheoremSpec(
        _TWO_SIDED, partial(_sample_two_sided, positive_real=True), legacy_schwarz_pair
    ),
    "legacy1.7": TheoremSpec(
        _BALL, partial(_sample_ball, restrict=True, capped=True), legacy_triangle_ball
    ),
    "legacy1.8": TheoremSpec(
        _RANGE, partial(_sample_real_range, capped=True), legacy_triangle_pair
    ),
    "legacy1.10": TheoremSpec(
        _GRUSS_BALL, partial(_sample_gruss_ball, unit_radii=True), legacy_gruss_ball
    ),
    "legacy1.13": TheoremSpec(
        _GRUSS_PAIR, partial(_sample_gruss_pair, positive_real=True), legacy_gruss_pair
    ),
    "legacy1.18": TheoremSpec(
        _BESSEL_BALL, partial(_sample_bessel_ball, restrict=True), legacy_bessel_ball
    ),
    "legacy1.20": TheoremSpec(
        _BESSEL_PAIR, partial(_sample_bessel_pair, positive_sum=True), legacy_bessel_pair
    ),
    "prop7.1": TheoremSpec(_INTEGRAL_BALL, _sample_integral_ball, integral._schwarz_ball_rows),
    "prop7.2": TheoremSpec(_INTEGRAL_PAIR, _sample_integral_pair, integral._schwarz_pair_rows),
    "prop7.11": TheoremSpec(
        _INTEGRAL_RANGE, _sample_integral_range, integral._schwarz_range_rows, real_only=True
    ),
    "prop7.12": TheoremSpec(
        _INTEGRAL_RANGE, _sample_integral_range, integral._triangle_rows, real_only=True
    ),
    "prop7.3": TheoremSpec(_INTEGRAL_GRUSS, _sample_integral_gruss, integral._gruss_rows),
}

#: Wire ids in canonical report order.
THEOREM_IDS = tuple(_SPECS)

#: Ids whose hypothesis is an ordering of real values.
REAL_ONLY_IDS = frozenset(tid for tid, spec in _SPECS.items() if spec.real_only)


def _result(tid: str, field: FieldTag, dim: int, report) -> InstanceResult:
    """The record of a report: what it certifies, copied from its own certificate."""
    return InstanceResult(
        tid, field.value, dim, report.admissible, report.margin, report.gap, report.bound,
        report.comparisons,
    )


def normalize_theorem_id(theorem: str) -> str:
    tid = str(theorem).strip().lower()
    if tid not in _SPECS:
        raise InputFormatError(
            f"unknown theorem id {_brief(theorem)} (expected one of {', '.join(THEOREM_IDS)})"
        )
    return tid


def _check_dim(dim: int) -> None:
    """Refuse a dimension >= 1 whose sampled family would pass the family cap of `eval`:
    one rule for every id, so at most 512 with the cap at 2**18."""
    cap = documents._MAX_FAMILY_COORDS  # read at call time: one cap for both runners
    if dim * _family_size(dim) > cap:
        raise InputFormatError(
            f"dimension {_brief(dim)} is too large: a family sampled in it takes more "
            f"than {cap} coordinates"
        )


def sample_admissible(
    theorem: str,
    field: FieldTag | str = FieldTag.REAL,
    dim: int = 3,
    seed: int = 0,
    adversarial: bool = False,
    index: int = 0,
) -> dict:
    """Deterministically sample one instance whose hypothesis holds by construction.

    Returns the instance as a JSON-able document, the schema `evaluate_instance`
    and `ineq eval` read, its parameters in decoding order (the domain first).
    It is instance `index` (0 <= index < 2**64) of the theorem's stream for
    `seed`, the one `run_suite` draws at that index.
    """
    tid = normalize_theorem_id(theorem)
    tag = FieldTag.parse(field)
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
    _check_dim(int(dim))
    if int(seed) < 0:
        raise InputFormatError(f"seed must be nonnegative, got {seed}")
    if not 0 <= int(index) < 2**64:
        raise InputFormatError(f"index must be in [0, 2**64), got {index}")
    rng = _rng_for(_Stream(seed, tid), int(index))
    spec = _SPECS[tid]
    tag, _, args = spec.sampler(rng, int(dim), tag, bool(adversarial))
    doc = {"theorem": tid, "field": tag.value}
    for pos, key, _ in spec.steps:
        doc[key] = _ENCODERS[spec.params[pos][1]](args[pos], tag)
    doc["seed"] = int(seed)
    return doc


def _document_row(inst) -> tuple:
    """(theorem id, row) of an instance document: the (field, record dim, args) its
    sampler would draw, decoded once with full per-element validation.

    A {"poly"} function stays its coefficients, which its group discretizes
    (`_chunk_reports`); a {"values"} function is already discretized."""
    if not isinstance(inst, dict):
        raise InputFormatError(f"instance must be an object, got {type(inst).__name__}")
    if "theorem" not in inst:
        raise InputFormatError("instance is missing the 'theorem' key")
    tid = normalize_theorem_id(inst["theorem"])
    if "field" not in inst:
        raise InputFormatError("instance is missing the 'field' key")
    decoding = _Decoding(FieldTag.parse(inst["field"]))
    args = _decode(tid, inst, decoding, _SPECS[tid].steps)
    return tid, (decoding.field, decoding.dim, args)


def evaluate_instance(inst: dict) -> InstanceResult:
    """Decode one instance document and certify it on `run_suite`'s path (`_row_result`)."""
    return _row_result(*_document_row(inst))


def _suite_results(tid: str, grid: list, seed: int, adversarial: bool, lo: int, hi: int):
    """Instances lo..hi-1 of one theorem, sampled and evaluated in index order."""
    sampler = _SPECS[tid].sampler
    stream = _Stream(seed, tid)
    rows = (
        (tid, sampler(_rng_for(stream, i), *grid[i % len(grid)], adversarial))
        for i in range(lo, hi)
    )
    return _results(rows)


def _row_result(tid: str, row: tuple) -> InstanceResult:
    """Certify a row, the (field, record dim, args) a sampler drew or `_document_row`
    decoded: the one place an instance reaches its operation.

    An integral row is the one-row group of its id (`_chunk_reports`), which
    discretizes its coefficients on the instance's domain; every other row's
    arguments go to the operation as they are.  An ArithmeticError (a float **
    that overflowed, a divisor that underflowed to 0) names the row's theorem,
    which the tally's message for it quotes (`_Tally.counted`)."""
    field, dim, args = row
    spec = _SPECS[tid]
    try:
        if spec.grouped:
            dom = next(arg for arg in args if isinstance(arg, WeightedDomain))
            return _result(tid, field, dim, _chunk_reports(tid, field, dom, [args])[0])
        return _result(tid, field, dim, spec.operation(*args))
    except ArithmeticError as exc:
        raise type(exc)(f"{tid} {exc}") from None


#: Most node values per function in one grouped evaluation: a group is
#: evaluated in chunks of max(1, _GROUP_CHUNK_NODES // n) rows on n nodes.
#: Evaluating the quadrature benchmark's 480 instances on one CPU took a
#: median 107 ms one row at a time and 72 ms in chunks of this size; chunks
#: of 4096 to 32768 node values were within the noise of it, and whole
#: groups were slower (91 against 76 ms in another run; CHANGES.md).
_GROUP_CHUNK_NODES = 8192

#: Most consecutive instances, and most nodes over their decoded integral
#: instances, that one window holds decoded before its groups are evaluated.
_GROUP_WINDOW = 1024
_GROUP_WINDOW_NODES = 2**20


def _member(tid: str, row: tuple) -> Optional[tuple]:
    """(group key, nodes, arguments) of a row, or None for an id that is not grouped.

    Rows of one group share theorem, field, domain, and the form of each
    function: node values, or 1-D polynomial coefficients of one dtype
    (float64 or complex128, as samplers draw and `_decode` builds them) and
    one length.
    """
    spec = _SPECS[tid]
    if not spec.grouped:
        return None
    field, _, args = row
    forms = []
    for (_, kind), arg in zip(spec.params, args):
        if kind == "domain":
            dom = arg
        elif kind == "function":
            if isinstance(arg, DiscretizedFunction):
                forms.append(None)
            else:
                forms.append((arg.dtype.char, arg.size))
    return (tid, field, dom, tuple(forms)), dom.size, args


def _group_results(members: list) -> dict:
    """{index: result} of the (index, member) rows whose group chunk evaluated cleanly.

    A chunk that raises, a RuntimeWarning raised as an error included, is
    left out whole: its rows take their own path, which gives their errors
    and messages."""
    groups: dict = {}
    for i, (key, _, args) in members:
        groups.setdefault(key, []).append((i, args))
    done = {}
    for (tid, field, dom, _), rows in groups.items():
        step = max(1, _GROUP_CHUNK_NODES // dom.size)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            try:
                reports = _chunk_reports(tid, field, dom, [args for _, args in chunk])
            except Exception:
                continue
            for (i, _), report in zip(chunk, reports):
                done[i] = _result(tid, field, dom.size, report)
    return done


def _chunk_reports(tid: str, field: FieldTag, dom: WeightedDomain, chunk: list) -> list:
    """The reports of rows of one group, from their decoded arguments: each parameter is one
    column over the rows, a function's column its rows of node values.

    A function that discretizes to a NaN or inf is a ValueError naming its
    key, as `_decode` names the key of a value it refuses."""
    spec = _SPECS[tid]
    columns = []
    for pos, (key, kind) in enumerate(spec.params):
        parts = [args[pos] for args in chunk]
        if kind == "domain":
            columns.append(dom)
        elif kind == "function":
            try:
                columns.append(_discretized_rows(dom, parts, field))
            except ValueError as exc:
                raise ValueError(f"{tid} {key!r}: {exc}") from None
        else:
            columns.append(parts)
    return spec.operation(*columns)


def _results(rows):
    """The results of `rows`, (theorem id, row) pairs, in their order.

    A row is what a sampler drew or `_document_row` decoded.  The integral
    rows are taken a window of consecutive rows at a time, and evaluated in
    groups (`_group_results`); every other row goes to `_row_result` in its
    turn.  So a bad row raises as it does alone, after the results before
    it, and so does a row whose draw or decode raises.
    """
    rows = iter(rows)
    window, nodes = [], 0
    while True:
        try:
            tid, row = next(rows)
        except StopIteration:
            break
        except Exception:
            # drawing or decoding the next row raised: the rows before it come first
            yield from _window_results(window)
            raise
        grouped = _member(tid, row)
        if grouped is None and not window:
            yield _row_result(tid, row)
            continue
        window.append((tid, row, grouped))
        nodes += grouped[1] if grouped else 0
        if len(window) >= _GROUP_WINDOW or nodes >= _GROUP_WINDOW_NODES:
            yield from _window_results(window)
            window, nodes = [], 0
    yield from _window_results(window)


def _window_results(window: list):
    members = [(pos, member) for pos, (_, _, member) in enumerate(window) if member]
    done = _group_results(members)
    for pos, (tid, row, _) in enumerate(window):
        result = done.get(pos)
        yield _row_result(tid, row) if result is None else result


def run_suite(
    theorems: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    dims: Sequence[int] = DEFAULT_DIMS,
    fields: Sequence[FieldTag | str] = DEFAULT_FIELDS,
    tol: float = CHAIN_REL_TOL,
    seed: int = 0,
    adversarial: bool = False,
    keep_records: bool = False,
) -> SuiteReport:
    """Sample and evaluate `trials` instances per theorem over the dims x fields grid.

    Each theorem draws from one Philox stream keyed by (seed, theorem), and
    instance i starts at counter block i * 2**64 of it, so reports depend
    only on the arguments, never on execution order.  Fields are names or
    `FieldTag`s.  Instances stay typed from sampler to operation; none is
    encoded to JSON or decoded, and records hold only results.  Instance i is drawn on grid
    cell i mod len(grid), the grid being dims x the theorem's fields in
    order; `sample_admissible(theorem, field, dim, seed, adversarial,
    index=i)` returns the same instance as a document, and evaluating that
    document gives the same record bit for bit.

    Each theorem is one job of `runner._run`, over the CPUs available to the
    process; no argument sets how many.  The default domain and the standard
    families its sampler draws on are built here, once, before any fork.
    The report, and the first exception raised, do not depend on the worker
    count.  A run refuses an empty theorem list, and a run that would draw no
    instance: real-only ids (`REAL_ONLY_IDS`) with no real field.

    Violations count admissible instances failing an asserted comparison at
    relative tolerance tol (the theorems guarantee zero); counterexamples
    count hypothesis-violating instances whose bare inequality fails
    (adversarial mode exists to show these are found).  A theorem named twice
    runs once.  Results are counted by the same `_Tally` as `evaluate_file`'s,
    so a record and a per-theorem entry mean the same in both reports.
    """
    ids = list(
        THEOREM_IDS
        if theorems is None
        else dict.fromkeys(normalize_theorem_id(t) for t in theorems)
    )
    if not ids:
        raise InputFormatError("need at least one theorem")
    tally = _Tally(tol, keep_records, ids)
    if trials < 1:
        raise InputFormatError(f"trials must be >= 1, got {trials}")
    if int(seed) < 0:
        raise InputFormatError(f"seed must be nonnegative, got {seed}")
    dims = [int(d) for d in dims]
    if not dims:
        raise InputFormatError("need at least one dimension")
    if any(d < 1 for d in dims):
        raise InputFormatError(f"dimensions must be >= 1, got {dims}")
    for d in dims:
        _check_dim(d)
    field_tags = [FieldTag.parse(f) for f in fields]
    if not field_tags:
        raise InputFormatError("need at least one field")

    trials, seed, adversarial = int(trials), int(seed), bool(adversarial)
    jobs = []
    for tid in ids:
        tags = [t for t in field_tags if not (tid in REAL_ONLY_IDS and t is FieldTag.COMPLEX)]
        if tags:
            grid = [(d, t) for d in dims for t in tags]
            # what the job's instances share, built once, before any fork
            kinds = {kind for _, kind in _SPECS[tid].params}
            if "domain" in kinds:
                _default_domain()
            for d, t in grid[:trials] if "count" in kinds else ():
                standard_basis(t, d, _family_size(d))
            jobs.append(partial(_suite_results, tid, grid, seed, adversarial))
    if not jobs:
        verb = "takes" if len(ids) == 1 else "take"
        raise InputFormatError(
            f"the run draws no instance: {', '.join(ids)} {verb} real fields only"
        )
    _run(tally, jobs, trials)

    return tally.report({
        "mode": "verify",
        "version": __version__,
        "seed": seed,
        "tol": float(tol),
        "trials": trials,
        "dims": dims,
        "fields": [t.value for t in field_tags],
        "theorems": ids,
        "adversarial": adversarial,
    })


def evaluate_file(
    path: str, tol: float = CHAIN_REL_TOL, keep_records: bool = True
) -> SuiteReport:
    """Evaluate an instance document: {"instances": [instance, ...]}.

    Results are counted by the same `_Tally` as `run_suite`'s, every record
    kept unless `keep_records` is false (then `records` is None); per-theorem
    entries follow the first appearance of each id.  The
    document is one job of `runner._run`, cut into pieces that every CPU
    claims from one queue, and the first bad instance is reported as
    "instance i: ..." whatever the worker count.
    """
    tally = _Tally(tol, keep_records)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise InputFormatError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "instances" not in doc:
        raise InputFormatError(f"{path}: top level must be an object with 'instances'")
    instances = doc["instances"]
    if not isinstance(instances, list):
        raise InputFormatError(f"{path}: 'instances' must be a list")

    def job(lo: int, hi: int):
        # each instance decoded once, into its row, and evaluated on `run_suite`'s path
        return _results(_document_row(instances[j]) for j in range(lo, hi))

    # Overflow is bad input (`_Tally.add`), so numpy need not warn; workers inherit this.
    with np.errstate(over="ignore", invalid="ignore"):
        _run(tally, [job], len(instances))

    return tally.report({"mode": "eval", "version": __version__, "tol": float(tol)})
