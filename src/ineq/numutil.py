"""Floating-point comparison helpers and deterministic report rendering."""

from __future__ import annotations

import json
from typing import Any

#: Relative slack used throughout when checking a <= b on computed chains.
CHAIN_REL_TOL = 1e-9


def leq_with_slack(lhs: float, rhs: float, tol: float = CHAIN_REL_TOL) -> bool:
    """True when lhs <= rhs up to both relative and absolute slack tol."""
    return lhs <= rhs * (1.0 + tol) + tol


def fmt_float(v: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("reports must contain finite numbers only")
    return format(float(v), ".17g")


def render_json(obj: Any, indent: int = 2) -> str:
    """Serialize nested dicts/lists/scalars to JSON deterministically.

    Unlike json.dumps, floats are always printed with 17 significant digits so
    that two runs producing equal values emit byte-identical documents.  Dict
    insertion order is preserved; callers build reports in a fixed order.
    """
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _render(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(pad + json.dumps(k) + ": ")
            _render(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        # Short numeric lists stay on one line for readable vectors.
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            body = ", ".join(
                fmt_float(v) if isinstance(v, float) else str(v) for v in obj
            )
            out.append("[" + body + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _render(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} deterministically")
