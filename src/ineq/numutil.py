"""Floating-point comparison helpers and deterministic report rendering.

`render_json` writes the one report format: two-space indentation, keys in
insertion order, ASCII-escaped strings, numeric lists on one line and every
float with 17 significant digits.  It renders report heads and sharpness
sweeps.  A report's records are written by `harness._record_text`, one
printf template that writes what `render_json` would, and raises its
ValueError (`fmt_float`) for a NaN or infinite number.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any

#: Relative slack used throughout when checking a <= b on computed chains.
CHAIN_REL_TOL = 1e-9


def leq_with_slack(lhs: float, rhs: float, tol: float = CHAIN_REL_TOL) -> bool:
    """True when lhs <= rhs up to both relative and absolute slack tol."""
    return lhs <= rhs * (1.0 + tol) + tol


#: The printf form of a report float: 17 significant digits (round-trip exact).
FLOAT_SLOT = "%.17g"


def fmt_float(v: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
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
