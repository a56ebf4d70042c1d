"""Floating-point comparison helpers and deterministic report rendering.

`render_json` writes the one report format: two-space indentation, keys in
insertion order, ASCII-escaped strings, numeric lists on one line and every
float with 17 significant digits.
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

#: Text of each atom, by exact type.  Subclasses (np.float64, str and int
#: subclasses) miss this table and take `_emit_fallback`.
_ATOMS = {
    float: fmt_float,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: BOOL_TEXT.__getitem__,
    type(None): lambda _: "null",
}
_NUMBERS = frozenset((float, int))


def render_json(obj: Any) -> str:
    """Serialize nested dicts/lists/scalars to JSON deterministically.

    Unlike json.dumps, floats are always printed with 17 significant digits so
    that two runs producing equal values emit byte-identical documents.  Dict
    insertion order is preserved; callers build reports in a fixed order.
    """
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    # One join of short pieces: a document of records is never copied whole
    # level by level.
    return "".join(out)


def _emit(obj: Any, out: list[str], pad: str) -> None:
    """Append the JSON text of `obj`; `pad` is a newline plus the indent of obj's line."""
    atom = _ATOMS.get(type(obj))
    if atom is not None:
        out.append(atom(obj))
        return
    kind = type(obj)
    if kind is dict:
        _emit_dict(obj, out, pad)
    elif kind is list or kind is tuple:
        _emit_list(obj, out, pad)
    else:
        _emit_fallback(obj, out, pad)


def _emit_dict(obj: dict, out: list[str], pad: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = "{" + inner
    for k, v in obj.items():
        if not isinstance(k, str):
            raise TypeError(f"non-string key {k!r}")
        atom = _ATOMS.get(type(v))
        if atom is not None:
            out.append(sep + encode_basestring_ascii(k) + ": " + atom(v))
        else:
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _emit(v, out, inner)
        sep = "," + inner
    out.append(pad + "}")


def _emit_list(obj, out: list[str], pad: str) -> None:
    if not obj:
        out.append("[]")
        return
    kinds = set(map(type, obj))
    # Numeric lists stay on one line for readable vectors.
    if kinds <= _NUMBERS:
        out.append("[" + ", ".join([_ATOMS[type(v)](v) for v in obj]) + "]")
        return
    inner = pad + "  "
    if kinds <= _ATOMS.keys():  # atoms, and not all numbers: joined in one step
        items = [_ATOMS[type(v)](v) for v in obj]
        out.append("[" + inner + ("," + inner).join(items) + pad + "]")
        return
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        out.append("[" + ", ".join([_subclass_number(v) for v in obj]) + "]")
        return
    sep = "[" + inner
    for v in obj:
        out.append(sep)
        _emit(v, out, inner)
        sep = "," + inner
    out.append(pad + "]")


def _subclass_number(v) -> str:
    return fmt_float(float(v)) if isinstance(v, float) else str(v)


def _emit_fallback(obj: Any, out: list[str], pad: str) -> None:
    """Subclasses of the JSON types, by the same rules as the exact types."""
    if isinstance(obj, (int, float)):
        out.append(_subclass_number(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        _emit_dict(obj, out, pad)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, out, pad)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} deterministically")
