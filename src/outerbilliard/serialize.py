"""Deterministic JSON emission with floats at 17 significant digits.

The stock json module prints floats with repr (shortest round-trip); reports
here pin the textual format instead, so identical runs produce identical
bytes and every scalar carries full double precision.
"""

INDENT = 2
_PAD = " " * INDENT
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    s = f"{x:.17g}"
    if "." in s or "e" in s:
        return s
    # keep the token a valid JSON number, or the token JSON readers take for it
    return _NON_FINITE.get(s, s + ".0")


def dumps(obj) -> str:
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl):
    """obj as JSON text; nl is a newline plus the indentation of obj's line.
    Dispatch is on the exact type, most frequent first; subclasses (numpy
    floats among them) are written as their base type."""
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + _PAD
        return ("{" + inner + ("," + inner).join([f'"{k}": {_encode(v, inner)}'
                                                  for k, v in obj.items()]) + nl + "}")
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + _PAD
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + nl + "]"
    if kind is str:
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    for base in (str, int, float, dict, list, tuple):
        if isinstance(obj, base):
            return _encode(base(obj), nl)
    raise TypeError(f"cannot serialize {kind.__name__}")
