"""Deterministic JSON emission with floats at 17 significant digits.

The stock json module prints floats with repr (shortest round-trip); reports
here pin the textual format instead, so identical runs produce identical
bytes and every scalar carries full double precision.
"""

import math

INDENT = 2


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = f"{x:.17g}"
    # keep the token a valid JSON number
    return s if any(c in s for c in ".eE") else s + ".0"


def dumps(obj) -> str:
    out = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write(obj, out, level):
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad}"{k}": ')
            _write(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _write(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
