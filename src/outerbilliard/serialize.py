"""Deterministic JSON emission with floats at 17 significant digits.

The stock json module prints floats with repr (shortest round-trip); reports
here pin the textual format instead, so identical runs produce identical
bytes and every scalar carries full double precision.  Tables go out as
CSV through write_g17_csv, CSV_BLOCK rows at a time, each block's "%.17g"
text written by g17_csv with numpy array arithmetic.  A long list of row
objects can reach dumps as columns (Rows), so that its float columns take
the same array path; g17_fields is g17_csv on one column.  Either way a
float's "%.17g" field becomes a JSON number by one rule, _json_number.
"""

import json

import numpy as np

INDENT = 2
_PAD = " " * INDENT
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(field: str) -> str:
    """A "%.17g" field as a JSON number: .0 after a field with no point or
    exponent, and the names JSON readers take for nan and inf."""
    if "." in field or "e" in field:
        return field
    return _NON_FINITE.get(field, field + ".0")


def dumps(obj) -> str:
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl):
    """obj as JSON text; nl is a newline plus the indentation of obj's line.
    Dispatch is on the exact type, most frequent first; any other type,
    a subclass such as numpy's float64 among them, raises TypeError."""
    kind = type(obj)
    if kind is float:
        return _json_number(f"{obj:.17g}")
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
        return json.dumps(obj, ensure_ascii=False)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is Rows:
        return _encode_rows(obj, nl)
    raise TypeError(f"cannot serialize {kind.__name__}")


class Rows:
    """A JSON array of objects given as columns, which dumps writes as the
    list of dicts it stands for.  columns maps each key, in the objects' key
    order, to a column: a float64 array, written by the exact "%.17g" array
    path with _json_number's rule; a sequence of JSON values, one a row; or a
    dict {row: value}, whose key appears only on the rows it names.  count is
    the number of rows."""

    def __init__(self, count: int, columns: dict):
        self.count, self.columns = count, columns


def _encode_rows(rows, nl):
    if not rows.count:
        return "[]"
    inner = nl + _PAD
    field = inner + _PAD
    pieces = []
    for key, col in rows.columns.items():
        head = f',{field}"{key}": '
        if type(col) is dict:
            piece = [""] * rows.count
            for i, v in col.items():
                piece[i] = head + _encode(v, field)
        elif isinstance(col, np.ndarray) and col.dtype == np.float64:
            piece = [head + _json_number(v) for v in g17_fields(col)]
        else:
            piece = [head + _encode(v, field) for v in col]
        pieces.append(piece)
    # each object's text less its leading comma, or {} for an object with no key
    bodies = map("".join, zip(*pieces)) if pieces else [""] * rows.count
    objs = [f"{{{body[1:]}{inner}}}" if body else "{}" for body in bodies]
    return "[" + inner + ("," + inner).join(objs) + nl + "]"


# -- "%.17g" on float64 arrays -------------------------------------------------
#
# A finite x with 1e-30 <= |x| <= 1e30 is written from its 17-digit integer
# D and decimal exponent X, |x| = D 10^(X - 16) correctly rounded.  X is
# floor(log10 |x|) from the binary exponent and one comparison with a power
# of ten; D = round(|x| 10^(16 - X)) comes from a double-double product:
# Dekker's exact product of |x| with the double nearest 10^(16 - X), plus
# |x| times that double's remainder.  The product is at least 10^16 > 2^53,
# so its high part is an integer and the fraction sits in the low part,
# within 1e-13 of its true value.  A fraction within G17_TIE_BAND of 1/2
# (exact ties among them), a magnitude outside G17_RANGE, and inf and nan are
# written by "%" itself, so every field has the bytes of "%.17g" % x.
#
# Each field is laid out in a 32-byte frame row, NUL-padded anywhere:
#   byte 0 sign, bytes 2-6 the "0.000" of -4 <= X < 0, bytes 7-24 the digits
#   and the point (digit slot j at byte 7 + j), bytes 25-28 "e+XX", byte 30
#   the separator that g17_csv writes;
# deleting the frame's NUL bytes, one bytes.translate, joins its fields.
# The digits come four at a time from a table of "0000".."9999" strings, and
# masks by X and the digit count keep the digits before the point from the
# row and those after it from the row shifted by one byte.
# The tables are built at import, in under a millisecond; G17_RANGE spans the
# default tables' magnitudes (5e-5 to 1.5e8 on the presets and a 10:1 ellipse).

G17_RANGE = (1e-30, 1e30)     # |x| the array path writes; the tables cover it
G17_TIE_BAND = 1e-9           # |fraction - 1/2| below which "%" rounds the field
_FRAME = 32                   # bytes of a field's frame row
_X_LO, _X_HI = -32, 31        # X of the tables: G17_RANGE's, one below and one above
_SPLIT = 134217729.0          # 2^27 + 1: Dekker's splitter of a double into 26 + 27 bits
_LOG10_2 = 0.30102999566398120
_DIGIT0 = 7                   # frame byte of the first digit slot
CSV_BLOCK = 1024              # rows formatted per g17_csv call by write_g17_csv


def _nearest_power(n):
    """(hi, lo): hi the double nearest 10^n, lo the double nearest 10^n - hi,
    both correctly rounded from exact integer arithmetic."""
    if n >= 0:
        hi = float(10 ** n)
        return hi, float(10 ** n - int(hi))
    hi = 1 / 10 ** -n
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10 ** -n) / (den * 10 ** -n)


def _g17_tables():
    """The fast path's tables, built at import.  By i = X - _X_LO: hi, the
    double nearest 10^(16 - X), its Dekker halves hi_h and hi_l, and lo, the
    double nearest 10^(16 - X) - hi (hi + lo is 10^(16 - X) to 2^-106
    relative); ten_up, the least double >= 10^X.  By i * 17 + nsig - 1 for
    nsig significant digits: keep_l and keep_r, the frame masks of the digit
    row and of the row shifted by one byte, and fill, the frame bytes of X's
    "0.000" or "e+XX" and of the point.  digits holds "0000" .. "9999" as
    uint32; zeros4 the trailing zeros of a four-digit group."""
    xs = np.arange(_X_LO, _X_HI + 1)
    hi, lo = np.array([_nearest_power(16 - x) for x in xs.tolist()]).T
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    near, rest = np.array([_nearest_power(x) for x in xs.tolist()]).T
    ten_up = np.where(rest > 0, np.nextafter(near, np.inf), near)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        digits[..., k] = (np.arange(10) + ord("0")).reshape((10,) + (1,) * (3 - k))
    zeros4 = np.zeros(10_000, np.uint8)
    for k in range(1, 5):
        zeros4[::10 ** k] += 1
    affix = np.zeros((xs.size, _FRAME), np.uint8)
    for i, x in enumerate(xs.tolist()):
        if -4 <= x < 0:
            affix[i, 2:3 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        elif not 0 <= x < 17:
            affix[i, 25:25 + len(b"e%+03d" % x)] = np.frombuffer(b"e%+03d" % x, np.uint8)
    # "%g" layout by the point slot p: fixed notation has p = X + 1 integer
    # digits for 0 <= X < 17, d.ddd has p = 1, and 0.000ddd (p = 0) none;
    # axes (X, nsig, frame byte b counted from the first digit slot)
    p = np.where((-4 <= xs) & (xs < 17), np.maximum(xs + 1, 0), 1)[:, None, None]
    nsig = np.arange(1, 18)[:, None]
    b = np.arange(_FRAME) - _DIGIT0
    frac = (p > 0) & (nsig > p)
    keep_l = ((0 <= b) & (b < np.where(p == 0, nsig, p))) * np.uint8(0xFF)
    keep_r = (frac & (p < b) & (b <= nsig)) * np.uint8(0xFF)
    fill = affix[:, None] | (frac & (b == p)) * np.uint8(ord("."))
    masks = (m.reshape(-1, _FRAME).view(np.uint64) for m in (keep_l, keep_r, fill))
    return (hi, hi_h, hi - hi_h, lo, ten_up, *masks, digits.view(np.uint32).reshape(-1), zeros4)


_HI, _HI_H, _HI_L, _LO, _TEN_UP, _KEEP_L, _KEEP_R, _FILL, _DIGITS, _ZEROS4 = _g17_tables()


def _g17_slow(values):
    """"%.17g" of each value: the fields the array path leaves to "%"."""
    return ["%.17g" % v for v in values]


def _g17_exact(x):
    """(i, d, slow) for the flat float array x: i = X - _X_LO and the 17-digit
    integer D of each field, and the indices of the fields "%" must write."""
    ax = np.abs(x)
    fast = (ax >= G17_RANGE[0]) & (ax <= G17_RANGE[1])     # nan fails both
    ax[~fast] = 1.0
    # floor((e - 1) log10 2) is X or X - 1; the comparison settles which
    i = np.floor((np.frexp(ax)[1] - 1) * _LOG10_2).astype(np.int64) - _X_LO
    i += ax >= _TEN_UP.take(i + 1)
    p = ax * _HI.take(i)
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    bh, bl = _HI_H.take(i), _HI_L.take(i)
    e = (((ah * bh - p) + ah * bl) + al * bh) + al * bl + ax * _LO.take(i)
    del c, ah, al, bh, bl
    f = np.floor(e)
    r = e - f
    d = p.astype(np.int64) + f.astype(np.int64) + (r > 0.5)
    # |x| 10^(16 - X) < 10^17, so D = 10^17 is a round-up: D = 10^16 at X + 1
    up = d == 10 ** 17
    i += up
    d[up] = 10 ** 16
    return i, d, np.flatnonzero(~fast | (np.abs(r - 0.5) < G17_TIE_BAND))


def _g17_frame(x):
    """(len(x), _FRAME) uint8 frame whose row k is "%.17g" % x[k], NUL-padded,
    so that its bytes less the NULs are the fields run together.  Temporaries
    are dropped once used: they are the memory a table writer adds to its rows."""
    i, d, slow = _g17_exact(x)
    # D's digits as "000d" then four groups of four at frame bytes 4-23
    g3 = d // 10 ** 8
    low8 = d - g3 * 10 ** 8
    lead = g3 // 10 ** 8
    g3 -= lead * 10 ** 8                  # the high eight digits
    g2 = g3 // 10 ** 4
    g3 -= g2 * 10 ** 4
    g4 = low8 // 10 ** 4
    g5 = low8 - g4 * 10 ** 4
    # D's first digit is not 0: the zeros of its low eight digits unless
    # they are all 0, of the high eight then
    low = np.where(g5 != 0, _ZEROS4.take(g5), 4 + _ZEROS4.take(g4))
    high = np.where(g3 != 0, _ZEROS4.take(g3), 4 + _ZEROS4.take(g2))
    key = i * 17 + 16 - np.where(low8 != 0, low, 8 + high)
    del i, d, low8, low, high
    row = np.zeros((x.size, _FRAME // 4), np.uint32)
    for k, g in enumerate((lead, g2, g3, g4, g5), 1):
        row[:, k] = _DIGITS.take(g)
    del lead, g2, g3, g4, g5, g
    out = _KEEP_L.take(key, axis=0)
    out &= row.view(np.uint64)
    # the row one byte on: the last field's byte 31, a NUL, comes round to 0
    shifted = np.roll(row.view(np.uint8), 1).view(np.uint64)
    del row
    shifted &= _KEEP_R.take(key, axis=0)
    out |= shifted
    out |= _FILL.take(key, axis=0)
    frame = out.view(np.uint8)
    frame[:, 0] = np.signbit(x).view(np.uint8) * ord("-")
    for k, s in zip(slow.tolist(), _g17_slow(x[slow].tolist())):
        frame[k] = np.frombuffer(s.encode().ljust(_FRAME, b"\0"), np.uint8)
    return frame


def g17_fields(x) -> list:
    """["%.17g" % v for v in x] for a 1-D float array x: g17_csv on one column."""
    return g17_csv(np.reshape(x, (-1, 1))).splitlines()


def g17_csv(block) -> str:
    """The rows of a 2-D float array as CSV lines of "%.17g" fields: the
    bytes of ",".join("%.17g" % v for v in row) + "\n" on every row."""
    block = np.asarray(block, dtype=float)
    frame = _g17_frame(block.reshape(-1)).reshape(*block.shape, _FRAME)
    frame[:, :, -2] = ord(",")
    frame[:, -1, -2] = ord("\n")
    return frame.tobytes().translate(None, b"\0").decode("ascii")


def write_g17_csv(fh, chunks):
    """Write the rows of chunks as g17_csv lines, CSV_BLOCK rows a g17_csv call.

    A chunk is a sequence of equal-length float columns, every chunk with the
    same number of them.  The block gathers rows across chunks, so short
    chunks share a call; beyond the chunks, memory is one block's formatting.
    """
    block, filled = None, 0
    for cols in chunks:
        if block is None:
            block = np.empty((CSV_BLOCK, len(cols)))
        n, lo = len(cols[0]), 0
        while lo < n:
            k = min(CSV_BLOCK - filled, n - lo)
            for j, col in enumerate(cols):
                block[filled:filled + k, j] = col[lo:lo + k]
            filled, lo = filled + k, lo + k
            if filled == CSV_BLOCK:
                fh.write(g17_csv(block))
                filled = 0
    if filled:
        fh.write(g17_csv(block[:filled]))
