"""Deterministic JSON emission with floats at 17 significant digits.

The stock json module prints floats with repr (shortest round-trip); reports
here pin the textual format instead, so identical runs produce identical
bytes and every scalar carries full double precision.  Tables go out as
CSV through g17_csv, which writes a float array's "%.17g" text with numpy.
"""

import functools
import mmap

import numpy as np

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


# -- "%.17g" on float64 arrays -------------------------------------------------
#
# A finite x with 1e-280 <= |x| <= 1e280 is written from its 17-digit integer
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
#   and the point (digit slot j at byte 7 + j), bytes 25-29 "e+XXX", byte 30
#   the separator that g17_csv writes;
# the digits come four at a time from a table of "0000".."9999" strings, and
# masks by the point's slot and the digit count keep the digits before the
# point from the row and those after it from the row shifted by one byte.

G17_RANGE = (1e-280, 1e280)   # |x| the array path writes; the power table covers it
G17_TIE_BAND = 1e-9           # |fraction - 1/2| below which "%" rounds the field
_FRAME = 32                   # bytes of a field's frame row
_X_LO, _X_HI = -282, 281      # X of the tables: G17_RANGE's, one below and one above
_SPLIT = 134217729.0          # 2^27 + 1: Dekker's splitter of a double into 26 + 27 bits
_LOG10_2 = 0.30102999566398120
_DIGIT0 = 7                   # frame byte of the first digit slot


def _nearest_power(n):
    """(hi, lo): hi the double nearest 10^n, lo the double nearest 10^n - hi,
    both correctly rounded from exact integer arithmetic."""
    if n >= 0:
        hi = float(10 ** n)
        return hi, float(10 ** n - int(hi))
    hi = 1 / 10 ** -n
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10 ** -n) / (den * 10 ** -n)


def _off_heap(arrays):
    """Read-only copies of arrays in one anonymous mapping of their own.

    Tables that live as long as the process stay off the malloc heap: built
    there while a large table's arrays are alive, they would sit above those
    arrays and keep the heap from shrinking once they are freed (10 MiB more
    peak memory in a process that goes on to parse the CSV it wrote).
    """
    sizes = [-(-a.nbytes // 64) * 64 for a in arrays]
    buf = mmap.mmap(-1, sum(sizes))
    out, offset = [], 0
    for a, size in zip(arrays, sizes):
        copy = np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape)
        copy[...] = a
        copy.flags.writeable = False
        out.append(copy)
        offset += size
    return tuple(out)


@functools.cache
def _g17_tables():
    """The fast path's tables, built on first use.

    By i = X - _X_LO: hi, the double nearest 10^(16 - X), its Dekker halves
    hi_h and hi_l, and lo, the double nearest 10^(16 - X) - hi (hi + lo is
    10^(16 - X) to 2^-106 relative); ten_up, the least double >= 10^X; point,
    the slot p of the point; affix, X's constant frame bytes.  By
    p * 17 + nsig - 1 for nsig significant digits: keep_l and keep_r, the
    frame masks of the row and the shifted row, and dot, the point's byte.
    digits holds "0000" .. "9999" as uint32 and a NUL entry at 10000;
    zeros4 the trailing zeros of a four-digit group.
    """
    xs = range(_X_LO, _X_HI + 1)
    hi, lo = np.array([_nearest_power(16 - x) for x in xs]).T
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    near, rest = np.array([_nearest_power(x) for x in xs]).T
    ten_up = np.where(rest > 0, np.nextafter(near, np.inf), near)
    g = np.arange(10_000)
    digits = np.zeros((10_001, 4), np.uint8)
    digits[:-1] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    digits = digits.view(np.uint32).reshape(-1)
    zeros4 = np.count_nonzero(g[:, None] % np.array([10, 100, 1000, 10_000]) == 0, axis=1)
    # "%g" layout by the point slot p: fixed notation has p = X + 1 integer
    # digits for 0 <= X < 17, d.ddd has p = 1, and 0.000ddd (p = 0) none
    point = np.empty(len(xs), np.int64)
    affix = np.zeros((len(xs), _FRAME), np.uint8)
    for i, x in enumerate(xs):
        if -4 <= x < 0:
            point[i] = 0
            affix[i, 2:3 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        elif 0 <= x < 17:
            point[i] = x + 1
        else:
            point[i] = 1
            affix[i, 25:25 + len(b"e%+03d" % x)] = np.frombuffer(b"e%+03d" % x, np.uint8)
    masks = np.zeros((3, 18, 17, _FRAME), np.uint8)
    keep_l, keep_r, dot = masks
    for p in range(18):
        for nsig in range(1, 18):
            if p == 0:
                keep_l[p, nsig - 1, _DIGIT0:_DIGIT0 + nsig] = 0xFF
            else:
                keep_l[p, nsig - 1, _DIGIT0:_DIGIT0 + p] = 0xFF
                if nsig > p:
                    dot[p, nsig - 1, _DIGIT0 + p] = ord(".")
                    keep_r[p, nsig - 1, _DIGIT0 + p + 1:_DIGIT0 + nsig + 1] = 0xFF
    keep_l, keep_r, dot = (m.reshape(-1, _FRAME).view(np.uint64) for m in masks)
    return _off_heap([hi, hi_h, hi - hi_h, lo, ten_up, point, affix.view(np.uint64),
                      keep_l, keep_r, dot, digits, zeros4.astype(np.uint8)])


def _g17_slow(values):
    """"%.17g" of each value: the fields the array path leaves to "%"."""
    return ["%.17g" % v for v in values]


def _g17_fill(frame, x):
    """Write "%.17g" % x[k] into row k of the (len(x), _FRAME) uint8 frame,
    NUL-padded, so that frame[frame != 0] is the fields run together."""
    hi, hi_h, hi_l, lo, ten_up, point, affix, keep_l, keep_r, dot, digits, zeros4 = \
        _g17_tables()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= G17_RANGE[0]) & (ax <= G17_RANGE[1])     # nan fails both
    ax = np.where(fast, ax, 1.0)
    # floor((e - 1) log10 2) is X or X - 1; the comparison settles which
    i = np.floor((np.frexp(ax)[1] - 1) * _LOG10_2).astype(np.int64) - _X_LO
    i += ax >= ten_up.take(i + 1)
    p = ax * hi.take(i)
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    bh, bl = hi_h.take(i), hi_l.take(i)
    e = (((ah * bh - p) + ah * bl) + al * bh) + al * bl + ax * lo.take(i)
    f = np.floor(e)
    r = e - f
    d = p.astype(np.int64) + f.astype(np.int64) + (r > 0.5)
    tie = np.abs(r - 0.5) < G17_TIE_BAND
    # |x| 10^(16 - X) < 10^17, so D = 10^17 is a round-up: D = 10^16 at X + 1
    up = d == 10 ** 17
    i += up
    d[up] = 10 ** 16
    # D's digits in four-digit groups, framed by NUL entries: "000d" then
    # four groups of four at frame bytes 4-23
    g = np.full((n, _FRAME // 4), 10_000, np.int64)
    high9 = d // 10 ** 8
    low8 = d - high9 * 10 ** 8
    np.floor_divide(high9, 10 ** 8, out=g[:, 1])
    high8 = high9 - g[:, 1] * 10 ** 8
    np.floor_divide(high8, 10 ** 4, out=g[:, 2])
    np.subtract(high8, g[:, 2] * 10 ** 4, out=g[:, 3])
    np.floor_divide(low8, 10 ** 4, out=g[:, 4])
    np.subtract(low8, g[:, 4] * 10 ** 4, out=g[:, 5])
    # trailing zeros of D, whose first digit is not 0: of its low eight
    # digits unless they are all 0, of the high eight then
    low = np.where(g[:, 5] != 0, zeros4.take(g[:, 5]), 4 + zeros4.take(g[:, 4]))
    high = np.where(g[:, 3] != 0, zeros4.take(g[:, 3]), 4 + zeros4.take(g[:, 2]))
    key = point.take(i) * 17 + 16 - np.where(low8 != 0, low, 8 + high)
    row = digits.take(g).view(np.uint8).reshape(-1)
    shifted = np.empty_like(row)
    shifted[0] = 0
    shifted[1:] = row[:-1]
    out = frame.view(np.uint64)
    np.bitwise_and(row.view(np.uint64).reshape(n, -1), keep_l.take(key, axis=0), out=out)
    out |= shifted.view(np.uint64).reshape(n, -1) & keep_r.take(key, axis=0)
    out |= dot.take(key, axis=0)
    out |= affix.take(i, axis=0)
    frame[:, 0] = np.signbit(x).view(np.uint8) * ord("-")
    slow = np.flatnonzero(~fast | tie)
    for k, s in zip(slow.tolist(), _g17_slow(x[slow].tolist())):
        frame[k] = 0
        frame[k, :len(s)] = np.frombuffer(s.encode(), np.uint8)


def g17_csv(block) -> str:
    """The rows of a 2-D float array as CSV lines of "%.17g" fields: the
    bytes of ",".join("%.17g" % v for v in row) + "\n" on every row."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    frame = np.empty((rows, cols, _FRAME), np.uint8)
    _g17_fill(frame.reshape(-1, _FRAME), block.reshape(-1))
    frame[:, :, -2] = ord(",")
    frame[:, -1, -2] = ord("\n")
    return frame[frame != 0].tobytes().decode("ascii")
