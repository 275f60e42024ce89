"""serialize.g17_csv against Python's own "%.17g", byte for byte."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outerbilliard
from outerbilliard import generating, serialize

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:                          # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

# the numpy SIMD level of a CPU without AVX-512
AVX2_LEVEL = "X86_V4 AVX512_ICL AVX512_SPR"


def per_field(block):
    block = np.asarray(block, dtype=float)
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())


def assert_formats_like_percent(values, cols=1):
    values = np.asarray(values, dtype=float).reshape(-1, cols)
    got, want = serialize.g17_csv(values), per_field(values)
    if got != want:
        moved = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        pytest.fail(f"{len(moved)} rows differ from '%.17g', first (want, got): {moved[:3]}")


def test_random_bit_patterns():
    # every float64 is equally likely: nan payloads, subnormals and 600
    # decades of normal numbers, nine fields a row
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, 200_007, dtype=np.uint64, endpoint=False)
    assert_formats_like_percent(bits.view(np.float64), cols=9)


def test_random_magnitudes_across_the_fast_range():
    rng = np.random.default_rng(2025)
    x = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-281.0, 281.0, 50_000)
    assert_formats_like_percent(x, cols=5)


def test_random_magnitudes_across_g17_range_and_its_edges():
    rng = np.random.default_rng(2026)
    x = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-30.0, 30.0, 50_000)
    assert_formats_like_percent(x, cols=5)
    edges = [v for e in serialize.G17_RANGE
             for v in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
    assert_formats_like_percent(np.concatenate([edges, np.negative(edges)]), cols=3)


def test_block_writer_joins_short_chunks_and_cuts_long_ones(monkeypatch):
    # chunks of columns of every length about a block: the bytes of one
    # g17_csv call on all rows, in ceil(rows / CSV_BLOCK) calls
    block = serialize.CSV_BLOCK
    sizes = [0, 1, block - 1, block, block + 1, 3, 2 * block + 5, block - 4]
    rng = np.random.default_rng(9)
    chunks = [rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-40.0, 40.0, (3, n)) for n in sizes]
    calls = []
    monkeypatch.setattr(serialize, "g17_csv", lambda b: calls.append(len(b)) or per_field(b))
    buf = io.StringIO()
    serialize.write_g17_csv(buf, chunks)
    rows = np.concatenate(chunks, axis=1).T
    assert buf.getvalue() == per_field(rows)
    assert calls == [block] * (len(rows) // block) + [len(rows) % block]


# a row of fields that "%" writes: non-finite, zeros, magnitudes outside
# G17_RANGE and exact ties at 17 digits
SLOW_ROW = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-31, -1e31, 1e15 + 0.25,
            -(1e15 + 0.75)]


@pytest.mark.parametrize("block", [1, 7, 256, 1024, 2101])
def test_table_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    # the real g17_csv through write_g17_csv on 2100 rows of 9 columns, with
    # SLOW_ROW turned on the first and last rows of blocks of 7, 256 and 1024
    # rows, and chunks cut across the blocks; g17_fields gives each column's
    # fields of the same text
    assert serialize._g17_exact(np.array(SLOW_ROW))[2].tolist() == list(range(len(SLOW_ROW)))
    rng = np.random.default_rng(17)
    table = rng.normal(size=(2100, 9)) * 10.0 ** rng.uniform(-20.0, 20.0, (2100, 9))
    for row in (0, 6, 7, 255, 256, 1023, 1024, 2047, 2048, 2099):
        table[row] = np.roll(SLOW_ROW, row)
    monkeypatch.setattr(serialize, "CSV_BLOCK", block)
    chunks = [table[lo:hi].T for lo, hi in ((0, 5), (5, 1030), (1030, 1031), (1031, 2100))]
    buf = io.StringIO()
    serialize.write_g17_csv(buf, chunks)
    text = buf.getvalue()
    assert text == per_field(table)
    fields = [line.split(",") for line in text.splitlines()]
    for j, col in enumerate(table.T):
        assert serialize.g17_fields(col) == [row[j] for row in fields]


@settings(deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=12))
def test_any_floats(values):
    assert_formats_like_percent(values)


def test_zeros_subnormals_extremes_and_non_finite():
    tiny = 5e-324
    assert_formats_like_percent([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308,
                                 -1.2345e-310, 2.2250738585072014e-308,
                                 1.7976931348623157e308, -1.7976931348623157e308,
                                 math.inf, -math.inf, math.nan, -math.nan])
    assert serialize.g17_csv(np.array([[-0.0, 0.0]])) == "-0,0\n"


def test_powers_of_ten_and_their_neighbours():
    # 1 ulp below some powers of ten rounds up to the power at 17 digits
    # (1e-14 among them): D reaches 10^17 and X moves up by one
    x, round_ups = [], 0
    for k in range(-300, 301):
        p = float(f"1e{k}")
        for v in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)):
            x.append(v)
            round_ups += Fraction(v) < Fraction(10) ** k and "%.17g" % v == f"1e{k:+03d}"
    assert round_ups >= 10
    x = np.array(x)
    assert_formats_like_percent(np.concatenate([x, -x]), cols=3)


def test_halfway_ties_and_large_integers():
    # j / 2^(n + 1) with j odd is a tie at 17 digits when x 10^n lies in
    # [1e16, 1e17), for example 1e15 + 0.25: round half even, which the
    # fast path leaves to "%".  Integers above 2^53 have 16 to 22 digits.
    rng = np.random.default_rng(11)
    ties = []
    for x_exp in range(-10, 16):
        n = 16 - x_exp
        lo = math.ceil(10.0 ** x_exp * 2.0 ** (n + 1))
        hi = min(math.floor(10.0 ** (x_exp + 1) * 2.0 ** (n + 1)), 2 ** 53)
        if hi - lo > 4:
            ties += [j / 2.0 ** (n + 1) for j in rng.integers(lo, hi, 40) | 1]
    assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2"
    big = 2.0 ** 53 + 2.0 * rng.integers(0, 2 ** 40, 2_000)
    huge = np.ldexp(rng.integers(2 ** 52, 2 ** 53, 2_000).astype(float),
                    rng.integers(1, 20, 2_000))
    assert_formats_like_percent(np.concatenate([ties, [1e15 + 0.25], big, huge]))


def test_exponent_boundaries_of_fixed_notation():
    # "%g" writes fixed notation for -4 <= X < 17: X = -5, -4, 16 and 17
    # with every count of significant digits
    x = []
    for x_exp in (-5, -4, 16, 17):
        for nsig in range(1, 18):
            digits = "123456789123456789"[:nsig]
            x.append(float(f"{digits[0]}.{digits[1:]}e{x_exp}"))
        x += [10.0 ** x_exp, 9.0 * 10.0 ** x_exp]
    assert_formats_like_percent(np.concatenate([x, np.negative(x)]))


class _Sink:
    def write(self, text):
        pass


def test_fast_path_formats_nearly_every_cell_of_the_default_table(monkeypatch, wobbly3):
    slow = []
    inner = serialize._g17_slow

    def counted(values):
        slow.extend(values)
        return inner(values)

    monkeypatch.setattr(serialize, "_g17_slow", counted)
    pm, tm, d = generating.derivative_table(wobbly3, 256, 256, 20.0)
    generating.write_derivative_csv(_Sink(), pm, tm, d)
    assert len(slow) <= 0.01 * 9 * pm.size


def test_table_writer_temporaries_stay_below_4_mib_a_block(wobbly3):
    # the sink keeps nothing, so the peak is one block's formatting; the
    # first 4096 rows of the default table, several blocks.  The formatter's
    # tables are built at import, so none of them is counted here
    pm, tm, d = generating.derivative_table(wobbly3, 256, 256, 20.0)
    rows = slice(0, 4096)
    tracemalloc.start()
    try:
        generating.write_derivative_csv(_Sink(), pm[rows], tm[rows],
                                        {k: v[rows] for k, v in d.items()})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.skipif(not __cpu_features__.get("AVX512_ICL"),
                    reason="the CPU lacks AVX512_ICL, so numpy already runs at the AVX2 level")
def test_same_bytes_at_the_avx2_simd_level(tmp_path, wobbly3):
    # the fast path uses *, +, -, floor and frexp, whose bits numpy keeps at
    # every SIMD level; a child process at the AVX2 level formats the same values
    pm, tm, d = generating.derivative_table(wobbly3, 64, 64, 20.0)
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    table = np.column_stack([pm, tm, *(d[k] for k in names)])
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64)
    sample = np.concatenate([bits, 10.0 ** rng.uniform(-281.0, 281.0, 20_000)]).reshape(-1, 8)
    np.save(tmp_path / "table.npy", table)
    np.save(tmp_path / "sample.npy", sample)
    code = ("import sys, numpy as np\n"
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__ as f\n"
            "from outerbilliard import serialize\n"
            "assert not f['AVX512_ICL'], 'AVX512_ICL is still on'\n"
            "for name in ('table', 'sample'):\n"
            "    text = serialize.g17_csv(np.load(sys.argv[1] + '/' + name + '.npy'))\n"
            "    open(sys.argv[1] + '/' + name + '.csv', 'w').write(text)\n")
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=AVX2_LEVEL)
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)
    for name, values in (("table", table), ("sample", sample)):
        assert (tmp_path / f"{name}.csv").read_text() == serialize.g17_csv(values), name


# -- rows given as columns -----------------------------------------------------

# every rule of _json_number: fields "%.17g" prints without a point (0.0, 3.0,
# 1e16 as "10000000000000000"), -0.0, magnitudes outside G17_RANGE, subnormals
# and the non-finite names
SPECIAL_FLOATS = [0.0, -0.0, 3.0, -3.0, 1e16, -1e16, 1e17, 123.5, 0.1, 2.5e-5,
                  1e-31, -1e31, 1e300, 5e-324, 1.7976931348623157e308,
                  math.nan, -math.nan, math.inf, -math.inf]


def _dicts(count, columns):
    """The list of dicts that serialize.Rows(count, columns) stands for."""
    rows = [{} for _ in range(count)]
    for key, col in columns.items():
        if isinstance(col, dict):
            for i, v in col.items():
                rows[i][key] = v
            continue
        for row, v in zip(rows, col.tolist() if isinstance(col, np.ndarray) else col):
            row[key] = v
    return rows


def assert_rows_encode_like_their_dicts(count, columns):
    # at two depths, so that the rows' indentation follows their place
    rows, dicts = serialize.Rows(count, columns), _dicts(count, columns)
    got = serialize.dumps({"n": count, "rows": rows, "deeper": [{"rows": rows}]})
    assert got == serialize.dumps({"n": count, "rows": dicts, "deeper": [{"rows": dicts}]})


def test_rows_encode_like_their_dicts():
    x = np.array(SPECIAL_FLOATS)
    n = x.size
    index = [None if k % 3 == 0 else k * 1000 - 7 for k in range(n)]
    assert_rows_encode_like_their_dicts(n, {
        "x": x, "y": np.ascontiguousarray(x[::-1]), "index": index,
        "why": {0: "t below 1.5e-06", 5: 'a "quoted" \\ reason', n - 1: "last"}})


def test_rows_with_strided_floats_nested_values_and_a_sparse_key_between():
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-40.0, 40.0, (40, 3))
    nested = [[1.0, -0.0, None], {"a": [], "b": {}}, True, "s", 7] * 8
    assert_rows_encode_like_their_dicts(40, {
        "first": wide[:, 1], "sparse": {3: 1.5, 39: None, 0: [2.0]}, "nested": nested,
        "ints": list(range(-20, 20))})


def test_rows_without_keys_and_no_rows():
    assert_rows_encode_like_their_dicts(3, {"only": {1: 2.0}})
    assert_rows_encode_like_their_dicts(2, {})
    assert_rows_encode_like_their_dicts(0, {"x": np.empty(0), "n": []})
    assert serialize.dumps(serialize.Rows(0, {"x": np.empty(0)})) == "[]\n"


@settings(deadline=None)
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64),
                          st.one_of(st.none(), st.integers(-10 ** 6, 10 ** 6)), st.booleans()),
                min_size=1, max_size=20))
def test_rows_of_any_floats_and_indices(rows):
    phi, t, index, marked = zip(*rows)
    assert_rows_encode_like_their_dicts(len(rows), {
        "seed_phi": np.array(phi), "seed_t": np.array(t), "n_conjugate": list(index),
        "unscanned": {i: "t below 1.5e-06" for i, m in enumerate(marked) if m}})


def test_g17_fields_are_percent_fields():
    x = np.concatenate([SPECIAL_FLOATS, 10.0 ** np.random.default_rng(4).uniform(-40, 40, 500)])
    assert serialize.g17_fields(x) == ["%.17g" % v for v in x.tolist()]


# -- any document --------------------------------------------------------------

# keys are identifiers, as every key the package writes is a constant
_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)
_SCALARS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats(width=64))


def _rows(count):
    return st.builds(
        lambda keys, floats, values, sparse: serialize.Rows(count, {
            keys[0]: np.array(floats, dtype=float), keys[1]: values, keys[2]: sparse}),
        st.lists(_KEYS, min_size=3, max_size=3, unique=True),
        st.lists(st.floats(width=64), min_size=count, max_size=count),
        st.lists(_SCALARS, min_size=count, max_size=count),
        st.dictionaries(st.integers(0, count - 1), _SCALARS) if count else st.just({}))


_DOCS = st.recursive(
    _SCALARS | st.integers(0, 4).flatmap(_rows),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=16)


def _read_back(doc):
    """doc as JSON readers give it back: a Rows as its dicts, a tuple as a list."""
    if type(doc) is serialize.Rows:
        doc = _dicts(doc.count, doc.columns)
    if type(doc) in (list, tuple):
        return [_read_back(v) for v in doc]
    if type(doc) is dict:
        return {k: _read_back(v) for k, v in doc.items()}
    return doc


def _same(got, want):
    """got == want, with NaN equal to NaN and -0.0 told from 0.0 by its sign."""
    if type(want) is float:
        return type(got) is float and (math.isnan(got) and math.isnan(want) or (
            got == want and math.copysign(1.0, got) == math.copysign(1.0, want)))
    if type(want) is list:
        return type(got) is list and len(got) == len(want) and all(map(_same, got, want))
    if type(want) is dict:
        return (type(got) is dict and list(got) == list(want)
                and all(_same(got[k], want[k]) for k in want))
    return type(got) is type(want) and got == want


@settings(deadline=None)
@given(_DOCS)
def test_any_document_reads_back_as_itself(doc):
    # text with control characters, any float64, ints, bools, None and Rows,
    # nested in dicts, lists and tuples
    text = serialize.dumps(doc)
    assert _same(json.loads(text), _read_back(doc)), text


@pytest.mark.parametrize("value", [np.float64(1.5), np.int64(3), np.str_("s")],
                         ids=["float64", "int64", "str_"])
def test_numpy_scalars_are_refused(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        serialize.dumps({"x": [value]})
