"""Golden outputs of rigidity, twist-scan, simulate and portrait, compared byte
for byte, and the conjugate index of every seed of a small grid scan.

Each golden is the CLI's output on one of four curves: the unit circle, the
2:1 ellipse, 1 + 0.05 cos 3phi and the seeded 8-harmonic curve whose Santalo
point is off its radial origin.  A change that moves a number edits the
golden and names the moved field in CHANGES.md; on failure the test names
every field that moved.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outerbilliard as ob
from outerbilliard import cli, jacobi

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:                          # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

GOLDEN = Path(__file__).parent / "golden"
SCAN_ROWS = GOLDEN / "scan_rows.json"
TABLE_DIGESTS = GOLDEN / "table_digests.json"

CURVES = ["unit_circle", "ellipse21", "wobbly3", "fourier8"]
# the numpy SIMD level of a CPU without AVX-512
AVX2_LEVEL = "X86_V4 AVX512_ICL AVX512_SPR"

# golden file stem -> (argv after --curve, file suffix)
COMMANDS = {
    "rigidity": (["--cmd", "rigidity"], "json"),
    "rigidity_scan": (["--cmd", "rigidity", "--conjugate-scan", "--steps", "30"], "json"),
    "twist": (["--cmd", "twist-scan", "--format", "json"], "json"),
    "simulate": (["--cmd", "simulate", "--seed", "2.5", "0.5", "--steps", "50"], "csv"),
    "portrait": (["--cmd", "portrait", "--steps", "1"], "csv"),
}


def _flat_json(text):
    """Leaf values of a JSON report keyed by their path, e.g. config.t_max."""
    leaves = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        else:
            leaves[path] = node

    walk(json.loads(text), "")
    return leaves


def _flat_csv(text):
    """Cells of an orbit or portrait CSV keyed by row and column, e.g. n=3.x
    or seed=2.n=1.p, since n repeats across a portrait's seeds; footer lines
    keyed by themselves."""
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    cells = {line: True for line in lines if line.startswith("#")}
    for row in csv.DictReader(io.StringIO("\n".join(body))):
        key = "".join(f"{k}={row[k]}." for k in ("seed", "n") if k in row)
        for col, value in row.items():
            cells[key + col] = value
    return cells


def moved_fields(old: str, new: str, suffix: str) -> list:
    flat = _flat_json if suffix == "json" else _flat_csv
    a, b = flat(old), flat(new)
    return sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])


@pytest.mark.parametrize("name", CURVES)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_matches_its_golden(request, tmp_path, command, name):
    argv, suffix = COMMANDS[command]
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps(ob.curve_to_dict(request.getfixturevalue(name))))
    out = tmp_path / f"out.{suffix}"
    assert cli.main(["--curve", str(spec)] + argv + ["--out", str(out)]) == 0
    golden = (GOLDEN / f"{command}_{name}.{suffix}").read_bytes()
    got = out.read_bytes()
    if got != golden:
        moved = moved_fields(golden.decode(), got.decode(), suffix)
        pytest.fail(f"{command} on {name} no longer matches its golden; fields that moved: {moved}")


def test_moved_fields_names_each_changed_leaf():
    old = '{"a": 1.0, "b": {"c": [1, 2]}, "d": true}'
    new = '{"a": 1.0, "b": {"c": [1, 3]}, "e": true}'
    assert moved_fields(old, new, "json") == ["b.c[1]", "d", "e"]
    old_csv = "n,x,y\n0,1.0,2.0\n1,3.0,4.0\n# dev=1\n"
    new_csv = "n,x,y\n0,1.0,2.0\n1,3.0,4.5\n# dev=2\n"
    assert moved_fields(old_csv, new_csv, "csv") == ["# dev=1", "# dev=2", "n=1.y"]
    old_portrait = "seed,n,x\n1,0,1.0\n1,1,2.0\n2,0,3.0\n2,1,4.0\n"
    new_portrait = "seed,n,x\n1,0,1.0\n1,1,2.0\n2,0,3.0\n2,1,4.5\n"
    assert moved_fields(old_portrait, new_portrait, "csv") == ["seed=2.n=1.x"]


@pytest.mark.parametrize("name", CURVES)
def test_scan_rows_match_their_golden(request, name):
    # each seed's conjugate index on a 16x16 grid up to n = 300, so a change
    # in the chord-step kernel that moves any row shows here, not only in the
    # counts that the reports carry
    scan = ob.conjugate_grid_scan(request.getfixturevalue(name), phi_count=16, t_count=16,
                                  n_max=300)
    # the golden writes no hit as null, the scan's column as -1
    want = [-1 if n is None else n for n in json.loads(SCAN_ROWS.read_text())[name]]
    got = scan.n_conjugate.tolist()
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not moved, f"rows that moved on {name}: {moved}"


def test_scan_rows_match_their_golden_on_two_workers(monkeypatch, wobbly3):
    # 64-seed chunks cut the 16x16 grid into 4, which two worker processes
    # share; the rows must still be the golden's
    monkeypatch.setattr(jacobi, "SCAN_CHUNK", 64)
    monkeypatch.setattr(jacobi.os, "cpu_count", lambda: 2)
    scan = ob.conjugate_grid_scan(wobbly3, phi_count=16, t_count=16, n_max=300, workers=2)
    want = [-1 if n is None else n for n in json.loads(SCAN_ROWS.read_text())["wobbly3"]]
    assert scan.n_conjugate.tolist() == want


# tables too long to keep as goldens, pinned by their sha256: golden key ->
# (curve, argv after --curve, format).  At 40 steps wobbly3's scan has hits
# and misses, so both an integer and a null n_conjugate are pinned.
TABLES = {
    **{f"twist_csv_{name}": (name, ["--cmd", "twist-scan", "--format", "csv",
                                    "--phi-grid", "64", "--t-grid", "64"], "csv")
       for name in CURVES},
    **{f"conjugate_scan_{fmt}_wobbly3": ("wobbly3", [
        "--cmd", "conjugate-scan", "--phi-grid", "64", "--t-grid", "64", "--steps", "40",
        "--format", fmt], fmt) for fmt in ("json", "csv")},
}


def _table_rows(curve, argv):
    """The table a TABLES command writes, one line per row, each value rendered
    alone as f"{v:.17g}" (an empty cell for no hit)."""
    if "twist-scan" in argv:
        pm, tm, d = ob.generating.derivative_table(curve, 64, 64, cli.ROWS["twist-scan"]["t_max"])
        cols = [pm, tm, *(d[k] for k in ("S", "S1", "S2", "S11", "S12", "S22", "J"))]
        return [",".join(f"{float(c[i]):.17g}" for c in cols) for i in range(pm.size)]
    scan = ob.conjugate_grid_scan(curve, phi_count=64, t_count=64, n_max=40,
                                  t_max=cli.ROWS["conjugate-scan"]["t_max"])
    return [f"{phi:.17g},{t:.17g},{'' if n < 0 else n}" for phi, t, n in zip(
        scan.seed_phi.tolist(), scan.seed_t.tolist(), scan.n_conjugate.tolist())]


def _written_rows(text, fmt):
    """The rows of a written table in the form of _table_rows."""
    if fmt == "csv":
        return [line for line in text.splitlines()[1:] if not line.startswith("#")]
    return [f"{r['seed_phi']:.17g},{r['seed_t']:.17g},"
            f"{'' if r['n_conjugate'] is None else r['n_conjugate']}"
            for r in json.loads(text)["rows"]]


def first_moved_row(written, want):
    """(index, written line, wanted line) of the first row that differs, else None."""
    for i in range(max(len(written), len(want))):
        a = written[i] if i < len(written) else None
        b = want[i] if i < len(want) else None
        if a != b:
            return i, a, b
    return None


@pytest.mark.parametrize("key", sorted(TABLES))
def test_table_matches_its_digest(request, tmp_path, key):
    name, argv, fmt = TABLES[key]
    curve = request.getfixturevalue(name)
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps(ob.curve_to_dict(curve)))
    out = tmp_path / f"out.{fmt}"
    assert cli.main(["--curve", str(spec)] + argv + ["--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    if got != json.loads(TABLE_DIGESTS.read_text())[key]:
        moved = first_moved_row(_written_rows(out.read_text(), fmt), _table_rows(curve, argv))
        where = ("every row has its per-element rendering, so the header, footer or layout moved"
                 if moved is None else "row %d is %r, its per-element rendering %r" % moved)
        pytest.fail(f"{key} no longer matches its digest: {where}")


@pytest.mark.skipif(not __cpu_features__.get("AVX512_ICL"),
                    reason="the CPU lacks AVX512_ICL, so numpy already runs at the AVX2 level")
def test_scan_goldens_hold_at_the_avx2_simd_level(request, tmp_path):
    # the scan's kernels call np.cos, np.sin and np.arctan2, whose bits may
    # move with numpy's SIMD level; a child process at the AVX2 level checks
    # the scan-row goldens of the four curves and the conjugate-scan digests
    scans = [key for key in TABLES if key.startswith("conjugate_scan_")]
    job = {"curves": {name: ob.curve_to_dict(request.getfixturevalue(name)) for name in CURVES},
           "tables": {key: TABLES[key][:2] for key in scans}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    code = ("import hashlib, json, sys\n"
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__ as f\n"
            "import outerbilliard as ob\n"
            "from outerbilliard import cli\n"
            "assert not f['AVX512_ICL'], 'AVX512_ICL is still on'\n"
            "work, rows, digests = sys.argv[1:]\n"
            "job = json.load(open(work + '/job.json'))\n"
            "for name, spec in job['curves'].items():\n"
            "    scan = ob.conjugate_grid_scan(ob.curve_from_dict(spec), phi_count=16,\n"
            "                                  t_count=16, n_max=300)\n"
            "    want = [-1 if n is None else n for n in json.load(open(rows))[name]]\n"
            "    assert scan.n_conjugate.tolist() == want, 'scan rows of ' + name\n"
            "for key, (name, argv) in job['tables'].items():\n"
            "    spec, out = work + '/' + name + '.json', work + '/' + key\n"
            "    json.dump(job['curves'][name], open(spec, 'w'))\n"
            "    assert cli.main(['--curve', spec] + argv + ['--out', out]) == 0\n"
            "    got = hashlib.sha256(open(out, 'rb').read()).hexdigest()\n"
            "    assert got == json.load(open(digests))[key], key\n")
    src = str(Path(ob.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=AVX2_LEVEL)
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(SCAN_ROWS),
                          str(TABLE_DIGESTS)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]


def test_first_moved_row_names_the_first_difference():
    assert first_moved_row(["a", "b", "c"], ["a", "b", "c"]) is None
    assert first_moved_row(["a", "x", "y"], ["a", "b", "c"]) == (1, "x", "b")
    assert first_moved_row(["a"], ["a", "b"]) == (1, None, "b")
