"""Golden outputs of rigidity, twist-scan and simulate, compared byte for byte.

Each golden is the CLI's output on one of four curves: the unit circle, the
2:1 ellipse, 1 + 0.05 cos 3phi and the seeded 8-harmonic curve whose Santalo
point is off its radial origin.  A change that moves a number edits the
golden and names the moved field in CHANGES.md; on failure the test names
every field that moved.
"""

import csv
import io
import json
from pathlib import Path

import pytest

import outerbilliard as ob
from outerbilliard import cli

GOLDEN = Path(__file__).parent / "golden"

CURVES = ["unit_circle", "ellipse21", "wobbly3", "fourier8"]

# golden file stem -> (argv after --curve, file suffix)
COMMANDS = {
    "rigidity": (["--cmd", "rigidity"], "json"),
    "rigidity_scan": (["--cmd", "rigidity", "--conjugate-scan", "--steps", "30"], "json"),
    "twist": (["--cmd", "twist-scan", "--format", "json"], "json"),
    "simulate": (["--cmd", "simulate", "--seed", "2.5", "0.5", "--steps", "50"], "csv"),
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
    """Cells of an orbit CSV keyed by row and column, e.g. n=3.x; footer
    lines keyed by themselves."""
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    cells = {line: True for line in lines if line.startswith("#")}
    for row in csv.DictReader(io.StringIO("\n".join(body))):
        for col, value in row.items():
            cells[f"n={row['n']}.{col}"] = value
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
