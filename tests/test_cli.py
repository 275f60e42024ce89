import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outerbilliard
from outerbilliard import cli, generating, verify


@pytest.fixture()
def circle_file(tmp_path):
    p = tmp_path / "circle.json"
    p.write_text('{"kind": "circle", "radius": 1.0}')
    return str(p)


@pytest.fixture()
def ellipse_file(tmp_path):
    p = tmp_path / "ellipse.json"
    p.write_text('{"kind": "ellipse", "a": 2.0, "b": 1.0}')
    return str(p)


@pytest.fixture()
def wobbly_file(tmp_path):
    p = tmp_path / "wobbly.json"
    p.write_text('{"kind": "fourier", "a0": 1.0, "cos": [0, 0, 0.05]}')
    return str(p)


def run(argv):
    return cli.main(argv)


def test_simulate_three_periodic(circle_file, tmp_path):
    out = tmp_path / "orbit.csv"
    code = run(["--curve", circle_file, "--cmd", "simulate",
                "--seed", "2", "0", "--steps", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,x,y,p,phi"
    assert len(lines) == 5
    last = lines[4].split(",")
    assert float(last[1]) == pytest.approx(2.0, abs=1e-9)
    assert float(last[2]) == pytest.approx(0.0, abs=1e-9)


def test_simulate_to_stdout(circle_file, capsys):
    assert run(["--curve", circle_file, "--cmd", "simulate",
                "--seed", "2", "0", "--steps", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,x,y,p,phi"
    assert len(lines) == 3


def test_simulate_zero_steps(circle_file, tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["--curve", circle_file, "--cmd", "simulate",
                "--seed", "2", "0", "--steps", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_simulate_cw_orientation(circle_file, tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["--curve", circle_file, "--cmd", "simulate", "--seed", "2", "0",
                "--steps", "1", "--orientation", "cw", "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[2].split(",")
    assert float(row[1]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row[2]) == pytest.approx(-math.sqrt(3.0), abs=1e-9)


def test_simulate_ellipse_footer(ellipse_file, tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["--curve", ellipse_file, "--cmd", "simulate",
                "--seed", "4", "0", "--steps", "200", "--out", str(out)]) == 0
    footer = out.read_text().strip().splitlines()[-1]
    assert footer.startswith("# homothetic_ellipse_invariant_max_rel_dev=")
    assert float(footer.split("=")[1]) < 1e-8


def test_simulate_interior_seed_exit_3(circle_file, tmp_path):
    assert run(["--curve", circle_file, "--cmd", "simulate",
                "--seed", "0.5", "0", "--out", str(tmp_path / "o.csv")]) == 3


def test_simulate_non_finite_seed_exit_2(circle_file, tmp_path, capsys):
    for seed in (("nan", "0"), ("2", "inf")):
        assert run(["--curve", circle_file, "--cmd", "simulate",
                    "--seed", *seed, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err


def test_conjugate_scan_near_boundary_exit_3(circle_file, capsys):
    assert run(["--curve", circle_file, "--cmd", "conjugate-scan", "--t-max", "1e-9",
                "--phi-grid", "64", "--t-grid", "64", "--steps", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "t >= 1e-08" in captured.err


def test_conjugate_scan_reports_unscanned_rows(circle_file, tmp_path):
    # t_j = 5e-5 (j+1)/64: only the t = 7.8e-7 row is below MIN_CHORD_T
    out = tmp_path / "scan.json"
    assert run(["--curve", circle_file, "--cmd", "conjugate-scan", "--t-max", "5e-5",
                "--steps", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["unscanned_count"] == 64
    short = [r for r in doc["rows"] if r["seed_t"] < 1.5e-6]
    assert {r["seed_t"] for r in short} == {5e-5 / 64}
    assert [r for r in doc["rows"] if "unscanned" in r] == short
    assert all(r["unscanned"] == "t below 1.5e-06" for r in short)
    csv_out = tmp_path / "scan.csv"
    assert run(["--curve", circle_file, "--cmd", "conjugate-scan", "--t-max", "5e-5",
                "--steps", "10", "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 1 + 64 * 64 + 1 and lines[-1] == "# unscanned_rows=64"


def test_invalid_curve_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fourier", "a0": 1.0, "cos": [0, 0, 0.2]}')
    assert run(["--curve", str(bad), "--cmd", "verify"]) == 2
    missing = tmp_path / "missing.json"
    assert run(["--curve", str(missing), "--cmd", "verify"]) == 2


def test_non_finite_curve_exit_2(tmp_path, capsys):
    bad = tmp_path / "nan_origin.json"
    bad.write_text('{"kind": "circle", "radius": 1.0, "origin": [NaN, 0.0]}')
    for cmd in ("rigidity", "verify"):
        assert run(["--curve", str(bad), "--cmd", cmd,
                    "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid curve:") and err.count("\n") == 1


def test_overflowing_curve_exit_2(tmp_path, capsys):
    # a^2 overflows in Python floats; r^2 of the circle overflows in numpy
    for spec in ('{"kind": "ellipse", "a": 1e300, "b": 1}',
                 '{"kind": "circle", "radius": 1e200}'):
        bad = tmp_path / "huge.json"
        bad.write_text(spec)
        assert run(["--curve", str(bad), "--cmd", "rigidity",
                    "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid curve:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["[1, 2]", "null", '"x"', "3"])
def test_non_object_curve_file_exit_2(tmp_path, capsys, spec):
    bad = tmp_path / "top.json"
    bad.write_text(spec)
    assert run(["--curve", str(bad), "--cmd", "verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid curve:") and err.count("\n") == 1


@pytest.mark.parametrize("cmd,flag,value", [
    ("rigidity", "--t-max", "nan"),
    ("rigidity", "--t-max", "5"),
    ("rigidity", "--t-max", "inf"),
    ("twist-scan", "--t-max", "-1"),
    ("twist-scan", "--t-max", "nan"),
    ("twist-scan", "--t-max", "0"),
    ("conjugate-scan", "--t-max", "inf"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1e-9"),
    ("simulate", "--tol", "inf"),
])
def test_bad_t_max_or_tol_exit_2(wobbly_file, tmp_path, capsys, cmd, flag, value):
    assert run(["--curve", wobbly_file, "--cmd", cmd, f"{flag}={value}",
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_negative_exponent_seed_is_a_value(circle_file, tmp_path):
    # argparse's default number pattern reads "-1e-05" as a flag
    out = tmp_path / "orbit.csv"
    assert run(["--curve", circle_file, "--cmd", "simulate", "--seed", "-1e-05", "2.0",
                "--steps", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert (float(row[1]), float(row[2])) == (-1e-05, 2.0)


@pytest.mark.parametrize("cmd,flag,value", [
    ("verify", "--tol", "-1e-9"),
    ("rigidity", "--t-max", "-1e-3"),
    ("twist-scan", "--t-max", "-.5E+1"),
])
def test_negative_exponent_value_exit_2_one_line(wobbly_file, tmp_path, capsys,
                                                 cmd, flag, value):
    # the value follows the flag as its own argument, not as flag=value
    assert run(["--curve", wobbly_file, "--cmd", cmd, flag, value,
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite and positive" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


BAD_CURVE_FILES = {
    "truncated": '{"kind": "circle", "rad',
    "empty": "",
    "unknown_kind": '{"kind": "polygon", "radius": 1}',
    "missing_key": '{"kind": "circle"}',
    "misspelt_origin": '{"kind": "ellipse", "a": 2, "b": 1, "orign": [0.5, 0]}',
    "harmonics_on_ellipse": '{"kind": "ellipse", "a": 2, "b": 1, "cos": [0.1]}',
    "nan": '{"kind": "circle", "radius": NaN}',
    "infinity": '{"kind": "ellipse", "a": Infinity, "b": 1}',
    "huge_harmonic": '{"kind": "fourier", "a0": 1, "cos": [1e308]}',
    "non_convex": '{"kind": "fourier", "a0": 1, "cos": [0, 0, 0.2]}',
    "negative_axis": '{"kind": "ellipse", "a": -2, "b": 1}',
    "string_radius": '{"kind": "circle", "radius": "2"}',
    "bool_radius": '{"kind": "circle", "radius": true}',
    "null_radius": '{"kind": "circle", "radius": null}',
    "string_harmonics": '{"kind": "fourier", "a0": 1, "cos": "000"}',
    "bool_harmonic": '{"kind": "fourier", "a0": 1, "cos": [0, false, 0.05]}',
    "nested_harmonics": '{"kind": "fourier", "a0": 1, "cos": [[0, 0, 0.05]]}',
    "string_a0": '{"kind": "fourier", "a0": "1", "cos": [0, 0, 0.05]}',
    "string_origin": '{"kind": "circle", "radius": 1, "origin": "12"}',
    "short_origin": '{"kind": "circle", "radius": 1, "origin": [1]}',
    "bool_origin": '{"kind": "circle", "radius": 1, "origin": [true, 0]}',
    "nested_origin": '{"kind": "circle", "radius": 1, "origin": [[0.1], 0]}',
    "int_past_float": '{"kind": "circle", "radius": 1' + "0" * 400 + "}",
    "int_past_digit_limit": '{"kind": "circle", "radius": 1' + "0" * 5000 + "}",
    "deep_nesting": '{"kind": "circle", "radius": ' + "[" * 100000 + "]" * 100000 + "}",
}


# the key a message must name
BAD_CURVE_MESSAGES = {
    "missing_key": "missing key 'radius' for kind 'circle'",
    "misspelt_origin": "unknown key 'orign' for kind 'ellipse'",
    "harmonics_on_ellipse": "unknown key 'cos' for kind 'ellipse'",
}


def _exit_and_stderr(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:      # argparse's usage errors
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BAD_CURVE_FILES))
def test_bad_curve_file_exit_2_one_line(tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_CURVE_FILES[name])
    code, err = _exit_and_stderr(["--curve", str(bad), "--cmd", "twist-scan",
                                  "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: invalid curve:") and err.count("\n") == 1, err
    assert BAD_CURVE_MESSAGES.get(name, "") in err, err


def test_curve_file_that_is_not_utf8_exit_2_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"kind": "circle", "radius": 1}')
    code, err = _exit_and_stderr(["--curve", str(bad), "--cmd", "verify"], capsys)
    assert code == 2
    assert err.startswith("error: invalid curve:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["--cmd", "verify", "--phi-grid", "100"],
    ["--cmd", "verify", "--t-grid", "abc"],
    ["--cmd", "polish"],
    ["--cmd", "verify", "--steps", "x"],
    ["--cmd", "verify", "--bogus"],
    ["--cmd", "verify", "--format", "xml"],
    ["--cmd"],
    None,
], ids=["phi_grid_100", "t_grid_abc", "unknown_cmd", "steps_x", "unknown_flag",
        "unknown_format", "cmd_without_value", "missing_cmd"])
def test_usage_error_exit_2_one_line(circle_file, capsys, argv):
    full = ["--curve", circle_file] + (argv or [])
    code, err = _exit_and_stderr(full, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_missing_curve_flag_exit_2_one_line(capsys):
    code, err = _exit_and_stderr(["--cmd", "verify"], capsys)
    assert code == 2
    assert err == "error: the following arguments are required: --curve\n"


def test_fourier_curve_with_no_harmonics_runs(tmp_path):
    spec = tmp_path / "disc.json"
    spec.write_text('{"kind": "fourier", "a0": 1, "cos": []}')
    assert run(["--curve", str(spec), "--cmd", "twist-scan",
                "--out", str(tmp_path / "out.json")]) == 0


def test_cli_import_loads_no_process_pool():
    # a --workers 1 run never starts a pool, so the CLI must not pay for
    # importing one at start-up
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, outerbilliard.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, why", [
    (["--cmd", "conjugate-scan", "--phi-grid", "64", "--t-grid", "64", "--steps", "50",
      "--t-max", "1e100"], "non-finite Jacobi field at chord 1"),
    (["--cmd", "rigidity", "--t-max", "1e300"], "i_numeric is nan"),
], ids=["conjugate_scan", "rigidity"])
def test_overflowing_arithmetic_exit_4(wobbly_file, tmp_path, argv, why):
    # in a fresh interpreter, where numpy's overflow is a warning on stderr
    # and not an error: the run must still fail, not report NaN or no hit
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "outerbilliard.cli", "--curve", wobbly_file]
                          + argv + ["--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("error: optimizer failure: ") and why in last, proc.stderr


def test_grid_flag_validation(circle_file):
    with pytest.raises(SystemExit) as exc:
        run(["--curve", circle_file, "--cmd", "verify", "--phi-grid", "100"])
    assert exc.value.code == 2


def test_verify_passes(circle_file, tmp_path):
    out = tmp_path / "verify.json"
    assert run(["--curve", circle_file, "--cmd", "verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"chain_rule_exactness", "twist_negative", "symplecticity",
            "map_consistency_p", "integrand_decomposition"} <= names
    assert doc["config"]["command"] == "verify"
    assert "workers" not in doc["config"]


def test_verify_fault_injection_fails(circle_file, tmp_path, monkeypatch):
    closed_forms = generating._sderiv_arrays

    def flipped(*args):
        d = closed_forms(*args)
        return {**d, "S12": -d["S12"]}

    monkeypatch.setattr(generating, "_sderiv_arrays", flipped)
    out = tmp_path / "verify.json"
    assert run(["--curve", circle_file, "--cmd", "verify", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    twist = next(c for c in doc["checks"] if c["name"] == "twist_negative")
    assert twist["passed"] is False


def test_verify_records_why_a_check_raised(circle_file, tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("midpoint oracle unavailable")

    monkeypatch.setattr(verify, "_midpoint_error", broken)
    out = tmp_path / "verify.json"
    assert run(["--curve", circle_file, "--cmd", "verify", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    errors = {c["name"]: c["error"] for c in doc["checks"] if "error" in c}
    assert errors == {"midpoint_property": "RuntimeError: midpoint oracle unavailable"}
    midpoint = next(c for c in doc["checks"] if c["name"] == "midpoint_property")
    assert midpoint["passed"] is False


def test_rigidity_ellipse(ellipse_file, tmp_path):
    out = tmp_path / "rig.json"
    assert run(["--curve", ellipse_file, "--cmd", "rigidity", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["equality_case"] is True
    assert doc["eq_qq_holds"] is True
    assert abs(doc["q_defect"]) < 1e-7
    assert abs(doc["bs_product"] - math.pi**2) < 1e-7
    assert doc["config"]["phi_grid"] == 2048


def test_rigidity_with_conjugate_scan(wobbly_file, tmp_path):
    out = tmp_path / "rig.json"
    assert run(["--curve", wobbly_file, "--cmd", "rigidity", "--conjugate-scan",
                "--t-grid", "64", "--steps", "300", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certifies_non_minimizing"] is True
    scan = doc["conjugate_scan"]
    assert scan["found_count"] > 0
    assert scan["first_found"]["n_conjugate"] <= 300


def test_twist_scan_json(circle_file, tmp_path):
    out = tmp_path / "twist.json"
    assert run(["--curve", circle_file, "--cmd", "twist-scan", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["twist_negative"] is True
    assert doc["max_s12"] < 0


def test_twist_scan_csv_table(circle_file, tmp_path):
    out = tmp_path / "table.csv"
    assert run(["--curve", circle_file, "--cmd", "twist-scan", "--format", "csv",
                "--phi-grid", "64", "--t-grid", "64", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phi,t,S,S1,S2,S11,S12,S22,J"
    assert len(lines) == 64 * 64 + 1


def test_twist_scan_csv_skips_the_scan(circle_file, tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("twist_scan is not needed for the CSV table")

    monkeypatch.setattr(generating, "twist_scan", no_scan)
    out = tmp_path / "table.csv"
    assert run(["--curve", circle_file, "--cmd", "twist-scan", "--format", "csv",
                "--phi-grid", "64", "--t-grid", "64", "--out", str(out)]) == 0


def test_workers_below_one_exit_2(wobbly_file, capsys):
    for bad in ("0", "-3"):
        assert run(["--curve", wobbly_file, "--cmd", "conjugate-scan",
                    "--workers", bad]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers" in err


def test_portrait(circle_file, tmp_path):
    out = tmp_path / "portrait.csv"
    assert run(["--curve", circle_file, "--cmd", "portrait", "--steps", "5",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,n,x,y,p,phi"
    assert len(lines) == 1 + 64 * 6


def test_conjugate_scan_csv(wobbly_file, tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["--curve", wobbly_file, "--cmd", "conjugate-scan", "--steps", "100",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed_phi,seed_t,n_conjugate"
    assert len(lines) == 1 + 64 * 64
    assert any(line.split(",")[2] != "" for line in lines[1:])


def test_conjugate_scan_json_rows(wobbly_file, tmp_path):
    out = tmp_path / "scan.json"
    assert run(["--curve", wobbly_file, "--cmd", "conjugate-scan", "--steps", "100",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 64 * 64
    row = doc["rows"][0]
    assert set(row) == {"seed_phi", "seed_t", "n_conjugate"}
    assert "unscanned_count" not in doc
    assert doc["found_count"] == sum(r["n_conjugate"] is not None for r in doc["rows"])


def test_optimizer_failure_exit_4(ellipse_file, tmp_path, monkeypatch):
    from outerbilliard import rigidity
    from outerbilliard.errors import ConvergenceError

    def no_convergence(*args, **kwargs):
        raise ConvergenceError("simplex descent exhausted its budget")

    monkeypatch.setattr(rigidity, "santalo_point", no_convergence)
    assert run(["--curve", ellipse_file, "--cmd", "rigidity",
                "--out", str(tmp_path / "r.json")]) == 4


def test_reports_are_deterministic(wobbly_file, tmp_path):
    outs = []
    for i, workers in enumerate((1, 4)):
        out = tmp_path / f"rig{i}.json"
        assert run(["--curve", wobbly_file, "--cmd", "rigidity", "--conjugate-scan",
                    "--steps", "200", "--workers", str(workers),
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
