import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outerbilliard
from outerbilliard import cli, dynamics, generating, verify
from outerbilliard.errors import TangencyError


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


@pytest.mark.parametrize("cmd, extra", [("simulate", ["--seed", "2", "0"]), ("portrait", [])])
def test_an_orbit_failure_names_its_step(circle_file, tmp_path, capsys, monkeypatch, cmd, extra):
    # the third tangency solve fails: the orbit's step 3, which the one error
    # line names, and the --out file is never written
    calls = []
    root = dynamics._tangency_root

    def failing_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise TangencyError("injected tangency failure")
        return root(*args)

    monkeypatch.setattr(dynamics, "_tangency_root", failing_third)
    out = tmp_path / "out.csv"
    assert run(["--curve", circle_file, "--cmd", cmd, *extra, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: dynamics failure at step 3:"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["circle.json"]


def test_conjugate_scan_near_boundary_exit_3(circle_file, capsys):
    assert run(["--curve", circle_file, "--cmd", "conjugate-scan", "--t-max", "1e-9",
                "--phi-grid", "64", "--t-grid", "64", "--steps", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "t >= 1.5e-06 for a new t within 1e-4" in captured.err


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


def test_conjugate_scan_writes_the_bytes_of_its_rows(circle_file, tmp_path):
    # on a grid with unscanned rows: the CSV is each seed's columns rendered
    # alone, the JSON the document of the rows as dicts
    argv = ["--curve", circle_file, "--cmd", "conjugate-scan", "--t-max", "5e-5", "--steps", "10"]
    assert run(argv + ["--format", "csv", "--out", str(tmp_path / "scan.csv")]) == 0
    assert run(argv + ["--out", str(tmp_path / "scan.json")]) == 0
    scan = outerbilliard.conjugate_grid_scan(outerbilliard.circle(1.0), phi_count=64,
                                             t_count=64, t_max=5e-5, n_max=10)
    cols = list(zip(scan.seed_phi.tolist(), scan.seed_t.tolist(), scan.n_conjugate.tolist(),
                    scan.steppable.tolist()))
    lines = [f"{phi:.17g},{t:.17g},{'' if n < 0 else n}" for phi, t, n, _ in cols]
    assert (tmp_path / "scan.csv").read_text() == "\n".join(
        ["seed_phi,seed_t,n_conjugate"] + lines + ["# unscanned_rows=64", ""])
    rows = [{"seed_phi": phi, "seed_t": t, "n_conjugate": None if n < 0 else n,
             **({} if ok else {"unscanned": "t below 1.5e-06"})} for phi, t, n, ok in cols]
    doc = {"found_count": 0, "unscanned_count": 64, "rows": rows,
           "config": {"command": "conjugate-scan", "steps": 10, "phi_grid": 64, "t_grid": 64,
                      "t_max": 5e-5}}
    assert (tmp_path / "scan.json").read_text() == outerbilliard.serialize.dumps(doc)


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
    ("rigidity", "--tol", "nan"),
    ("rigidity", "--tol", "-1e-9"),
    ("rigidity", "--tol", "inf"),
])
def test_bad_t_max_or_tol_exit_2(wobbly_file, tmp_path, capsys, cmd, flag, value):
    assert run(["--curve", wobbly_file, "--cmd", cmd, f"{flag}={value}",
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--cmd", "simulate"], "--seed"),
    (["--cmd", "portrait", "--steps", "-1"], "--steps"),
], ids=["simulate_without_seed", "negative_steps"])
def test_missing_seed_or_negative_steps_exit_2(circle_file, tmp_path, capsys, argv, flag):
    assert run(["--curve", circle_file] + argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd", ["twist-scan", "rigidity", "conjugate-scan"])
def test_grid_too_large_to_allocate_exit_2(circle_file, tmp_path, capsys, cmd):
    # 2**50 passes the power-of-two rule; numpy refuses the 8 PiB arrays at
    # once, so nothing is allocated, and no report or temporary file is left
    assert run(["--curve", circle_file, "--cmd", cmd, "--phi-grid", str(2 ** 50),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory:") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [Path(circle_file)]


def test_negative_exponent_seed_is_a_value(circle_file, tmp_path):
    # argparse's default number pattern reads "-1e-05" as a flag
    out = tmp_path / "orbit.csv"
    assert run(["--curve", circle_file, "--cmd", "simulate", "--seed", "-1e-05", "2.0",
                "--steps", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert (float(row[1]), float(row[2])) == (-1e-05, 2.0)


@pytest.mark.parametrize("cmd,flag,value", [
    ("rigidity", "--tol", "-1e-9"),
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
    (["--cmd", "twist-scan", "--t-max", "1e70"], "S12 is not finite"),
    (["--cmd", "twist-scan", "--t-max", "1e200", "--format", "csv"], "S12 is not finite"),
    (["--cmd", "simulate", "--seed", "1e200", "0"], "p = rho^2/2 is inf"),
    (["--cmd", "portrait", "--t-max", "1e160"], "p = rho^2/2 is inf"),
], ids=["conjugate_scan", "rigidity", "twist_scan_json", "twist_scan_csv", "simulate",
        "portrait"])
def test_overflowing_arithmetic_exit_4(wobbly_file, tmp_path, argv, why):
    # in a fresh interpreter, where numpy's overflow would be a warning on
    # stderr and not an error: the run must still fail, not report NaN or no
    # hit, with its one error line as all of stderr and no output file
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "outerbilliard.cli", "--curve", wobbly_file]
                          + argv + ["--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: solver failure: ") and why in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wobbly.json"]


def test_out_file_is_replaced_only_when_the_command_returns(wobbly_file, tmp_path, capsys):
    out = tmp_path / "o.csv"
    out.write_text("kept\n")
    assert run(["--curve", wobbly_file, "--cmd", "portrait", "--t-max", "1e160",
                "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure: ") and err.count("\n") == 1
    assert out.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "wobbly.json"]
    argv = ["--curve", wobbly_file, "--cmd", "portrait", "--steps", "2", "--t-grid", "64"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "wobbly.json"]


def test_out_through_a_symlink_keeps_the_link_and_the_mode(wobbly_file, tmp_path, capsys):
    argv = ["--curve", wobbly_file, "--cmd", "portrait", "--steps", "2", "--t-grid", "64"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert run(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == printed.encode()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv", "wobbly.json"]


def test_out_to_a_device_writes_in_place(wobbly_file):
    # a device (or pipe) cannot be replaced by a file beside it; it is written through
    before = os.stat(os.devnull)
    argv = ["--curve", wobbly_file, "--cmd", "portrait", "--steps", "2", "--t-grid", "64"]
    assert run(argv + ["--out", os.devnull]) == 0
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and after.st_rdev == before.st_rdev


def test_out_to_a_directory_fails_before_the_command_runs(wobbly_file, tmp_path, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "portrait", lambda *a: pytest.fail("command ran"))
    assert run(["--curve", wobbly_file, "--cmd", "portrait", "--out", str(tmp_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wobbly.json"]


@pytest.mark.parametrize("out", ["sub", "missing/dir/x.json", ""],
                         ids=["directory", "missing_directory", "empty"])
def test_bad_out_path_exit_2_one_line(tmp_path, capsys, monkeypatch, out):
    # "" is refused as empty before anything is opened; none of these may
    # leave a file behind
    spec = tmp_path / "circle.json"
    spec.write_text('{"kind": "circle", "radius": 1}')
    (tmp_path / "work" / "sub").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "work")
    code, err = _exit_and_stderr(["--curve", str(spec), "--cmd", "verify", "--out", out], capsys)
    assert code == 2
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1, err
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "circle.json", "work", "work/sub"]


def test_empty_out_is_refused_before_the_curve_loads(tmp_path, capsys):
    # the curve file does not exist: the empty path is the reason given
    argv = ["--curve", str(tmp_path / "missing.json"), "--cmd", "verify", "--out", ""]
    assert _exit_and_stderr(argv, capsys) == (2, "error: cannot write --out '': the path is empty\n")
    assert list(tmp_path.iterdir()) == []


def test_commands_run_under_the_callers_numpy_error_state(circle_file, monkeypatch):
    # numpy's floating-point warnings stay on inside a command (tier-1 turns
    # them into errors); only the scans whose results are checked silence them
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "verify", lambda *a: seen.append(np.geterr()) or 0)
    assert run(["--curve", circle_file, "--cmd", "verify"]) == 0
    assert seen == [np.geterr()]


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
    s12 = generating._s12_arrays
    monkeypatch.setattr(generating, "_s12_arrays", lambda *args: -s12(*args))
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


def test_verify_on_a_huge_circle_says_why_each_check_failed(tmp_path):
    # arithmetic on radius 1e60 overflows; a check it reaches fails with the
    # FloatingPointError in its report, and numpy prints no warning
    spec = tmp_path / "circle.json"
    spec.write_text('{"kind": "circle", "radius": 1e60}')
    out = tmp_path / "verify.json"
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "outerbilliard.cli", "--curve", str(spec),
                           "--cmd", "verify", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ""
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    assert failed and all("error" in c for c in failed), failed


@pytest.mark.parametrize("spec", ['{"kind": "circle", "radius": 1e6}',
                                  '{"kind": "circle", "radius": 1e8}',
                                  '{"kind": "circle", "radius": 1e6, "origin": [3e6, 1e6]}'],
                         ids=["radius_1e6", "radius_1e8", "radius_1e6_off_centre"])
def test_verify_passes_on_large_circles(tmp_path, spec):
    # the circle law compares |T(A)| with |A| relative to the radius
    path = tmp_path / "circle.json"
    path.write_text(spec)
    out = tmp_path / "verify.json"
    assert run(["--curve", str(path), "--cmd", "verify", "--out", str(out)]) == 0, [
        (c["name"], c["value"]) for c in json.loads(out.read_text())["checks"]
        if not c["passed"]]


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


def test_rigidity_first_found_is_the_first_hit_in_grid_order(wobbly_file, wobbly3, tmp_path,
                                                             monkeypatch):
    # 64-seed chunks shared by two processes at --workers 2: the report keeps
    # its bytes, and first_found is the grid scan's first seed with a hit
    monkeypatch.setattr(outerbilliard.jacobi, "SCAN_CHUNK", 64)
    monkeypatch.setattr(outerbilliard.jacobi.os, "cpu_count", lambda: 2)
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"rig{workers}.json"
        assert run(["--curve", wobbly_file, "--cmd", "rigidity", "--conjugate-scan",
                    "--steps", "30", "--workers", workers, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    first = json.loads(texts[0])["conjugate_scan"]["first_found"]
    scan = outerbilliard.conjugate_grid_scan(wobbly3, phi_count=64, t_count=64,
                                             t_max=cli.SCAN_T_MAX, n_max=30)
    i = np.flatnonzero(scan.n_conjugate >= 0)[0]
    assert first == {"seed_phi": scan.seed_phi[i], "seed_t": scan.seed_t[i],
                     "n_conjugate": scan.n_conjugate[i]}


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


def test_rigidity_on_a_huge_circle_exit_4(tmp_path):
    # a valid curve whose Santalo Newton determinant (about r^-8) underflows
    # to 0: one error line and no output file, not a ZeroDivisionError traceback
    spec = tmp_path / "circle.json"
    spec.write_text('{"kind": "circle", "radius": 1e60}')
    src = str(Path(outerbilliard.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "outerbilliard.cli", "--curve", str(spec),
                           "--cmd", "rigidity", "--out", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: solver failure: Santalo point")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["circle.json"]


def test_reports_are_deterministic(wobbly_file, tmp_path):
    outs = []
    for i, workers in enumerate((1, 4)):
        out = tmp_path / f"rig{i}.json"
        assert run(["--curve", wobbly_file, "--cmd", "rigidity", "--conjugate-scan",
                    "--steps", "200", "--workers", str(workers),
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# a value for each optional flag, none of them a default; every command's row
# in cli.ROWS (and cli.SCAN_ROW for rigidity --conjugate-scan) reads a subset
FLAG_VALUES = {"--seed": ["2", "0"], "--steps": ["1"], "--phi-grid": ["128"],
               "--t-grid": ["128"], "--t-max": ["12.5"], "--tol": ["1e-6"],
               "--workers": ["2"], "--format": ["csv"], "--orientation": ["cw"],
               "--conjugate-scan": []}
ROW_VARIANTS = [(cmd, False) for cmd in cli.ROWS] + [("rigidity", True)]


def _row(cmd, scan):
    return {**cli.ROWS[cmd], **(cli.SCAN_ROW if scan else {})}


def test_flag_values_cover_every_optional_flag():
    optional = {s for a in cli.build_parser()._actions for s in a.option_strings}
    assert optional - {"-h", "--help", "--version", "--curve", "--cmd", "--out"} == set(FLAG_VALUES)


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("cmd, scan", ROW_VARIANTS,
                         ids=[cmd + ("+scan" if scan else "") for cmd, scan in ROW_VARIANTS])
def test_a_command_takes_exactly_the_flags_in_its_row(circle_file, tmp_path, capsys,
                                                      cmd, scan, flag):
    argv = ["--curve", circle_file, "--cmd", cmd] + ["--conjugate-scan"] * scan
    if cmd == "simulate" and flag != "--seed":
        argv += ["--seed", "2", "0"]
    argv += [flag, *FLAG_VALUES[flag]]
    row, key = _row(cmd, scan), flag[2:].replace("-", "_")
    if key in row:
        args = cli.build_parser().parse_args(argv)
        s = cli.settings(args)
        assert s[key] == getattr(args, key) and s[key] != row[key]
        return
    out = tmp_path / "out"
    code, err = _exit_and_stderr(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {flag} does not apply to {cmd}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd, scan, extra, keys", [
    ("verify", False, [], ["command"]),
    ("rigidity", False, [], ["command", "phi_grid", "t_max", "tol"]),
    ("rigidity", True, ["--steps", "5"],
     ["command", "steps", "phi_grid", "t_grid", "t_max", "tol"]),
    ("twist-scan", False, [], ["command", "phi_grid", "t_grid", "t_max"]),
    ("conjugate-scan", False, ["--steps", "5"],
     ["command", "steps", "phi_grid", "t_grid", "t_max"]),
], ids=["verify", "rigidity", "rigidity+scan", "twist-scan", "conjugate-scan"])
def test_json_config_echoes_the_rows_numeric_settings(circle_file, tmp_path,
                                                      cmd, scan, extra, keys):
    out = tmp_path / "report.json"
    assert run(["--curve", circle_file, "--cmd", cmd, "--out", str(out)]
               + ["--conjugate-scan"] * scan + extra) == 0
    setting = {**_row(cmd, scan), "command": cmd, **({"steps": 5} if extra else {})}
    assert json.loads(out.read_text())["config"] == {k: setting[k] for k in keys}


def test_readme_lists_each_commands_row():
    # README's "- `cmd`: flags" bullets under Command line must name exactly
    # the flags in the command's row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    bullets = dict(re.findall(r"^- `([a-z-]+)`: (.*?)(?=\n- `|\n\n)", section, re.M | re.S))
    assert set(bullets) == set(cli.ROWS)

    def flags(text):
        return set(re.findall(r"`(--[a-z-]+)", text))

    for cmd, text in bullets.items():
        text, _, scan_text = " ".join(text.split()).partition("with `--conjugate-scan` also")
        assert flags(text) == {cli.flag(k) for k in cli.ROWS[cmd]}, cmd
        assert flags(scan_text) == ({cli.flag(k) for k in cli.SCAN_ROW}
                                    if cmd == "rigidity" else set()), cmd
