"""The benchmark's own test, at minimal sizes.

    python3 -m pytest bench/test_bench.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that each output check rejects a corrupted output, and that the benchmark
refuses to run where there is no package to measure.  It is not part of the
repository's test suite.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    results = {}
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("bench-record "):
            record = json.loads(line[len("bench-record "):])
        elif line.startswith("{"):
            results[record["workload"]] = json.loads(line)
    assert sorted(results) == sorted(workloads.WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for res in results.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace:
        scan = results["scan"]["metrics"]
        per_call = scan["dynamics.chord_step_batch.radius_calls_per_call"]["value"]
        assert per_call > 0 and per_call == int(per_call)
        assert 0.0 < scan["jacobi.scan.useful_ratio"]["value"] <= 1.0
        orbit = results["orbit"]["metrics"]
        per_call = orbit["dynamics.chord_step_scalar.radius_scalar_per_call"]["value"]
        assert per_call > 0 and per_call == int(per_call)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- output checks ----------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one tiny job per check, by job name."""
    import outerbilliard
    import outerbilliard.cli  # noqa: F401
    workdir = str(tmp_path_factory.mktemp("jobs"))
    os.makedirs(os.path.join(workdir, "out"))
    jobs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, 5, "tiny"):
            job["curve_file"] = f"{name}-{job['curve_file']}"   # curves differ by workload
            jobs[job["name"]] = job
    workloads.write_inputs(list(jobs.values()), workdir)
    runner = worker.Runner(outerbilliard, workdir, [])
    out = {}
    for name in CORRUPTIONS:
        output, error = runner.run_job(jobs[name])
        assert error is None, error
        out[name] = (jobs[name], worker.read_output(jobs[name], output))
    return out


def _move_point(text, row, column, delta):
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _edit_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _fail_first_check(doc):
    doc["checks"][0]["passed"] = False


def _plant_conjugate_point(doc):
    doc["rows"][7]["n_conjugate"] = 5
    doc["found_count"] = 1


CORRUPTIONS = {
    "simulate/circle/t=1": lambda text: _move_point(text, 3, 1, 1e-6),
    "simulate/wobbly/t=0.1": lambda text: _move_point(text, 3, 2, 1e-6),
    "portrait/ellipse": lambda text: _move_point(text, 2, 2, 1e-6),
    "rigidity/ellipse": lambda text: _edit_json(
        text, lambda d: d.update(q_defect=d["q_defect"] + 1e-5)),
    "rigidity/fourier8-0": lambda text: _edit_json(
        text, lambda d: d.update(bs_product=math.pi ** 2)),
    "rigidity-scan/wobbly": lambda text: _edit_json(
        text, lambda d: d["conjugate_scan"].update(found_count=0)),
    "conjugate-scan/ellipse": lambda text: _edit_json(text, _plant_conjugate_point),
    "verify/circle": lambda text: _edit_json(text, _fail_first_check),
    "twist-scan/wobbly": lambda text: _edit_json(
        text, lambda d: d.update(max_s12=1e-3, twist_negative=False)),
    "twist-scan-csv/wobbly": lambda text: _move_point(text, 5, 2, 1e-9),
    "hopf_omega/circle/0": lambda doc: dict(doc, converged=False, minimizing=False,
                                            omega=None),
    "radial_conjugate_scan/ellipse/0": lambda doc: dict(doc, n_conjugate=7),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_accepts_the_output_and_rejects_a_corruption(outputs, name):
    job, output = outputs[name]
    assert checks.check(job, output) is None
    assert checks.check(job, CORRUPTIONS[name](output)) is not None
