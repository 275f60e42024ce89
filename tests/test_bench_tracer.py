"""The benchmark's per-layer tracer wraps package entry points by name.

A refactor that drops or renames one of them breaks ``bench/run.py
--trace 1``; this installs the tracer on the package and takes it off
again without running a workload.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import outerbilliard
import outerbilliard.cli  # noqa: F401  (the tracer wraps names in cli)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# names that src/ keeps only so that the tracer can wrap them (rigidity's
# nelder_mead and reorigin are placeholders bound to None); once the tracer
# stops wrapping one, its line in src/ goes
TRACER_ONLY_IMPORTS = [(outerbilliard.jacobi, "_sderiv_arrays"),
                       (outerbilliard.jacobi, "sderiv_scalar"),
                       (outerbilliard.rigidity, "nelder_mead"),
                       (outerbilliard.rigidity, "reorigin"),
                       (outerbilliard.rigidity, "_sderiv_arrays")]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_uninstalls():
    tracer = _tracer()
    tracer.install(outerbilliard)
    wrapped = list(tracer._originals)
    try:
        assert wrapped
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original


def test_tracer_still_wraps_the_imports_kept_for_it():
    tracer = _tracer()
    tracer.install(outerbilliard)
    try:
        wrapped = {(owner, attr) for owner, attr, _ in tracer._originals}
    finally:
        tracer.uninstall()
    for owner, name in TRACER_ONLY_IMPORTS:
        assert (owner, name) in wrapped, f"drop the import of {owner.__name__}.{name}"


def test_scan_batch_gets_n_max_as_its_fourth_argument(monkeypatch):
    # the tracer's scan post-hook reads n_max as args[3] of jacobi._scan_batch
    jacobi = outerbilliard.jacobi
    assert list(inspect.signature(jacobi._scan_batch).parameters)[3] == "n_max"
    calls = []
    scan_batch = jacobi._scan_batch

    def recording(*args, **kwargs):
        calls.append(args)
        return scan_batch(*args, **kwargs)

    monkeypatch.setattr(jacobi, "_scan_batch", recording)
    for stop_at_first in (False, True):
        jacobi.conjugate_grid_scan(outerbilliard.circle(1.0), phi_count=4, t_count=4,
                                   n_max=7, stop_at_first=stop_at_first)
    assert len(calls) == 2
    assert all(len(args) >= 4 and args[3] == 7 for args in calls)


def test_tracer_counts_the_lanes_of_a_batch_chord_step():
    # the benchmark's chord_step_batch.lane_steps and us_per_lane_step divide
    # by these lanes: np.size of the kernel's second argument, its t array
    curve, k = outerbilliard.circle(1.0), 37
    phi = np.linspace(0.0, 6.0, k)
    t = np.full(k, 0.5)
    c, s = np.cos(phi), np.sin(phi)
    head = (c, s) + curve.radius(phi, cs=(c, s))
    tracer = _tracer()
    tracer.install(outerbilliard)
    try:
        outerbilliard.jacobi.chord_step_batch(curve, t, head)
    finally:
        tracer.uninstall()
    stat = tracer.stats["dynamics.chord_step_batch"]
    assert (stat.calls, stat.lanes) == (1, k)
    assert stat.child_calls["curves.radius"] == 13
