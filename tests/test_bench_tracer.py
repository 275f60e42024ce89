"""The benchmark's per-layer tracer wraps package entry points by name.

A refactor that drops or renames one of them breaks ``bench/run.py
--trace 1``; this installs the tracer on the package and takes it off
again without running a workload.
"""

import importlib.util
from pathlib import Path

import outerbilliard
import outerbilliard.cli  # noqa: F401  (the tracer wraps names in cli)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
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
