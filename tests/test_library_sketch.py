"""README's library sketch runs as written.

The sketch is the ```python block under "## Library sketch".  Its
hopf_omega line raises today: at (2, 0) on 1 + 0.05 cos 3phi the window
doubling stops at HOPF_CAP with last iterates 1.92e-3 and 9.6e-4, since
omega_N approaches its limit like C/N (ROADMAP item 16).  That line runs in
a test of its own that must fail so; the sketch's seed point stays where it
is, so the test passes once the Hopf slope converges there.
"""

from pathlib import Path

import pytest

import outerbilliard as ob

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch_lines():
    section = README.read_text().split("## Library sketch")[1]
    code = section.split("```python\n")[1].split("```")[0]
    return code.splitlines()


def _is_hopf(line):
    return "ob.hopf_omega(" in line


@pytest.fixture(scope="module")
def sketch_namespace():
    """The namespace after every sketch line but the hopf_omega one."""
    namespace = {}
    exec("\n".join(line for line in _sketch_lines() if not _is_hopf(line)), namespace)
    return namespace


def test_library_sketch_runs(sketch_namespace):
    assert sum(map(_is_hopf, _sketch_lines())) == 1
    assert isinstance(sketch_namespace["report"], ob.RigidityReport)


@pytest.mark.xfail(strict=True, raises=ob.ConvergenceError,
                   reason="ROADMAP item 16: omega_N converges like C/N, so the window "
                          "doubling reaches HOPF_CAP before HOPF_TOL at the sketch's seed")
def test_library_sketch_hopf_line(sketch_namespace):
    exec("\n".join(filter(_is_hopf, _sketch_lines())), dict(sketch_namespace))
