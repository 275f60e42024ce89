"""The lane twins of the point map against the scalar solve, bit for bit.

dynamics' lane bodies run _tangency_root's float operations on many points
at once; verify steps its sample points on them.  Each lane must have the
scalar's bits, and a failing lane the scalar's error.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics
from outerbilliard.quadrature import TWO_PI

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:                          # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

# the numpy SIMD level of a CPU without AVX-512
AVX2_LEVEL = "X86_V4 AVX512_ICL AVX512_SPR"
CURVES = ["unit_circle", "ellipse21", "wobbly3", "fourier8", "ellipse51", "ellipse101",
          "near_flat5", "fourier8_off_centre"]
GAP = (1e-3, 30.0)      # range of rho / r - 1 of the sample lanes, log-uniform


@pytest.fixture(scope="module")
def ellipse51():
    return ob.require_valid(ob.ellipse(5.0, 1.0))


@pytest.fixture(scope="module")
def ellipse101():
    return ob.require_valid(ob.ellipse(10.0, 1.0))


def _sample(curve, n, seed, gap=GAP):
    """World (x, y) of n seeded points with rho / r - 1 log-uniform in gap."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + 10.0 ** rng.uniform(*np.log10(gap), n))
    return curve.origin[0] + rho * np.cos(phi), curve.origin[1] + rho * np.sin(phi)


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    moved = np.flatnonzero((got.view(np.int64) != want.view(np.int64)).reshape(len(got), -1)
                           .any(axis=1))
    assert not moved.size, (f"{what}: {moved.size} of {len(got)} lanes differ from the "
                            f"scalar, first lane {moved[0]}: {got[moved[0]]} != {want[moved[0]]}")


def _differential_fd_scalar(curve, a, base):
    """The one-point differential as it was before it ran on lanes: four
    scalar steps from phase_point_polar, in the order p + h, p - h, phi + h,
    phi - h."""
    h = dynamics.DIFFERENTIAL_FD_H
    hp = h * max(1.0, a.p)
    out = np.empty((2, 2))

    def image(p, phi):
        q = dynamics.step(curve, dynamics.phase_point_polar(curve, p, phi))
        dphi = (q.phi - base.phi + math.pi) % (2.0 * math.pi) - math.pi
        return q.p, base.phi + dphi

    (pp, fp), (pm, fm) = image(a.p + hp, a.phi), image(a.p - hp, a.phi)
    out[0, 0], out[1, 0] = (pp - pm) / (2.0 * hp), (fp - fm) / (2.0 * hp)
    (pp, fp), (pm, fm) = image(a.p, a.phi + h), image(a.p, a.phi - h)
    out[0, 1], out[1, 1] = (pp - pm) / (2.0 * h), (fp - fm) / (2.0 * h)
    return out


def assert_lanes_match_scalar(curve, n=200, seed=11):
    """phase_lanes, _tangency_root_lanes, step_lanes in both directions and
    differential_fd_lanes against phase_point, _tangency_root, step,
    inverse_step and the scalar differential, lane by lane and bit for bit."""
    x, y = _sample(curve, n, seed)
    ax, ay = x - curve.origin[0], y - curve.origin[1]
    a = dynamics.phase_lanes(curve, x, y)
    points = [ob.phase_point(curve, u, v) for u, v in zip(x.tolist(), y.tolist())]
    _assert_same_bits(np.column_stack([a.p, a.phi]), [(q.p, q.phi) for q in points],
                      "phase_lanes")
    for direction, scalar_step in ((1, ob.step), (-1, ob.inverse_step)):
        fails = {}
        roots = dynamics._tangency_root_lanes(curve, ax, ay, direction, a.exterior, fails)
        assert not fails
        _assert_same_bits(np.column_stack(roots),
                          [dynamics._tangency_root(curve, u, v, direction)
                           for u, v in zip(ax.tolist(), ay.tolist())],
                          f"_tangency_root_lanes, direction {direction}")
        b = dynamics.step_lanes(curve, a, direction)
        _assert_same_bits(np.column_stack([b.x, b.y, b.p, b.phi]),
                          [(q.x, q.y, q.p, q.phi) for q in map(scalar_step, [curve] * n, points)],
                          f"step_lanes, direction {direction}")
    b, k = dynamics.step_lanes(curve, a, 1), n // 10
    _assert_same_bits(dynamics.differential_fd_lanes(curve, a.p[:k], a.phi[:k], b.phi[:k])
                      .reshape(k, 4),
                      [_differential_fd_scalar(curve, q, ob.step(curve, q)).ravel()
                       for q in points[:k]], "differential_fd_lanes")


@pytest.mark.parametrize("name", CURVES)
def test_lanes_match_the_scalar_solve_bitwise(request, name):
    assert_lanes_match_scalar(request.getfixturevalue(name))


@pytest.mark.skipif(not __cpu_features__.get("AVX512_ICL"),
                    reason="the CPU lacks AVX512_ICL, so numpy already runs at the AVX2 level")
def test_lanes_match_the_scalar_solve_at_the_avx2_simd_level(request, tmp_path):
    # the lanes' np.cos and np.sin must keep math's bits at every SIMD level;
    # a child process at the AVX2 level runs the same comparison
    specs = [ob.curve_to_dict(request.getfixturevalue(name)) for name in CURVES]
    (tmp_path / "curves.json").write_text(json.dumps(specs))
    code = ("import json, sys\n"
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__ as f\n"
            "import outerbilliard as ob\n"
            "from test_dynamics_lanes import assert_lanes_match_scalar\n"
            "assert not f['AVX512_ICL'], 'AVX512_ICL is still on'\n"
            "for spec in json.load(open(sys.argv[1])):\n"
            "    assert_lanes_match_scalar(ob.curve_from_dict(spec))\n")
    src = str(Path(ob.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]),
               NPY_DISABLE_CPU_FEATURES=AVX2_LEVEL)
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "curves.json")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]


def _first_scalar_error(solve, lanes):
    for lane in lanes:
        try:
            solve(*lane)
        except Exception as exc:
            return exc
    raise AssertionError("no lane failed")


def _first_lane_error(curve, ax, ay, direction):
    fails = {}
    exterior = dynamics._require_exterior_lanes(curve, ax, ay, fails)
    dynamics._tangency_root_lanes(curve, ax, ay, direction, exterior, fails)
    assert fails, "no lane failed"
    return fails[min(fails)]


def _assert_same_error(got, want):
    assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.parametrize("direction", [1, -1])
def test_a_lane_inside_the_curve_raises_the_scalar_error(wobbly3, direction):
    # lanes 3 and 6 inside, lane 5 on the curve to rounding: the first failing
    # lane in lane order raises
    x, y = _sample(wobbly3, 8, 5)
    for i, scale in ((3, 0.5), (5, None), (6, 0.9)):
        phi = math.atan2(y[i], x[i])
        r = wobbly3.radius_scalar(phi)[0] * (scale or 1.0)
        x[i], y[i] = r * math.cos(phi), r * math.sin(phi)
    want = _first_scalar_error(lambda u, v: dynamics._tangency_root(wobbly3, u, v, direction),
                               zip(x.tolist(), y.tolist()))
    assert isinstance(want, ob.InsideCurveError)
    _assert_same_error(_first_lane_error(wobbly3, x, y, direction), want)
    with pytest.raises(ob.InsideCurveError) as exc:
        dynamics.phase_lanes(wobbly3, x, y)
    _assert_same_error(exc.value, _first_scalar_error(lambda u, v: ob.phase_point(wobbly3, u, v),
                                                      zip(x.tolist(), y.tolist())))


@pytest.mark.parametrize("direction", [1, -1])
def test_a_non_finite_g_raises_the_scalar_error(direction):
    # on a circle of radius 1e100, g = cross(gamma', A - gamma) overflows for
    # a point at 1e250 but not at twice the radius
    curve = ob.circle(1e100)
    x, y = _sample(curve, 6, 9, gap=(0.5, 2.0))
    x[[2, 4]], y[[2, 4]] = 3e250, -4e250
    want = _first_scalar_error(lambda u, v: dynamics._tangency_root(curve, u, v, direction),
                               zip(x.tolist(), y.tolist()))
    assert isinstance(want, ob.TangencyError) and "met g = " in str(want)
    _assert_same_error(_first_lane_error(curve, x, y, direction), want)


@pytest.mark.parametrize("direction", [1, -1])
def test_a_lane_that_does_not_converge_raises_the_scalar_error(monkeypatch, fourier8,
                                                                direction):
    # with two evaluations allowed, lanes near the curve converge and far ones
    # do not
    monkeypatch.setattr(dynamics, "TANGENCY_MAX_EVALS", 2)
    x, y = _sample(fourier8, 40, 13, gap=(1e-6, 3.0))
    want = _first_scalar_error(lambda u, v: dynamics._tangency_root(fourier8, u, v, direction),
                               zip(x.tolist(), y.tolist()))
    assert isinstance(want, ob.TangencyError) and "did not converge" in str(want)
    _assert_same_error(_first_lane_error(fourier8, x, y, direction), want)
    scalar_step = ob.step if direction > 0 else ob.inverse_step
    want = _first_scalar_error(lambda u, v: scalar_step(fourier8, ob.phase_point(fourier8, u, v)),
                               zip(x.tolist(), y.tolist()))
    with pytest.raises(ob.TangencyError) as exc:
        dynamics.step_lanes(fourier8, dynamics.phase_lanes(fourier8, x, y), direction)
    _assert_same_error(exc.value, want)
