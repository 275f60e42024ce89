"""The lane twins of the point map against the scalar solve, bit for bit.

dynamics' lane bodies run _tangency_root's float operations on many points
at once; verify steps its sample points on them.  Each lane must have the
scalar's bits, the lanes must fail exactly where the scalar raises, and the
entry points must raise the scalar's error for the first failing lane.
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

from oracles import polar_point

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
    scalar steps from oracles.polar_point, in the order p + h, p - h, phi + h,
    phi - h."""
    h = dynamics.DIFFERENTIAL_FD_H
    hp = h * max(1.0, a.p)
    out = np.empty((2, 2))

    def image(p, phi):
        q = dynamics.step(curve, polar_point(curve, p, phi))
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
        roots = dynamics._tangency_root_lanes(curve, ax, ay, direction, a.exterior)
        _assert_same_bits(np.column_stack(roots),
                          [(psi, gx, gy) for psi, _, gx, gy in
                           (dynamics._tangency_root(curve, u, v, direction)
                            for u, v in zip(ax.tolist(), ay.tolist()))],
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


def _assert_nan_lanes_are_the_failing_ones(curve, ax, ay, direction):
    """The lane solve's NaN lanes are all the lanes on which _tangency_root
    raises, and only those; each has NaN in psi, gx and gy."""
    exterior = dynamics._require_exterior_lanes(curve, ax, ay)
    nan = np.isnan(np.column_stack(
        dynamics._tangency_root_lanes(curve, ax, ay, direction, exterior)))
    failing = np.zeros(len(ax), dtype=bool)
    for i, (u, v) in enumerate(zip(ax.tolist(), ay.tolist())):
        try:
            dynamics._tangency_root(curve, u, v, direction)
        except (ob.InsideCurveError, ob.TangencyError):
            failing[i] = True
    assert failing.any(), "no lane failed"
    assert (nan == failing[:, None]).all(), (
        f"NaN lanes {np.flatnonzero(nan.any(axis=1)).tolist()}, "
        f"failing lanes {np.flatnonzero(failing).tolist()}")


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
    _assert_nan_lanes_are_the_failing_ones(wobbly3, x, y, direction)
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
    _assert_nan_lanes_are_the_failing_ones(curve, x, y, direction)


@pytest.mark.parametrize("direction", [1, -1])
def test_a_lane_whose_g_overflows_short_of_the_root_fails(direction):
    # on 1e100 (1 + 0.05 cos 3phi), points 1e111 and 1e113 tangent lengths
    # from the curve's top (psi = 1.7053, where gamma' is horizontal to 1e-4)
    # have an overflowing g at the solve's start, pi/2 to rounding, but not
    # near the root, where A - gamma is nearly horizontal: the scalar raises
    # at the start, so those lanes fail although later iterates are finite
    curve = ob.require_valid(ob.fourier(1e100, cos=[0.0, 0.0, 5e98]))
    x, y = _sample(curve, 6, 9, gap=(0.5, 2.0))
    r, r1, _ = curve.radius_scalar(1.7053)
    c, s = math.cos(1.7053), math.sin(1.7053)
    t = direction * np.array([1e111, 1e113])
    x[[1, 4]], y[[1, 4]] = r * c - t * (r1 * c - r * s), r * s - t * (r1 * s + r * c)
    want = _first_scalar_error(lambda u, v: dynamics._tangency_root(curve, u, v, direction),
                               zip(x.tolist(), y.tolist()))
    assert isinstance(want, ob.TangencyError) and "met g = " in str(want)
    _assert_nan_lanes_are_the_failing_ones(curve, x, y, direction)


def test_a_lane_whose_p_overflows_raises_the_scalar_error(wobbly3):
    # lanes 2 and 4 are outside the curve, but p = rho^2 / 2 overflows there
    x, y = _sample(wobbly3, 6, 5)
    x[[2, 4]] = 1e200, -3e160
    want = _first_scalar_error(lambda u, v: ob.phase_point(wobbly3, u, v),
                               zip(x.tolist(), y.tolist()))
    assert isinstance(want, ob.ConvergenceError)
    with pytest.raises(ob.ConvergenceError) as exc:
        dynamics.phase_lanes(wobbly3, x, y)
    _assert_same_error(exc.value, want)


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
    _assert_nan_lanes_are_the_failing_ones(fourier8, x, y, direction)
    scalar_step = ob.step if direction > 0 else ob.inverse_step
    want = _first_scalar_error(lambda u, v: scalar_step(fourier8, ob.phase_point(fourier8, u, v)),
                               zip(x.tolist(), y.tolist()))
    with pytest.raises(ob.TangencyError) as exc:
        dynamics.step_lanes(fourier8, dynamics.phase_lanes(fourier8, x, y), direction)
    _assert_same_error(exc.value, want)


@pytest.mark.parametrize("max_evals, kind", [(dynamics.TANGENCY_MAX_EVALS, ob.InsideCurveError),
                                             (2, ob.TangencyError)])
def test_differential_fd_lanes_fail_in_the_scalar_order(monkeypatch, fourier8, max_evals,
                                                         kind):
    # lanes 1 and 3 lie within rho / r - 1 = 2e-6 and 1e-6 of the curve, so
    # their p - h stencil points are inside it; with two evaluations allowed,
    # the solve for lane 0's first stencil image fails before that.  The lanes
    # raise the first error of the scalar loop over (lane, stencil)
    phi = np.random.default_rng(17).uniform(0.0, TWO_PI, 6)
    rho = fourier8.radius(phi)[0] * (1.0 + np.array([0.5, 2e-6, 0.3, 1e-6, 1e-3, 1.0]))
    x, y = fourier8.origin[0] + rho * np.cos(phi), fourier8.origin[1] + rho * np.sin(phi)
    a = dynamics.phase_lanes(fourier8, x, y)
    points = [ob.phase_point(fourier8, u, v) for u, v in zip(x.tolist(), y.tolist())]
    bases = [ob.step(fourier8, q) for q in points]
    monkeypatch.setattr(dynamics, "TANGENCY_MAX_EVALS", max_evals)
    want = _first_scalar_error(lambda q, base: _differential_fd_scalar(fourier8, q, base),
                               zip(points, bases))
    assert isinstance(want, kind)
    with pytest.raises(kind) as exc:
        dynamics.differential_fd_lanes(fourier8, a.p, a.phi, np.array([b.phi for b in bases]))
    _assert_same_error(exc.value, want)


def test_a_marked_lane_on_which_the_scalar_succeeds_raises(monkeypatch, wobbly3):
    # a lane marked as failing where the scalar step succeeds is a fault of the
    # lanes: it raises rather than return a NaN image
    x, y = _sample(wobbly3, 6, 5)
    a = dynamics.phase_lanes(wobbly3, x, y)
    solve = dynamics._tangency_root_lanes

    def marks_lane_2(*args):
        psi, gx, gy = solve(*args)
        gx[2] = np.nan
        return psi, gx, gy

    monkeypatch.setattr(dynamics, "_tangency_root_lanes", marks_lane_2)
    with pytest.raises(RuntimeError, match="lane 2 was marked as failing"):
        dynamics.step_lanes(wobbly3, a, 1)
