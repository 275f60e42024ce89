import json
import math

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard.curves import area_centroid, chi, radial_about, radius_about
from outerbilliard.quadrature import TWO_PI, uniform_angles

from conftest import radial, tangent
from oracles import ray_root, reorigin


def _sample(curve, phi):
    """r, r', r'', chi, curvature chi / (r^2 + r'^2)^1.5 and arc element
    ds/dphi = sqrt(r^2 + r'^2) at phi, from one radius call."""
    r, r1, r2 = curve.radius(phi)
    rp2 = r * r + r1 * r1
    k = chi(r, r1, r2)
    return r, r1, r2, k, k * rp2 ** -1.5, np.sqrt(rp2)


def test_circle_sample(unit_circle):
    r, r1, r2, k, curvature, arc = _sample(unit_circle, 0.0)
    assert float(r) == 1.0
    assert float(r1) == 0.0
    assert float(r2) == 0.0
    assert float(k) == 1.0
    assert float(curvature) == 1.0
    assert float(arc) == 1.0


def test_ellipse_sample_major_vertex(ellipse21):
    r, _, _, _, curvature, _ = _sample(ellipse21, 0.0)
    assert float(r) == pytest.approx(2.0, abs=1e-15)
    # curvature at the major-axis vertex is a/b^2
    assert float(curvature) == pytest.approx(2.0, abs=1e-12)
    r, _, _, _, curvature, _ = _sample(ellipse21, math.pi / 2)
    assert float(r) == pytest.approx(1.0, abs=1e-15)
    assert float(curvature) == pytest.approx(0.25, abs=1e-12)


def test_fourier_sample_hand_values(wobbly3):
    r, r1, r2, k, _, _ = _sample(wobbly3, 0.0)
    assert float(r) == pytest.approx(1.05, abs=1e-15)
    assert float(r1) == pytest.approx(0.0, abs=1e-15)
    assert float(r2) == pytest.approx(-0.45, abs=1e-15)
    # chi = 1.05^2 - 1.05 * (-0.45)
    assert float(k) == pytest.approx(1.575, abs=1e-14)


def test_ellipse_curvature_vs_parametric_fd(ellipse21):
    # cross-check k(phi) against finite differences of the parametric curve
    for phi in (0.3, 1.1, 2.7, 4.0):
        h = 1e-4
        pts = [np.array(ellipse21.point(phi + k * h)) for k in (-1, 0, 1)]
        d1 = (pts[2] - pts[0]) / (2 * h)
        d2 = (pts[2] - 2 * pts[1] + pts[0]) / h**2
        k_fd = abs(d1[0] * d2[1] - d1[1] * d2[0]) / np.hypot(*d1) ** 3
        k = float(_sample(ellipse21, phi)[4])
        assert k == pytest.approx(float(k_fd), rel=1e-5)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_radial_fd_consistency(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(7)
    phi = rng.uniform(0, TWO_PI, 200)
    h = 1e-4
    r, rp, rpp = curve.radius(phi)
    r_hi, _, _ = curve.radius(phi + h)
    r_lo, _, _ = curve.radius(phi - h)
    scale = max(1.0, np.abs(rp).max(), np.abs(rpp).max())
    assert np.abs((r_hi - r_lo) / (2 * h) - rp).max() / scale < 1e-6
    assert np.abs((r_hi - 2 * r + r_lo) / h**2 - rpp).max() / scale < 1e-6


def test_validate_accepts_presets(presets):
    for curve in presets.values():
        v = ob.validate(curve)
        assert v.ok
        assert v.min_chi > 0
    assert ob.validate(presets["circle"]).min_chi == pytest.approx(1.0)


def test_validate_rejects_nonconvex():
    bad = ob.fourier(1.0, cos=[0.0, 0.0, 0.2])
    v = ob.validate(bad)
    assert not v.ok
    assert v.min_chi < 0
    # chi ~ 1 + 11 eps cos(3 phi) dips most near phi = pi/3 (cos 3phi = -1)
    assert min(abs(v.phi_at_min_chi - x) for x in (np.pi / 3, np.pi, 5 * np.pi / 3)) < 0.1
    with pytest.raises(ob.InvalidCurveError):
        ob.require_valid(bad)


def test_boundary_point_and_tangent(unit_circle, ellipse21, wobbly3):
    assert unit_circle.point(math.pi / 2) == pytest.approx((0.0, 1.0), abs=1e-15)
    assert tangent(unit_circle, math.pi / 2) == pytest.approx((-1.0, 0.0), abs=1e-15)
    assert ellipse21.point(0.0)[0] == pytest.approx(2.0, abs=1e-15)
    assert wobbly3.point(0.0) == pytest.approx((1.05, 0.0), abs=1e-15)
    assert tangent(wobbly3, 0.0) == pytest.approx((0.0, 1.05), abs=1e-15)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_total_curvature(presets, name):
    assert ob.total_curvature(*radial(presets[name])) == pytest.approx(TWO_PI, abs=1e-10)


def test_reorigin_identity_circle():
    c = ob.circle(1.0, origin=(0.3, 0.0))
    rc = reorigin(c, (0.3, 0.0))
    assert rc.kind == "fourier"
    assert rc.a0 == pytest.approx(1.0, abs=1e-14)
    assert len(rc.cos_coeffs) == 0
    r, _, _ = rc.radius(uniform_angles(64))
    assert np.abs(r - 1.0).max() < 1e-14


def test_reorigin_ellipse_hand_values(ellipse21):
    re = reorigin(ellipse21, (0.5, 0.0))
    r0, _, _ = re.radius(0.0)
    rpi, _, _ = re.radius(np.pi)
    assert float(r0) == pytest.approx(1.5, abs=1e-9)
    assert float(rpi) == pytest.approx(2.5, abs=1e-9)
    assert re.origin == (0.5, 0.0)


def test_reorigin_round_trip(ellipse21):
    there = reorigin(ellipse21, (0.5, 0.2))
    back = reorigin(there, (0.0, 0.0))
    grid = uniform_angles(256)
    r_orig, _, _ = ellipse21.radius(grid)
    r_back, _, _ = back.radius(grid)
    assert np.abs(r_orig - r_back).max() < 1e-7


def test_reorigin_rejects_exterior_origin(ellipse21):
    with pytest.raises(ob.NotInteriorError):
        reorigin(ellipse21, (3.0, 0.0))
    with pytest.raises(ob.NotInteriorError):
        reorigin(ellipse21, (2.0, 0.0))  # on the boundary


def test_radial_about_matches_analytic(ellipse21):
    # ray from (0.5, 0) at angle 0 hits (2, 0); at angle pi hits (-2, 0)
    rho = radial_about(ellipse21, (0.5, 0.0), [0.0, np.pi])[0]
    assert rho[0] == pytest.approx(1.5, abs=1e-12)
    assert rho[1] == pytest.approx(2.5, abs=1e-12)


# (curve, interior point) of the rays held to the 40-digit root; the worst
# over 64 angles each, measured: 9.8e-15 in rho / rho and 2.7e-15 in phi on
# the 10:1 ellipse, at most 5.6e-16 in rho and 8.7e-16 in phi on the others
RAY_CASES = {
    "circle_off_centre": (ob.circle(1.25, origin=(0.25, -0.125)), (0.625, 0.375)),
    "ellipse21": (ob.ellipse(2.0, 1.0), (0.5, 0.2)),
    "ellipse101": (ob.ellipse(10.0, 1.0), (6.0, 0.3)),
    "fourier8": ("fourier8", (0.05, -0.03)),
    "fourier8_santalo": ("fourier8", None),       # None: the curve's Santalo point
}


def _ray_errors(curve, point, thetas, rho, phi):
    """The worst |rho / rho_ref - 1| and |phi - phi_ref| against ray_root."""
    worst_rho = worst_phi = 0.0
    for theta, rho_i, phi_i in zip(thetas, rho, phi):
        rho_ref, phi_ref = ray_root(curve, point, theta, phi_i)
        worst_rho = max(worst_rho, abs(float((rho_i - rho_ref) / rho_ref)))
        worst_phi = max(worst_phi, abs(float(phi_i - phi_ref)))
    return worst_rho, worst_phi


@pytest.mark.parametrize("name", sorted(RAY_CASES))
def test_radial_about_matches_mpmath_ray_root(request, name):
    pytest.importorskip("mpmath")
    curve, point = RAY_CASES[name]
    if isinstance(curve, str):
        curve = request.getfixturevalue(curve)
    if point is None:
        sp = ob.santalo_point(curve)
        point = (sp.x, sp.y)
    thetas = uniform_angles(64) + 0.05
    rho, phi, _, _ = radial_about(curve, point, thetas)
    worst_rho, worst_phi = _ray_errors(curve, point, thetas, rho, phi)
    assert worst_rho <= 1e-13 and worst_phi <= 1e-13, (worst_rho, worst_phi)


def test_radial_about_evaluates_radius_once_per_newton_step(monkeypatch, ellipse21, fourier8):
    # one radius call per iteration of the ray solve, the last at the root: at
    # most 7 and 5 here, where a dense start and six Newton steps took 8; every
    # 32nd ray is held to the 40-digit root
    pytest.importorskip("mpmath")
    thetas = uniform_angles(2048)
    cases = [(ellipse21, (0.5, 0.2), 7), (fourier8, (0.05, -0.03), 5)]
    calls = []
    radius = ob.ConvexCurve.radius

    def counted(curve, phi, cs=None):
        calls.append(phi)
        return radius(curve, phi, cs)

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    for curve, pt, most in cases:
        del calls[:]
        rho, phi, _, _ = radial_about(curve, pt, thetas)
        assert len(calls) <= most
        errors = _ray_errors(curve, pt, thetas[::32], rho[::32], phi[::32])
        assert max(errors) <= 1e-13, errors


def test_radius_about_reuses_the_final_radial_evaluation(monkeypatch, ellipse21, fourier8):
    # radius_about makes radial_about's radius calls (7 and 5) and no further
    # one at the same phi, with the bits of the formula evaluated on a fresh
    # radius call
    thetas = uniform_angles(2048)
    cases = [(ellipse21, (0.5, 0.2), 7), (fourier8, (0.05, -0.03), 5)]
    refs = []
    for curve, (px, py), _ in cases:
        rho, phi, _, _ = radial_about(curve, (px, py), thetas)
        c, s = np.cos(phi), np.sin(phi)
        r, r1, r2 = curve.radius(phi)
        dx, dy = curve.origin[0] + r * c - px, curve.origin[1] + r * s - py
        tx, ty = r1 * c - r * s, r1 * s + r * c
        rp = rho * (dx * tx + dy * ty) / (dx * ty - dy * tx)
        chi_p = chi(r, r1, r2) * ((rho * rho + rp * rp) / (r * r + r1 * r1)) ** 1.5
        refs.append((rho, rp, (rho * rho + 2.0 * rp * rp - chi_p) / rho))
    calls = []
    radius = ob.ConvexCurve.radius

    def counted(curve, phi, cs=None):
        calls.append(phi)
        return radius(curve, phi, cs)

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    for (curve, pt, n), ref in zip(cases, refs):
        del calls[:]
        got = radius_about(curve, pt, thetas)
        assert len(calls) == n
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_radius_about_circle_matches_closed_form():
    # about p off the centre c of a circle of radius R, with w = p - c:
    # r_p(theta) = -<w, u> + sqrt(R^2 - (w x u)^2), differentiated symbolically
    sympy = pytest.importorskip("sympy")
    big_r, centre, point = 1.25, (0.25, -0.125), (0.625, 0.375)
    th = sympy.symbols("theta")
    wx, wy = point[0] - centre[0], point[1] - centre[1]
    ux, uy = sympy.cos(th), sympy.sin(th)
    r_p = -(wx * ux + wy * uy) + sympy.sqrt(big_r ** 2 - (wx * uy - wy * ux) ** 2)
    exact = [sympy.lambdify(th, sympy.diff(r_p, th, k), "mpmath") for k in range(3)]
    thetas = uniform_angles(64) + 0.1
    got = radius_about(ob.circle(big_r, origin=centre), point, thetas)
    for k in range(3):
        want = np.array([float(exact[k](float(x))) for x in thetas])
        assert np.abs(got[k] - want).max() <= 1e-13, k


def test_area_centroid(unit_circle):
    c = ob.circle(1.0, origin=(0.4, -0.2))
    assert area_centroid(c) == pytest.approx((0.4, -0.2), abs=1e-12)


def test_curve_json_round_trip(tmp_path, presets):
    for curve in presets.values():
        path = tmp_path / "c.json"
        path.write_text(json.dumps(ob.curve_to_dict(curve)))
        loaded = ob.load_curve(path)
        grid = uniform_angles(64)
        r0, _, _ = curve.radius(grid)
        r1, _, _ = loaded.radius(grid)
        assert np.abs(r0 - r1).max() == 0.0


def test_load_curve_with_origin(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"kind": "circle", "radius": 1.0, "origin": [0.3, -0.1]}')
    curve = ob.load_curve(path)
    assert curve.origin == (0.3, -0.1)
    assert curve.point(0.0) == pytest.approx((1.3, -0.1), abs=1e-15)


def test_load_curve_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ob.InvalidCurveError):
        ob.load_curve(bad)
    bad.write_text('{"kind": "polygon"}')
    with pytest.raises(ob.InvalidCurveError):
        ob.load_curve(bad)
    bad.write_text('{"kind": "circle"}')
    with pytest.raises(ob.InvalidCurveError):
        ob.load_curve(bad)
    # harmonic index starts at 1: cos=[0,0,0.05] is a pure 3rd harmonic
    good = tmp_path / "good.json"
    good.write_text('{"kind":"fourier","a0":1.0,"cos":[0,0,0.05],"sin":[]}')
    curve = ob.load_curve(good)
    assert float(curve.radius(0.0)[2]) == pytest.approx(-0.45, abs=1e-15)


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "radius": "2"},
    {"kind": "circle", "radius": True},
    {"kind": "circle", "radius": None},
    {"kind": "circle", "radius": [1.0]},
    {"kind": "ellipse", "a": 2.0, "b": False},
    {"kind": "fourier", "a0": "1", "cos": [0.0, 0.0, 0.05]},
    {"kind": "fourier", "a0": 1.0, "cos": "000"},
    {"kind": "fourier", "a0": 1.0, "cos": [0.0, True]},
    {"kind": "fourier", "a0": 1.0, "sin": [[0.05]]},
    {"kind": "fourier", "a0": 1.0, "cos": {"3": 0.05}},
    {"kind": "circle", "radius": 1.0, "origin": "12"},
    {"kind": "circle", "radius": 1.0, "origin": [True, 0.0]},
    {"kind": "circle", "radius": 1.0, "origin": {"x": 0, "y": 0}},
    {"kind": "circle", "radius": 10 ** 400},
])
def test_curve_from_dict_takes_only_json_numbers(spec):
    with pytest.raises(ob.InvalidCurveError):
        ob.curve_from_dict(spec)


def test_curve_from_dict_reads_ints_and_floats():
    curve = ob.curve_from_dict({"kind": "circle", "radius": 2, "origin": [1, -0.5]})
    assert ob.curve_to_dict(curve) == {"kind": "circle", "radius": 2.0, "origin": [1.0, -0.5]}
    curve = ob.curve_from_dict({"kind": "fourier", "a0": 1, "cos": []})
    assert ob.curve_to_dict(curve) == {"kind": "fourier", "a0": 1.0, "cos": [], "sin": []}


def test_scalar_and_vector_radius_agree(presets, fourier8, fourier8_refit):
    # the scalar hot path repeats radius's arithmetic on one (cos, sin) pair
    curves = dict(presets, fourier8=fourier8, fourier8_refit=fourier8_refit)
    phi = np.random.default_rng(17).uniform(-TWO_PI, 2 * TWO_PI, 4096)
    for name, curve in curves.items():
        vector = curve.radius(phi)
        worst = max(abs(got - float(want[i]))
                    for i, p in enumerate(phi)
                    for got, want in zip(curve.radius_scalar(float(p)), vector))
        assert worst <= 4e-15, (name, worst)


def test_radius_is_elementwise(presets, fourier8):
    # a lane's value may not depend on the other lanes of the call, and a
    # passed (cos, sin) pair gives the same bits as computing it inside
    curves = dict(presets, fourier8=fourier8)
    rng = np.random.default_rng(11)
    phi = rng.uniform(-TWO_PI, 2 * TWO_PI, 1000)
    pick = rng.permutation(phi.size)[:137]
    for name, curve in curves.items():
        full = curve.radius(phi)
        part = curve.radius(phi[pick])
        given = curve.radius(phi, cs=(np.cos(phi), np.sin(phi)))
        for f, p, g in zip(full, part, given):
            assert np.array_equal(f[pick], p), name
            assert np.array_equal(f, g), name


def test_fourier_radius_matches_mpmath(fourier8, fourier8_refit):
    # the seeded curve and its refit about the Santalo point, both radius paths
    mp = pytest.importorskip("mpmath").mp
    assert len(fourier8_refit.cos_coeffs) > 30
    phi = np.random.default_rng(13).uniform(0.0, TWO_PI, 200)
    worst = 0.0
    with mp.workdps(40):
        for c in (fourier8, fourier8_refit):
            r, r1, r2 = c.radius(phi)
            for i, p in enumerate(phi):
                scalar = c.radius_scalar(float(p))
                p = mp.mpf(float(p))
                ref = [mp.mpf(c.a0), mp.mpf(0), mp.mpf(0)]
                for k, (a, b) in enumerate(zip(c.cos_coeffs, c.sin_coeffs), 1):
                    ck, sk = mp.cos(k * p), mp.sin(k * p)
                    ref[0] += a * ck + b * sk
                    ref[1] += k * (b * ck - a * sk)
                    ref[2] -= k * k * (a * ck + b * sk)
                for got, got_scalar, want in zip((r[i], r1[i], r2[i]), scalar, ref):
                    worst = max(worst, abs(float(got) - want), abs(got_scalar - want))
    assert worst < 4e-15



def test_radius_without_r_second_keeps_the_bits_of_r_and_r_prime(presets, fourier8):
    # the chord step's bisections ask for (r, r') only; they must be the full
    # call's bits, signed zeros included, on arrays, on float angles and on
    # _radial's plain-float path
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    curves = dict(presets, fourier8=fourier8, ellipse10=ob.ellipse(10.0, 1.0))
    phi = np.concatenate([np.random.default_rng(37).uniform(-TWO_PI, 2 * TWO_PI, 4096),
                          np.arange(-8, 9) * (math.pi / 4)])
    for name, curve in curves.items():
        part, full = curve.radius(phi, second=False), curve.radius(phi)
        assert len(part) == 2, name
        for got, want in zip(part, full):
            assert np.array_equal(bits(got), bits(want)), name
        for p in phi[::16].tolist():
            part, full = curve.radius(p, second=False), curve.radius(p)
            assert len(part) == 2 and [bits(v) for v in part] == [bits(v) for v in full[:2]]
            if curve.kind != "circle":
                part = curve._radial(math.cos(p), math.sin(p), math.sqrt, False)
                assert [bits(v) for v in part] == [bits(v) for v in curve.radius_scalar(p)[:2]]


def test_radius_scalar_is_radius_on_math_trig_bitwise(presets, fourier8, fourier8_refit):
    # one body serves both entry points: same bits, signed zeros included
    curves = dict(presets, fourier8=fourier8, fourier8_refit=fourier8_refit,
                  ellipse51_off=ob.ellipse(5.0, 1.0, origin=(0.3, -0.2)),
                  a0_only=ob.fourier(1.3),
                  sin_only=ob.fourier(1.0, sin=[0.1, 0.0, 0.02]))
    phi = np.random.default_rng(29).uniform(-TWO_PI, 2 * TWO_PI, 4096)
    c = np.array([math.cos(p) for p in phi.tolist()])
    s = np.array([math.sin(p) for p in phi.tolist()])
    for name, curve in curves.items():
        vector = curve.radius(phi, cs=(c, s))
        scalar = [curve.radius_scalar(p) for p in phi.tolist()]
        for j, want in enumerate(vector):
            got = np.array([t[j] for t in scalar], dtype=float)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, j)
