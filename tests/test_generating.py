import io
import math
from fractions import Fraction

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import curves, dynamics, generating
from outerbilliard.curves import chi
from outerbilliard.quadrature import TWO_PI, uniform_angles

from oracles import polar_point, write_derivative_csv_per_row

PI = math.pi
TABLE_CURVES = ["unit_circle", "ellipse21", "wobbly3", "fourier8", "fourier8_off_centre"]


def _random_chords(rng, n, t_lo=0.05, t_hi=3.0):
    return rng.uniform(0, TWO_PI, n), rng.uniform(t_lo, t_hi, n)


def test_chord_to_angles_circle(unit_circle):
    phi0, phi1, r0sq, r1sq = generating._angles_arrays(unit_circle, 0.0, 1.0)
    assert phi0 == pytest.approx(-PI / 4, abs=1e-15)
    assert phi1 == pytest.approx(PI / 4, abs=1e-15)
    assert r0sq == pytest.approx(2.0, abs=1e-15)
    assert r1sq == pytest.approx(2.0, abs=1e-15)


def test_chord_to_angles_fourier(wobbly3):
    # r(0) = 1.05, r'(0) = 0: same arctangents as the circle, radii scaled
    phi0, phi1, r0sq, r1sq = generating._angles_arrays(wobbly3, 0.0, 1.0)
    assert phi0 == pytest.approx(-PI / 4, abs=1e-15)
    assert phi1 == pytest.approx(PI / 4, abs=1e-15)
    assert r0sq == pytest.approx(2.205, abs=1e-14)
    assert r1sq == pytest.approx(2.205, abs=1e-14)


def test_chord_to_angles_degenerate_limit(presets):
    for curve in presets.values():
        for phi in (0.0, 1.3, 4.4):
            phi0, phi1, r0sq, r1sq = generating._angles_arrays(curve, phi, 1e-9)
            r, _, _ = curve.radius_scalar(phi)
            assert phi0 == pytest.approx(phi, abs=2e-9)
            assert phi1 == pytest.approx(phi, abs=2e-9)
            assert r0sq == pytest.approx(r * r, rel=1e-8)
            assert r1sq == pytest.approx(r * r, rel=1e-8)


def test_angle_gap_stays_below_half_turn(presets):
    rng = np.random.default_rng(2)
    for curve in presets.values():
        phi, t = _random_chords(rng, 400, 0.01, 50.0)
        a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
        gap = a1 - a0
        assert gap.min() > 0.0
        assert gap.max() < PI


def test_arctan_branch_past_half_turn(ellipse21):
    # pick a chord with r - t r' < 0 so the naive principal branch would fail
    phi = 2.0
    r, rp, _ = ellipse21.radius_scalar(phi)
    assert rp > 0
    t = 1.5 * r / rp
    phi0, phi1, _, _ = generating._angles_arrays(ellipse21, phi, t)
    assert phi - phi0 > PI / 2              # offset beyond the principal branch
    back_phi, back_t = generating._chord_from_angles_arrays(ellipse21, phi0, phi1)
    assert back_phi == pytest.approx(phi, abs=1e-10)
    assert back_t == pytest.approx(t, rel=1e-10)


def test_angles_to_chord_circle(unit_circle):
    phi, t = generating._chord_from_angles_arrays(unit_circle, -PI / 4, PI / 4)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_angles_to_chord_rejects_bad_pairs(unit_circle):
    with pytest.raises(ValueError):
        generating._chord_from_angles_arrays(unit_circle, 1.0, 1.0)
    with pytest.raises(ValueError):
        generating._chord_from_angles_arrays(unit_circle, 0.0, 3.5)
    # a NaN angle fails the gap check at once, not after 50 Newton iterations
    for pair in ((0.1, math.nan), (math.nan, 0.1)):
        with pytest.raises(ValueError, match="angle pair"):
            generating._chord_from_angles_arrays(unit_circle, *pair)


def test_s_derivatives_rejects_a_nan_chord(wobbly3):
    with pytest.raises(ValueError, match="must be positive"):
        ob.s_derivatives(wobbly3, 0.3, math.nan)
    with pytest.raises(ValueError, match="phi finite"):
        ob.s_derivatives(wobbly3, math.nan, 0.3)


def test_angles_to_chord_reports_nonconvergence(monkeypatch, ellipse21):
    monkeypatch.setattr(curves, "RAY_MAX_ITER", 2)
    with pytest.raises(ob.ConvergenceError) as exc:
        generating._chord_from_angles_arrays(ellipse21, -0.4, 1.9)
    assert exc.value.residual is not None
    assert exc.value.residual > 0


def test_chart_inversion_evaluates_radius_once_per_iteration(monkeypatch, ellipse21):
    calls = []
    radius = ob.ConvexCurve.radius

    def counted(curve, phi, cs=None):
        calls.append(phi)
        return radius(curve, phi, cs)

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    monkeypatch.setattr(curves, "RAY_MAX_ITER", 2)
    with pytest.raises(ob.ConvergenceError):
        generating._chord_from_angles_arrays(ellipse21, -0.4, 1.9)
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_chart_round_trip(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(41)
    phi, t = _random_chords(rng, 1000)
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    assert np.abs(rphi - phi).max() < 1e-10
    assert np.abs(rt - t).max() < 1e-10


@pytest.mark.parametrize("a", [5.0, 10.0, 20.0])
def test_chart_round_trip_on_eccentric_ellipses(a):
    curve = ob.require_valid(ob.ellipse(a, 1.0))
    rng = np.random.default_rng(3)
    phi, t = _random_chords(rng, 2000, 0.01, 20.0)
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    assert np.abs(rphi - phi).max() < 1e-10
    assert np.abs(rt / t - 1.0).max() < 1e-10


def test_chart_inversion_bisects_a_step_that_does_not_halve(ellipse21):
    # the head angle is sigmoid in d: from the mid-ray start a Newton step that
    # stays in the bracket still cycles on this chord, between d ~ 0.03 and d
    # ~ 0.98; only bisecting a step larger than half the step before last
    # (rtsafe) reaches the root
    phi, t = 3.6622699757254282, 1.1236185358545159
    phi0, phi1, _, _ = generating._angles_arrays(ellipse21, phi, t)
    back_phi, back_t = generating._chord_from_angles_arrays(ellipse21, phi0, phi1)
    assert back_phi == pytest.approx(phi, abs=1e-13)
    assert back_t == pytest.approx(t, rel=1e-13)


def test_angles_to_chord_residual(ellipse21):
    chord = generating._chord_from_angles_arrays(ellipse21, -0.3, 0.4)
    phi0, phi1, _, _ = generating._angles_arrays(ellipse21, *chord)
    assert phi0 == pytest.approx(-0.3, abs=1e-12)
    assert phi1 == pytest.approx(0.4, abs=1e-12)


def test_angles_to_chord_round_trips_through_chord_to_angles(fourier8):
    rng = np.random.default_rng(43)
    phi0 = rng.uniform(0.0, TWO_PI, 8)
    gap = rng.uniform(0.2, 2.8, 8)
    for a0, a1 in zip(phi0, phi0 + gap):
        chord = generating._chord_from_angles_arrays(fourier8, a0, a1)
        assert all(np.ndim(v) == 0 for v in chord)
        back = generating._angles_arrays(fourier8, *chord)
        assert abs(back[0] - a0) < 1e-10
        assert abs(back[1] - a1) < 1e-10


def test_s_value_circle_triangle(unit_circle):
    assert ob.s_derivatives(unit_circle, 0.0, 1.0)["S"] == pytest.approx(1.0)
    # triangle (0,0), (1,-1), (1,1) has area 1


def test_s_value_ellipse(ellipse21):
    assert ob.s_derivatives(ellipse21, 0.0, 0.5)["S"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_s_value_is_shoelace_area(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(43)
    for _ in range(100):
        phi, t = float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.05, 3.0))
        r, rp, _ = curve.radius_scalar(phi)
        c, s = math.cos(phi), math.sin(phi)
        gx, gy = r * c, r * s
        tx, ty = rp * c - r * s, rp * s + r * c
        m0 = (gx - t * tx, gy - t * ty)
        m1 = (gx + t * tx, gy + t * ty)
        shoelace = 0.5 * abs(m0[0] * m1[1] - m0[1] * m1[0])
        sv = ob.s_derivatives(curve, phi, t)["S"]
        assert sv == pytest.approx(shoelace, rel=1e-12)


def test_s_derivatives_circle_unit_chord(unit_circle):
    d = ob.s_derivatives(unit_circle, 0.0, 1.0)
    assert d["S11"] == pytest.approx(1.0, abs=1e-14)
    assert d["S22"] == pytest.approx(1.0, abs=1e-14)
    assert d["S12"] == pytest.approx(-1.0, abs=1e-14)
    assert d["J"] == pytest.approx(1.0, abs=1e-14)
    assert d["S1"] == pytest.approx(-1.0, abs=1e-14)
    assert d["S2"] == pytest.approx(1.0, abs=1e-14)
    assert d["S"] == pytest.approx(1.0, abs=1e-14)


def test_s12_circle_closed_form(unit_circle):
    # for the unit circle S(phi0, phi1) = tan((phi1-phi0)/2), so
    # S12 = -t (1 + t^2)/2 at any chord
    rng = np.random.default_rng(47)
    for t in rng.uniform(0.05, 5.0, 50):
        d = ob.s_derivatives(unit_circle, float(rng.uniform(0, TWO_PI)), float(t))
        assert d["S12"] == pytest.approx(-t * (1 + t * t) / 2, rel=1e-13)


def _symbolic_s_forms():
    """S, S1, S2, S11, S12, S22 and J = det d(phi0, phi1)/d(phi, t) derived
    with sympy from S = t r^2 through the chart phi0 = phi - atan2(t r, r -
    t r'), phi1 = phi + atan2(t r, r + t r'), on the symbols r, r', r'',
    r''' and t, where d/dphi takes each of r, r', r'' to the next.
    [S1, S2] is [S_phi, S_t] times the inverse chart Jacobian, and each
    second derivative the same of a first; S21 comes with them, to hold
    S12 to it.  r''' enters d/dphi S1 and d/dphi S2 with the coefficients
    dS1/dr'' and dS2/dr'', which are returned too: they cancel to 0, so the
    second derivatives depend on r, r', r'' alone."""
    sympy = pytest.importorskip("sympy")
    r, r1, r2, r3, t = sympy.symbols("r r1 r2 r3 t")

    def d_phi(f):
        return sympy.diff(f, r) * r1 + sympy.diff(f, r1) * r2 + sympy.diff(f, r2) * r3

    def chart_gradient(f):
        return sympy.Matrix([[d_phi(f), sympy.diff(f, t)]])

    a0, a1 = sympy.atan2(t * r, r - t * r1), sympy.atan2(t * r, r + t * r1)
    jac = sympy.Matrix([[1 - d_phi(a0), -sympy.diff(a0, t)],
                        [1 + d_phi(a1), sympy.diff(a1, t)]])
    inv = jac.inv()
    s = t * r * r
    s1, s2 = chart_gradient(s) * inv
    r3_coefficients = [sympy.cancel(sympy.diff(f, r2)) for f in (s1, s2)]
    s1, s2 = sympy.cancel(s1), sympy.cancel(s2)
    s11, s12 = chart_gradient(s1) * inv
    s21, s22 = chart_gradient(s2) * inv
    forms = {"S": s, "S1": s1, "S2": s2, "S11": s11, "S12": s12, "S21": s21, "S22": s22,
             "J": jac.det()}
    return (r, r1, r2, r3, t), forms, r3_coefficients


# (r, r', r'', t) at which the closed forms meet the derivation; chi > 0 at
# each, and the second has r - t r' = -1 < 0, past the chart's half-turn
SYMBOLIC_POINTS = [("11/10", "3/10", "-7/10", "9/10"), ("2", "3", "1", "1"),
                   ("1", "-1/5", "1/2", "1/100")]


def test_s_closed_forms_match_a_symbolic_derivation():
    sympy = pytest.importorskip("sympy")
    mp = pytest.importorskip("mpmath").mp
    symbols, forms, r3_coefficients = _symbolic_s_forms()
    assert r3_coefficients == [0, 0]
    assert not any(f.has(symbols[3]) for f in forms.values())
    exact = {k: sympy.lambdify(symbols[:3] + symbols[4:], f, "mpmath") for k, f in forms.items()}
    with mp.workdps(40):
        for point in SYMBOLIC_POINTS:
            args = [mp.mpf(q.numerator) / q.denominator for q in map(Fraction, point)]
            got = generating.s_closed_forms(*args)
            got["S21"] = got["S12"]
            for name, f in exact.items():
                want = f(*args)
                assert abs(got[name] - want) <= mp.mpf("1e-30") * abs(want), (name, point)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_chain_rule_exactness(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(53)
    phi, t = _random_chords(rng, 500, 0.02, 8.0)
    s1c, s2c = ob.chain_rule_s1_s2(curve, phi, t)
    d = generating._sderiv_arrays(curve, phi, t)
    scale = np.maximum(1.0, np.maximum(d["r0sq"], d["r1sq"]))
    assert np.max(np.abs(s1c - d["S1"]) / scale) < 1e-12
    assert np.max(np.abs(s2c - d["S2"]) / scale) < 1e-12


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_fd_cross_check_of_derivatives(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(59)
    phi, t = _random_chords(rng, 50, 0.1, 2.5)
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    d = generating._sderiv_arrays(curve, phi, t)
    h = 1e-4

    def s_at(da, db):
        p, tt = generating._chord_from_angles_arrays(curve, a0 + da, a1 + db,
                                                     start=phi)
        r, _, _ = curve.radius(p)
        return tt * r * r

    fd = {
        "S1": (s_at(h, 0) - s_at(-h, 0)) / (2 * h),
        "S2": (s_at(0, h) - s_at(0, -h)) / (2 * h),
        "S11": (s_at(h, 0) - 2 * s_at(0, 0) + s_at(-h, 0)) / h**2,
        "S22": (s_at(0, h) - 2 * s_at(0, 0) + s_at(0, -h)) / h**2,
        "S12": (s_at(h, h) - s_at(h, -h) - s_at(-h, h) + s_at(-h, -h)) / (4 * h**2),
    }
    for key, approx in fd.items():
        rel = np.abs(approx - d[key]) / np.maximum(1.0, np.abs(d[key]))
        assert rel.max() < 1e-5, key


def test_forward_map_via_s_circle(unit_circle):
    # chord t=1 through the radius-sqrt2 point: quarter-turn rotation
    (p1,), (phi1,) = ob.forward_map_batch(unit_circle, 1.0, -PI / 4)
    assert p1 == pytest.approx(1.0, abs=1e-11)
    assert phi1 == pytest.approx(PI / 4, abs=1e-11)


def test_forward_map_via_s_rejects_interior(unit_circle):
    with pytest.raises(ob.InsideCurveError):
        ob.forward_map_batch(unit_circle, 0.4, 0.0)
    # a NaN p0 is no exterior point: it fails at once, not after 50 Newton
    # iterations with a nan residual
    with pytest.raises(ob.InsideCurveError):
        ob.forward_map_batch(unit_circle, [math.nan], [0.0])


def test_forward_map_one_ulp_outside_the_circle(unit_circle):
    # 2 p0 one ulp above r^2 = 1, so rho0 rounds to r: the start must still
    # lie inside the bracket (0, pi), where Newton divides by sin d
    (p1,), (phi1,) = ob.forward_map_batch(unit_circle, [np.nextafter(0.5, 1.0)], [0.3])
    assert p1 == pytest.approx(0.5, abs=1e-15)
    assert phi1 == pytest.approx(0.3, abs=1e-7)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_forward_map_batch_rejects_a_nan_angle(presets, name):
    # the circle's radius ignores phi, so only the angle itself can fail there
    ob.forward_map_batch(presets[name], [8.0], [0.2])
    with pytest.raises(ob.InsideCurveError):
        ob.forward_map_batch(presets[name], [8.0, 8.0], [0.2, math.nan])


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_forward_map_matches_step(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(61)
    phi = rng.uniform(0, TWO_PI, 100)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(0.2, 1.5, 100))
    p0 = 0.5 * rho * rho
    p1, phi1 = generating.forward_map_batch(curve, p0, phi)
    for i in range(100):
        a = ob.phase_point(curve, curve.origin[0] + rho[i] * math.cos(phi[i]),
                           curve.origin[1] + rho[i] * math.sin(phi[i]))
        q = ob.step(curve, a)
        assert abs(q.p - p1[i]) / max(1.0, q.p) < 1e-9
        dphi = (q.phi - phi1[i] + PI) % TWO_PI - PI
        assert abs(dphi) < 1e-9


def test_forward_map_ellipse_hand_seed(ellipse21):
    q = ob.step(ellipse21, ob.phase_point(ellipse21, 4.0, 0.0))
    (p1,), (phi1,) = ob.forward_map_batch(ellipse21, 8.0, 0.0)
    assert p1 == pytest.approx(q.p, rel=1e-10)
    assert phi1 == pytest.approx(q.phi, abs=1e-10)


def _exterior_lanes(curve, lo, hi, n=100, seed=61):
    """(p0, phi0) of n seeded points with rho/r(phi) - 1 in [lo, hi]."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(lo, hi, n))
    return 0.5 * rho * rho, phi


@pytest.fixture(scope="module")
def ellipse51():
    return ob.require_valid(ob.ellipse(5.0, 1.0))


@pytest.fixture(scope="module")
def ellipse101():
    return ob.require_valid(ob.ellipse(10.0, 1.0))


@pytest.mark.parametrize("name, most", [("unit_circle", 3), ("wobbly3", 10),
                                        ("fourier8", 10), ("ellipse21", 12)])
def test_forward_map_radius_calls_per_map(monkeypatch, request, name, most):
    # one radius call for the exterior check, one per Newton step on the
    # tangency angle and one at the root; the chart is never inverted
    curve = request.getfixturevalue(name)
    lanes = _exterior_lanes(curve, 0.15, 1.5)
    calls = {"radius": 0, "chart": 0}

    def counted(key, f):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted("radius", ob.ConvexCurve.radius))
    monkeypatch.setattr(generating, "_chord_from_angles_arrays",
                        counted("chart", generating._chord_from_angles_arrays))
    generating.forward_map_batch(curve, *lanes)
    assert 3 <= calls["radius"] <= most and calls["chart"] == 0


BANDS = [(1e-3, 1e-2), (0.15, 1.5), (2.0, 50.0)]
# every band on the presets and the egg; the middle band also on eccentric
# and nearly flat curves, where r' is large or chi is small
NEAR_AND_FAR = ([(name, i) for name in ("unit_circle", "ellipse21", "wobbly3", "fourier8", "egg")
                 for i in range(len(BANDS))]
                + [(name, 1) for name in ("ellipse51", "ellipse101", "near_flat3", "near_flat5")])


@pytest.mark.parametrize("name, band", [pytest.param(name, BANDS[i], id=f"{name}-band{i}")
                                        for name, i in NEAR_AND_FAR])
def test_forward_map_agrees_with_step_near_and_far(request, name, band):
    curve = request.getfixturevalue(name)
    p0, phi0 = _exterior_lanes(curve, *band)
    p1, phi1 = generating.forward_map_batch(curve, p0, phi0)
    for a, f, b, g in zip(p0, phi0, p1, phi1):
        q = ob.step(curve, polar_point(curve, a, f))
        assert abs(q.p - b) / max(1.0, q.p) < 1e-13
        assert abs((q.phi - g + PI) % TWO_PI - PI) < 1e-13


@pytest.mark.parametrize("name", ["unit_circle", "ellipse21", "wobbly3", "ellipse51",
                                  "near_flat5"])
def test_forward_map_converges_within_rounding_of_the_curve(request, name):
    # points with rho/r - 1 in [g, 2g]: each route reads the world point of
    # (p0, phi0), whose rounding (a relative eps of rho0) the map amplifies
    # near the curve as 1/sqrt(g), the tangency angle moving like sqrt(g); so
    # the two routes agree to a multiple of eps / sqrt(g), at most 2.7e-15 /
    # sqrt(g) on these curves
    curve = request.getfixturevalue(name)
    for g in 10.0 ** -np.arange(8, 15):
        p0, phi0 = _exterior_lanes(curve, g, 2.0 * g, n=50)
        p1, phi1 = generating.forward_map_batch(curve, p0, phi0)
        for a, f, b, h in zip(p0, phi0, p1, phi1):
            q = ob.step(curve, polar_point(curve, a, f))
            assert abs(q.p - b) / max(1.0, q.p) < 1e-14 / math.sqrt(g), g
            assert abs((q.phi - h + PI) % TWO_PI - PI) < 1e-14 / math.sqrt(g), g


def test_forward_map_reports_nonconvergence(monkeypatch, ellipse21):
    monkeypatch.setattr(curves, "RAY_MAX_ITER", 1)
    with pytest.raises(ob.ConvergenceError) as exc:
        generating.forward_map_batch(ellipse21, *_exterior_lanes(ellipse21, 0.15, 1.5))
    assert 0.0 < exc.value.residual < math.inf


def test_forward_map_does_not_call_dynamics(monkeypatch, fourier8):
    # verify checks the generating-function map against step: the two routes
    # must not share the tangency solve, nor may the chart inversion that
    # shares the forward map's ray solve
    p0, phi0 = _exterior_lanes(fourier8, 0.15, 1.5, n=20)
    want = [ob.step(fourier8, polar_point(fourier8, p, f)) for p, f in zip(p0, phi0)]
    phi, t = _random_chords(np.random.default_rng(5), 20)
    a0, a1, _, _ = generating._angles_arrays(fourier8, phi, t)

    def forbidden(*args, **kwargs):
        raise AssertionError("the generating-function route called into dynamics")

    for attr in ("step", "_tangency_root", "tangency", "chord_step_scalar", "step_lanes",
                 "_tangency_root_lanes"):
        monkeypatch.setattr(dynamics, attr, forbidden)
    p1, phi1 = generating.forward_map_batch(fourier8, p0, phi0)
    for q, a, b in zip(want, p1, phi1):
        assert abs(q.p - a) / max(1.0, q.p) < 1e-13
        assert abs((q.phi - b + PI) % TWO_PI - PI) < 1e-13
    rphi, rt = generating._chord_from_angles_arrays(fourier8, a0, a1)
    assert np.abs(rphi - phi).max() < 1e-13
    assert np.abs(rt / t - 1.0).max() < 1e-13


@pytest.mark.parametrize("name", ["fourier8", "ellipse101"])
def test_a_ray_solve_lane_has_its_batch_bits_alone(request, name):
    # a converged lane freezes, so the lanes still iterating beside it cannot
    # move it: each lane solved alone has the bits it has in a 1000-lane batch
    # (2048 for the rays about a point), for all three callers of the ray solve
    curve = request.getfixturevalue(name)
    rng = np.random.default_rng(19)
    phi = rng.uniform(0.0, TWO_PI, 1000)
    t = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), phi.size))
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    p0, f0 = _exterior_lanes(curve, 1e-3, 30.0, n=1000, seed=19)
    chords = generating._chord_from_angles_arrays(curve, a0, a1)
    images = generating.forward_map_batch(curve, p0, f0)
    for i in range(phi.size):
        alone = generating._chord_from_angles_arrays(curve, a0[i:i + 1], a1[i:i + 1]) \
            + generating.forward_map_batch(curve, p0[i], f0[i])
        assert np.array_equal(np.concatenate(alone), [v[i] for v in chords + images]), i
    # and radial_about's rays from an interior point, in a 2048-angle batch
    point = {"fourier8": (0.05, -0.03), "ellipse101": (6.0, 0.3)}[name]
    thetas = uniform_angles(2048)
    rho, ray_phi, cs, radial = curves.radial_about(curve, point, thetas)
    rays = (rho, ray_phi, *cs, *radial)
    for i in range(thetas.size):
        rho, ray_phi, cs, radial = curves.radial_about(curve, point, thetas[i:i + 1])
        assert np.array_equal(np.concatenate((rho, ray_phi, *cs, *radial)),
                              [v[i] for v in rays]), i


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_twist_scan_negative(presets, name):
    scan = ob.twist_scan(presets[name], 128, 128, 20.0)
    assert scan.max_s12 < 0.0


def test_twist_scan_circle_max_location(unit_circle):
    scan = ob.twist_scan(unit_circle, 64, 64, 10.0)
    t_min = 10.0 / 64
    assert scan.t_at_max == pytest.approx(t_min)
    assert scan.max_s12 == pytest.approx(-t_min * (1 + t_min**2) / 2, rel=1e-12)


def test_twist_scan_grid_precondition(unit_circle):
    with pytest.raises(ValueError):
        ob.twist_scan(unit_circle, 32, 128, 10.0)


def test_s12_vanishes_linearly_at_zero(presets):
    for curve in presets.values():
        for phi in (0.2, 2.8):
            t = 1e-6
            d = ob.s_derivatives(curve, phi, t)
            # S12 / t -> -chi/2 as t -> 0
            assert d["S12"] / t == pytest.approx(-chi(*curve.radius_scalar(phi)) / 2, rel=1e-4)


def test_s_closed_forms_floats_match_arrays_bitwise(wobbly3, fourier8):
    # the float path (chord lines, Hopf windows) and the array path (scans,
    # i_numeric) give the same bits per chord: a square written ** 2 would
    # call pow on floats and round differently on about 1 chord in 1000
    rng = np.random.default_rng(43)
    for curve in (wobbly3, fourier8):
        phi = rng.uniform(0, TWO_PI, 100_000)
        t = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), phi.size))
        r, rp, rpp = curve.radius(phi)
        d = generating.s_closed_forms(r, rp, rpp, t)
        rows = zip(r.tolist(), rp.tolist(), rpp.tolist(), t.tolist())
        got = [generating.s_closed_forms(*row) for row in rows]
        for key, want in d.items():
            assert np.array_equal(np.array([g[key] for g in got]), want), key


def test_fault_hook_flips_twist(unit_circle, monkeypatch):
    s12 = generating._s12_arrays
    monkeypatch.setattr(generating, "_s12_arrays", lambda *args: -s12(*args))
    scan = ob.twist_scan(unit_circle, 64, 64, 10.0)
    assert scan.max_s12 > 0.0


def test_derivative_csv(unit_circle):
    pm, tm, d = generating.derivative_table(unit_circle, 64, 64, 5.0)
    buf = io.StringIO()
    generating.write_derivative_csv(buf, pm, tm, d)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "phi,t,S,S1,S2,S11,S12,S22,J"
    assert len(lines) == 64 * 64 + 1
    row = lines[1].split(",")
    assert len(row) == 9
    assert float(row[1]) == tm[0]


def test_csv_writers_match_per_element_formatting():
    # one %-template per row over .tolist() columns gives the bytes of
    # f"{float(v):.17g}" on every element; permuted columns are no grid, so
    # every row opens a phi block and none may reuse another's t strings
    vals = np.array([0.0, -0.0, 1.0, -2.5, 1e-300, -3.7e-310, 1e300, -1.7976931348623157e308,
                     math.pi, -1.0 / 3.0, 123456789.123, 2.0 ** -1074])
    rng = np.random.default_rng(41)
    cols = [rng.permutation(vals) for _ in range(9)]
    pm, tm = cols[0], cols[1]
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    d = dict(zip(names, cols[2:]))
    buf = io.StringIO()
    generating.write_derivative_csv(buf, pm, tm, d)
    want = "phi,t,S,S1,S2,S11,S12,S22,J\n" + "".join(
        ",".join(f"{float(c[i]):.17g}" for c in cols) + "\n" for i in range(vals.size))
    assert buf.getvalue() == want

    points = [ob.PhasePoint(*(float(c[i]) for c in cols[:4])) for i in range(vals.size)]
    buf = io.StringIO()
    ob.write_orbit_csv(buf, points, ["note=ok"])
    want = "n,x,y,p,phi\n" + "".join(
        f"{n:d},{p.x:.17g},{p.y:.17g},{p.p:.17g},{p.phi:.17g}\n" for n, p in enumerate(points))
    assert buf.getvalue() == want + "# note=ok\n"


def test_derivative_csv_reuses_t_strings_only_for_the_same_bits():
    # blocks of three rows share a phi; the second block's t column equals the
    # first's, the third's differs only in the sign of a zero, the fourth
    # block's phi differs from the third's only in the sign of a zero, and the
    # last returns to the first block's phi and t.  The per-row reference
    # writer reuses a block's t strings; the package's writer formats every
    # field, and both must keep the sign of every zero
    pm = np.repeat([0.5, 1.5, -0.0, 0.0, 0.5], 3)
    tm = np.concatenate([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0],
                         [-0.0, 1.0, 3.0], [0.0, 1.0, 2.0]])
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    d = {k: np.arange(pm.size) * (j + 0.25) for j, k in enumerate(names)}
    cols = [pm, tm, *(d[k] for k in names)]
    want = "phi,t,S,S1,S2,S11,S12,S22,J\n" + "".join(
        ",".join(f"{float(c[i]):.17g}" for c in cols) + "\n" for i in range(pm.size))
    for write in (generating.write_derivative_csv, write_derivative_csv_per_row):
        buf = io.StringIO()
        write(buf, pm, tm, d)
        assert buf.getvalue() == want, write.__name__


@pytest.mark.parametrize("name", TABLE_CURVES)
def test_derivative_csv_has_the_bytes_of_the_per_row_writer(request, name):
    # the array formatter against one "%" per field, on the default grid
    pm, tm, d = generating.derivative_table(request.getfixturevalue(name), 256, 256, 20.0)
    fast, per_row = io.StringIO(), io.StringIO()
    generating.write_derivative_csv(fast, pm, tm, d)
    write_derivative_csv_per_row(per_row, pm, tm, d)
    assert fast.getvalue() == per_row.getvalue()


@pytest.mark.parametrize("grid", [(64, 128, 5.0), (256, 256, 20.0)], ids=["small", "default"])
@pytest.mark.parametrize("name", TABLE_CURVES)
def test_twist_scan_is_the_derivative_tables_s12_maximum(request, name, grid):
    # twist_scan evaluates S12 alone, broadcast over its own grid: its
    # maximum must be the full table's, bit for bit and at the same node
    curve = request.getfixturevalue(name)
    pm, tm, d = generating.derivative_table(curve, *grid)
    i = int(np.argmax(d["S12"]))
    assert ob.twist_scan(curve, *grid) == generating.TwistScan(
        float(d["S12"][i]), float(pm[i]), float(tm[i]))


def test_s12_alone_and_chi_are_the_full_forms_bitwise(presets, fourier8, fourier8_off_centre):
    # S12 at every node, not only at the maximum: on random chords, and on a
    # grid broadcast as twist_scan lays it out; the bundle's chi is curves.chi
    rng = np.random.default_rng(47)
    for curve in (*presets.values(), fourier8, fourier8_off_centre):
        phi = rng.uniform(0, TWO_PI, 10_000)
        t = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), phi.size))
        radial = curve.radius(phi)
        d = generating.s_closed_forms(*radial, t)
        assert np.array_equal(d["chi"], ob.curves.chi(*radial))
        assert np.array_equal(generating._s12_arrays(*radial, t), d["S12"])
        grid = generating._s12_arrays(*(v[:100, None] for v in radial), t[:100])
        want = generating.s_closed_forms(*(np.repeat(v[:100], 100) for v in radial),
                                         np.tile(t[:100], 100))["S12"]
        assert np.array_equal(grid.ravel(), want)


def test_twist_scan_builds_no_derivative_bundle(monkeypatch, wobbly3):
    def no_bundle(*args, **kwargs):
        raise AssertionError("twist_scan needs S12 alone, not the derivative bundle")

    monkeypatch.setattr(generating, "_sderiv_arrays", no_bundle)
    assert ob.twist_scan(wobbly3, 64, 64, 5.0).max_s12 < 0.0


def test_twist_scan_and_table_share_the_overflow_error(wobbly3):
    messages = []
    for run in (ob.twist_scan, generating.derivative_table):
        with pytest.raises(ob.ConvergenceError) as exc:
            run(wobbly3, 64, 64, 1e70)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("S12 is not finite on the grid at t_max=1e+70")


def test_derivative_table_is_the_per_node_bundle_bitwise(presets, fourier8, fourier8_off_centre):
    # one radius call per grid angle, repeated over its t nodes, gives the
    # bits of the closed forms evaluated node by node
    for curve in (*presets.values(), fourier8, fourier8_off_centre):
        for phi_grid, t_grid, t_max in ((256, 256, 20.0), (64, 128, 3.0)):
            pm, tm, d = generating.derivative_table(curve, phi_grid, t_grid, t_max)
            want = generating._sderiv_arrays(curve, pm, tm)
            assert d.keys() == want.keys()
            for key in want:
                assert np.array_equal(d[key], want[key]), (curve.kind, key)


def test_twist_scan_evaluates_radius_once_per_grid_angle(monkeypatch, wobbly3):
    lanes = []
    inner = ob.ConvexCurve.radius

    def counted(curve, phi, cs=None):
        lanes.append(np.size(phi))
        return inner(curve, phi, cs)

    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    ob.twist_scan(wobbly3)
    assert lanes == [256]
