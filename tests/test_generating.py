import io
import math

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics, generating
from outerbilliard.quadrature import TWO_PI

PI = math.pi


def _random_chords(rng, n, t_lo=0.05, t_hi=3.0):
    return rng.uniform(0, TWO_PI, n), rng.uniform(t_lo, t_hi, n)


def test_chord_to_angles_circle(unit_circle):
    phi0, phi1, r0sq, r1sq = ob.chord_to_angles(unit_circle, 0.0, 1.0)
    assert phi0 == pytest.approx(-PI / 4, abs=1e-15)
    assert phi1 == pytest.approx(PI / 4, abs=1e-15)
    assert r0sq == pytest.approx(2.0, abs=1e-15)
    assert r1sq == pytest.approx(2.0, abs=1e-15)


def test_chord_to_angles_fourier(wobbly3):
    # r(0) = 1.05, r'(0) = 0: same arctangents as the circle, radii scaled
    phi0, phi1, r0sq, r1sq = ob.chord_to_angles(wobbly3, 0.0, 1.0)
    assert phi0 == pytest.approx(-PI / 4, abs=1e-15)
    assert phi1 == pytest.approx(PI / 4, abs=1e-15)
    assert r0sq == pytest.approx(2.205, abs=1e-14)
    assert r1sq == pytest.approx(2.205, abs=1e-14)


def test_chord_to_angles_degenerate_limit(presets):
    for curve in presets.values():
        for phi in (0.0, 1.3, 4.4):
            phi0, phi1, r0sq, r1sq = ob.chord_to_angles(curve, phi, 1e-9)
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
    phi0, phi1, _, _ = ob.chord_to_angles(ellipse21, phi, t)
    assert phi - phi0 > PI / 2              # offset beyond the principal branch
    back_phi, back_t = ob.angles_to_chord(ellipse21, phi0, phi1)
    assert back_phi == pytest.approx(phi, abs=1e-10)
    assert back_t == pytest.approx(t, rel=1e-10)


def test_angles_to_chord_circle(unit_circle):
    phi, t = ob.angles_to_chord(unit_circle, -PI / 4, PI / 4)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_angles_to_chord_rejects_bad_pairs(unit_circle):
    with pytest.raises(ValueError):
        ob.angles_to_chord(unit_circle, 1.0, 1.0)
    with pytest.raises(ValueError):
        ob.angles_to_chord(unit_circle, 0.0, 3.5)


def test_angles_to_chord_reports_nonconvergence(monkeypatch, ellipse21):
    monkeypatch.setattr(generating, "CHART_MAX_ITER", 2)
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
    monkeypatch.setattr(generating, "CHART_MAX_ITER", 2)
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


@pytest.mark.parametrize("a", [5.0, 10.0])
def test_chart_round_trip_on_eccentric_ellipses(a):
    # from the mid-ray start a full Newton step can overshoot the tangency
    # angle on these ellipses and diverge; CHART_PHI_STEP bounds it
    curve = ob.require_valid(ob.ellipse(a, 1.0))
    rng = np.random.default_rng(3)
    phi, t = _random_chords(rng, 2000, 0.01, 20.0)
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    assert np.abs(rphi - phi).max() < 1e-10
    assert np.abs(rt / t - 1.0).max() < 1e-10


def test_angles_to_chord_residual(ellipse21):
    phi0, phi1, _, _ = ob.chord_to_angles(ellipse21, *ob.angles_to_chord(ellipse21, -0.3, 0.4))
    assert phi0 == pytest.approx(-0.3, abs=1e-12)
    assert phi1 == pytest.approx(0.4, abs=1e-12)


def test_angles_to_chord_round_trips_through_chord_to_angles(fourier8):
    rng = np.random.default_rng(43)
    phi0 = rng.uniform(0.0, TWO_PI, 8)
    gap = rng.uniform(0.2, 2.8, 8)
    for a0, a1 in zip(phi0, phi0 + gap):
        chord = ob.angles_to_chord(fourier8, a0, a1)
        assert all(type(v) is float for v in chord)
        back = ob.chord_to_angles(fourier8, *chord)
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
                                                     guess=(phi, t))
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
    p1, phi1 = ob.forward_map_via_s(unit_circle, 1.0, -PI / 4)
    assert p1 == pytest.approx(1.0, abs=1e-11)
    assert phi1 == pytest.approx(PI / 4, abs=1e-11)


def test_forward_map_via_s_rejects_interior(unit_circle):
    with pytest.raises(ob.InsideCurveError):
        ob.forward_map_via_s(unit_circle, 0.4, 0.0)


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
    p1, phi1 = ob.forward_map_via_s(ellipse21, 8.0, 0.0)
    assert p1 == pytest.approx(q.p, rel=1e-10)
    assert phi1 == pytest.approx(q.phi, abs=1e-10)


def _exterior_lanes(curve, lo, hi, n=100, seed=61):
    """(p0, phi0) of n seeded points with rho/r(phi) - 1 in [lo, hi]."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(lo, hi, n))
    return 0.5 * rho * rho, phi


@pytest.mark.parametrize("name, most", [("unit_circle", 8), ("wobbly3", 8),
                                        ("fourier8", 8), ("ellipse21", 16)])
def test_forward_map_chart_inversions_per_map(monkeypatch, request, name, most):
    # one warm-started chart inversion per Newton step on phi1
    curve = request.getfixturevalue(name)
    calls = []
    invert = generating._chord_from_angles_arrays

    def counted(*args, **kwargs):
        calls.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(generating, "_chord_from_angles_arrays", counted)
    generating.forward_map_batch(curve, *_exterior_lanes(curve, 0.15, 1.5))
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("band", [(1e-3, 1e-2), (0.15, 1.5), (2.0, 50.0)])
@pytest.mark.parametrize("name", ["unit_circle", "ellipse21", "wobbly3", "fourier8", "egg"])
def test_forward_map_agrees_with_step_near_and_far(request, name, band):
    curve = request.getfixturevalue(name)
    p0, phi0 = _exterior_lanes(curve, *band)
    p1, phi1 = generating.forward_map_batch(curve, p0, phi0)
    for a, f, b, g in zip(p0, phi0, p1, phi1):
        q = ob.step(curve, ob.phase_point_polar(curve, a, f))
        assert abs(q.p - b) / max(1.0, q.p) < 1e-13
        assert abs((q.phi - g + PI) % TWO_PI - PI) < 1e-13


def test_forward_map_reports_nonconvergence(monkeypatch, ellipse21):
    monkeypatch.setattr(generating, "FMAP_MAX_ITER", 1)
    with pytest.raises(ob.ConvergenceError) as exc:
        generating.forward_map_batch(ellipse21, *_exterior_lanes(ellipse21, 0.15, 1.5))
    assert 0.0 < exc.value.residual < math.inf


def test_forward_map_does_not_call_dynamics(monkeypatch, fourier8):
    # verify checks the generating-function map against step: the two routes
    # must not share the tangency solve
    p0, phi0 = _exterior_lanes(fourier8, 0.15, 1.5, n=20)
    want = [ob.step(fourier8, ob.phase_point_polar(fourier8, p, f)) for p, f in zip(p0, phi0)]

    def forbidden(*args, **kwargs):
        raise AssertionError("forward_map_batch called into dynamics")

    for attr in ("step", "_tangency_root", "tangency", "chord_step_scalar"):
        monkeypatch.setattr(dynamics, attr, forbidden)
    p1, phi1 = generating.forward_map_batch(fourier8, p0, phi0)
    for q, a, b in zip(want, p1, phi1):
        assert abs(q.p - a) / max(1.0, q.p) < 1e-13
        assert abs((q.phi - b + PI) % TWO_PI - PI) < 1e-13


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
            s = ob.evaluate(curve, phi)
            # S12 / t -> -chi/2 as t -> 0
            assert d["S12"] / t == pytest.approx(-float(s.chi) / 2, rel=1e-4)


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
    closed_forms = generating._sderiv_arrays

    def flipped(curve, phi, t):
        d = closed_forms(curve, phi, t)
        return {**d, "S12": -d["S12"]}

    monkeypatch.setattr(generating, "_sderiv_arrays", flipped)
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


def test_csv_writers_match_per_element_formatting(monkeypatch):
    # one %-template per row over .tolist() columns gives the bytes of
    # f"{float(v):.17g}" on every element, across batch boundaries too
    monkeypatch.setattr(generating, "CSV_CHUNK", 5)
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


def test_twist_scan_is_the_derivative_tables_s12_maximum(wobbly3):
    pm, tm, d = generating.derivative_table(wobbly3, 64, 128, 5.0)
    i = int(np.argmax(d["S12"]))
    assert ob.twist_scan(wobbly3, 64, 128, 5.0) == generating.TwistScan(
        float(d["S12"][i]), float(pm[i]), float(tm[i]))
