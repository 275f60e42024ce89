import io
import math

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics, jacobi
from outerbilliard.quadrature import TWO_PI

SQRT3 = math.sqrt(3.0)


def _exterior_sample(curve, rng, n):
    phi = rng.uniform(0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(0.2, 1.5, n))
    return [ob.phase_point(curve,
                           curve.origin[0] + rho[i] * math.cos(phi[i]),
                           curve.origin[1] + rho[i] * math.sin(phi[i]))
            for i in range(n)]


def test_tangency_circle_hand_values(unit_circle):
    res = ob.tangency(unit_circle, ob.phase_point(unit_circle, 2.0, 0.0))
    assert res.phi_m == pytest.approx(math.pi / 3, abs=1e-12)
    assert res.t == pytest.approx(SQRT3, abs=1e-12)
    assert (res.point.x, res.point.y) == pytest.approx((0.5, SQRT3 / 2), abs=1e-12)
    assert not res.near_boundary


def test_step_circle(unit_circle):
    b = ob.step(unit_circle, ob.phase_point(unit_circle, 2.0, 0.0))
    assert (b.x, b.y) == pytest.approx((-1.0, SQRT3), abs=1e-12)


def test_step_cw_mirrors(unit_circle):
    b = ob.step(unit_circle, ob.phase_point(unit_circle, 2.0, 0.0), orientation="cw")
    assert (b.x, b.y) == pytest.approx((-1.0, -SQRT3), abs=1e-12)


def test_inverse_step_circle(unit_circle):
    a = ob.inverse_step(unit_circle, ob.phase_point(unit_circle, -1.0, SQRT3))
    assert (a.x, a.y) == pytest.approx((2.0, 0.0), abs=1e-12)


def test_circle_rotation_law(unit_circle):
    rng = np.random.default_rng(11)
    for p in _exterior_sample(unit_circle, rng, 20):
        q = ob.step(unit_circle, p)
        rho = math.sqrt(2.0 * p.p)
        assert math.sqrt(2.0 * q.p) == pytest.approx(rho, abs=1e-10)
        adv = (q.phi - p.phi) % TWO_PI
        assert adv == pytest.approx(2.0 * math.acos(1.0 / rho), abs=1e-10)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_midpoint_property(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(5)
    for p in _exterior_sample(curve, rng, 30):
        res = ob.tangency(curve, p)
        q = ob.step(curve, p)
        err = math.hypot(0.5 * (p.x + q.x) - res.point.x, 0.5 * (p.y + q.y) - res.point.y)
        assert err < 1e-10 * curve.diameter


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_inverse_round_trip(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(13)
    for p in _exterior_sample(curve, rng, 30):
        q = ob.step(curve, p)
        back = ob.inverse_step(curve, q)
        assert math.hypot(back.x - p.x, back.y - p.y) < 1e-10
        fwd = ob.step(curve, ob.inverse_step(curve, p))
        assert math.hypot(fwd.x - p.x, fwd.y - p.y) < 1e-10


def test_orbit_three_periodic(unit_circle):
    pts = ob.orbit(unit_circle, ob.phase_point(unit_circle, 2.0, 0.0), 3)
    assert len(pts) == 4
    assert (pts[3].x, pts[3].y) == pytest.approx((2.0, 0.0), abs=1e-10)
    assert (pts[1].x, pts[1].y) == pytest.approx((-1.0, SQRT3), abs=1e-10)
    assert (pts[2].x, pts[2].y) == pytest.approx((-1.0, -SQRT3), abs=1e-10)


def test_orbit_zero_steps(unit_circle):
    a = ob.phase_point(unit_circle, 2.0, 0.0)
    assert ob.orbit(unit_circle, a, 0) == [a]


def test_ellipse_foliation(ellipse21):
    pts = ob.orbit(ellipse21, ob.phase_point(ellipse21, 4.0, 0.0), 50)
    for p in pts:
        q = p.x**2 / 16.0 + p.y**2 / 4.0
        assert q == pytest.approx(1.0, abs=1e-10)


def test_inverse_preserves_foliation(ellipse21):
    a = ob.inverse_step(ellipse21, ob.phase_point(ellipse21, 4.0, 0.0))
    assert a.x**2 / 16.0 + a.y**2 / 4.0 == pytest.approx(1.0, abs=1e-10)


def test_phase_point_rejects_interior(presets):
    for curve in presets.values():
        with pytest.raises(ob.InsideCurveError):
            ob.phase_point(curve, curve.origin[0] + 0.1, curve.origin[1])


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_symplecticity(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(17)
    for p in _exterior_sample(curve, rng, 25):
        d = ob.differential_fd(curve, p)
        assert abs(np.linalg.det(d) - 1.0) < 1e-6


def test_differential_step_sizes_agree(unit_circle):
    p = ob.phase_point(unit_circle, 1.7, 0.4)
    d5 = ob.differential_fd(unit_circle, p, h=1e-5)
    d6 = ob.differential_fd(unit_circle, p, h=1e-6)
    assert np.abs(d5 - d6).max() < 1e-6


def test_circle_twist_entry(unit_circle):
    # rotation angle 2 acos(1/rho) gives d(phi_out)/dp = 2/(rho^2 sqrt(rho^2-1)),
    # which must also equal -1/S12 at the chord through the point
    p = ob.phase_point(unit_circle, 2.0, 0.3)
    d = ob.differential_fd(unit_circle, p)
    rho = math.sqrt(2.0 * p.p)
    expected = 2.0 / (rho**2 * math.sqrt(rho**2 - 1.0))
    assert d[1, 0] == pytest.approx(expected, rel=1e-5)
    phi_m, t = dynamics.chord_of(unit_circle, p)
    s12 = ob.s_derivatives(unit_circle, phi_m, t)["S12"]
    assert d[1, 0] == pytest.approx(-1.0 / s12, rel=1e-5)


def test_near_boundary_tangency(monkeypatch, unit_circle):
    # points hugging the curve still resolve, with t ~ sqrt(2 delta)
    a = ob.phase_point(unit_circle, 1.0 + 1e-9, 0.0)
    res = ob.tangency(unit_circle, a)
    assert res.t == pytest.approx(math.sqrt((1.0 + 1e-9) ** 2 - 1.0), rel=1e-4)
    assert not res.near_boundary
    monkeypatch.setattr(dynamics, "NEAR_BOUNDARY_T", 1e-3)
    assert ob.tangency(unit_circle, a).near_boundary


def test_non_finite_points_fail_loudly(unit_circle):
    with pytest.raises(ob.InsideCurveError):
        ob.phase_point(unit_circle, math.nan, 0.0)
    with pytest.raises(ob.InsideCurveError):
        ob.tangency(unit_circle, ob.PhasePoint(math.nan, 0.0, math.nan, math.nan))
    # exterior by comparison, but the tangency solve cannot give a finite chord
    with pytest.raises(ob.TangencyError):
        ob.tangency(unit_circle, ob.PhasePoint(math.inf, 0.0, math.inf, 0.0))


def test_chord_kernels_refuse_near_boundary_t(presets):
    for curve in presets.values():
        for direction in (1, -1):
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, 1e-9, direction)
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_batch(curve, np.array([0.3, 1.0]),
                                          np.array([0.5, 1e-9]), direction)
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, math.nan, direction)


def test_chord_kernels_refuse_t_below_accuracy_budget(presets, unit_circle):
    # t = 1e-7 clears the tangency near-boundary flag, but t_new would be off
    # by about 2%; from MIN_CHORD_T on, the unit circle keeps it within 1e-4
    for curve in presets.values():
        for direction in (1, -1):
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, 1e-7, direction)
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_batch(curve, np.array([0.3, 1.0]),
                                          np.array([0.5, 1e-7]), direction)
    phi = np.random.default_rng(37).uniform(0, TWO_PI, 2000)
    t = np.full_like(phi, dynamics.MIN_CHORD_T)
    for direction in (1, -1):
        _, t_new, _ = dynamics.chord_step_batch(unit_circle, phi, t, direction)
        assert np.abs(t_new / t - 1.0).max() <= 1e-4
        for p in phi.tolist():
            _, t_new = dynamics.chord_step_scalar(unit_circle, p, dynamics.MIN_CHORD_T, direction)
            assert abs(t_new / dynamics.MIN_CHORD_T - 1.0) <= 1e-4


def test_chord_step_batch_matches_scalar(presets):
    rng = np.random.default_rng(23)
    for curve in presets.values():
        phi = rng.uniform(0, TWO_PI, 16)
        t = rng.uniform(0.1, 2.5, 16)
        bp, bt, _ = dynamics.chord_step_batch(curve, phi, t, 1)
        for i in range(16):
            sp, st = dynamics.chord_step_scalar(curve, float(phi[i]), float(t[i]), 1)
            assert sp == pytest.approx(float(bp[i]), abs=1e-12)
            assert st == pytest.approx(float(bt[i]), abs=1e-12)


def test_chord_step_batch_head_reuse_is_bitwise(presets, fourier8):
    # feeding each step's radial data back as the next head skips one radius
    # call and changes no bit; the radial data is radius at the new angle
    rng = np.random.default_rng(29)
    curves = dict(presets, fourier8=fourier8)
    for curve in curves.values():
        phi0 = rng.uniform(0, TWO_PI, 64)
        t0 = rng.uniform(0.01, 3.0, 64)
        for direction in (1, -1):
            phi, t, head = phi0, t0, None
            phi_ref, t_ref = phi0, t0
            for _ in range(5):
                phi, t, head = dynamics.chord_step_batch(curve, phi, t, direction, head=head)
                phi_ref, t_ref, _ = dynamics.chord_step_batch(curve, phi_ref, t_ref, direction)
                assert np.array_equal(phi, phi_ref) and np.array_equal(t, t_ref)
                assert np.array_equal(head[0], np.cos(phi))
                assert np.array_equal(head[1], np.sin(phi))
                for got, want in zip(head[2:], curve.radius(phi)):
                    assert np.array_equal(got, want)


def _chord_step_batch_trig(curve, phi_m, t, direction):
    """chord_step_batch with np.cos/np.sin at every bisection midpoint, as
    it was before the bisections carried (cos, sin) by angle addition."""
    c, s = np.cos(phi_m), np.sin(phi_m)
    r, r1, _ = curve.radius(phi_m, cs=(c, s))
    bx = r * c + direction * t * (r1 * c - r * s)
    by = r * s + direction * t * (r1 * s + r * c)
    phi_b = np.arctan2(by, bx)
    off = np.arctan2(t * r, r + direction * t * r1)
    if direction > 0:
        lo, hi, sign_lo = phi_b.copy(), phi_b + np.pi, -1.0
    else:
        lo, hi, sign_lo = phi_b - np.pi, phi_b.copy(), 1.0
    for _ in range(dynamics.N_BISECT):
        mid = 0.5 * (lo + hi)
        cm, sm = np.cos(mid), np.sin(mid)
        r, r1, _ = curve.radius(mid, cs=(cm, sm))
        g = (r1 * cm - r * sm) * (by - r * sm) - (r1 * sm + r * cm) * (bx - r * cm)
        take_lo = g * sign_lo > 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    psi = phi_b + direction * off
    psi = np.where((lo < psi) & (psi < hi), psi, 0.5 * (lo + hi))
    for _ in range(dynamics.N_NEWTON):
        cm, sm = np.cos(psi), np.sin(psi)
        r, r1, r2 = curve.radius(psi, cs=(cm, sm))
        gx, gy = r * cm, r * sm
        tx, ty = r1 * cm - r * sm, r1 * sm + r * cm
        g = tx * (by - gy) - ty * (bx - gx)
        gp = ((r2 - r) * cm - 2.0 * r1 * sm) * (by - gy) - ((r2 - r) * sm + 2.0 * r1 * cm) * (bx - gx)
        take_lo = g * sign_lo > 0.0
        lo = np.where(take_lo, psi, lo)
        hi = np.where(take_lo, hi, psi)
        den = gp - g / (psi - phi_b + direction * off)
        psi = np.clip(psi - g / np.where(g == 0.0, 1.0, den), lo, hi)
    cm, sm = np.cos(psi), np.sin(psi)
    r, r1, r2 = curve.radius(psi, cs=(cm, sm))
    t_new = np.hypot(bx - r * cm, by - r * sm) / np.hypot(r1 * cm - r * sm, r1 * sm + r * cm)
    return psi, t_new, (cm, sm, r, r1, r2)


def test_chord_step_batch_bisections_match_trig_reference(presets, fourier8):
    # the bisections' angle-addition (cos, sin) differs from np.cos/np.sin in
    # the last bits, but on these 163840 lanes every sign decision, and so
    # every output bit, matches
    rng = np.random.default_rng(31)
    curves = dict(presets, fourier8=fourier8, ellipse10=ob.require_valid(ob.ellipse(10.0, 1.0)))
    for curve in curves.values():
        for direction in (1, -1):
            phi = rng.uniform(0, TWO_PI, 16384)
            t = np.exp(rng.uniform(math.log(dynamics.MIN_CHORD_T), math.log(30.0), phi.size))
            psi, t_new, radial = dynamics.chord_step_batch(curve, phi, t, direction)
            psi_ref, t_ref, radial_ref = _chord_step_batch_trig(curve, phi, t, direction)
            assert np.array_equal(psi, psi_ref) and np.array_equal(t_new, t_ref)
            for got, want in zip(radial, radial_ref):
                assert np.array_equal(got, want)


def test_chord_step_batch_trig_calls(monkeypatch, wobbly3):
    # with a head, np.cos runs only at the N_NEWTON Newton iterates and the
    # final angle: 5 calls per step, where a cos per bisection made 13
    phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    t = np.full_like(phi, 0.5)
    head = (np.cos(phi), np.sin(phi)) + wobbly3.radius(phi)
    calls = []
    cos = np.cos

    def counted(x, *args, **kwargs):
        calls.append(x)
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    for direction in (1, -1):
        del calls[:]
        dynamics.chord_step_batch(wobbly3, phi, t, direction, head=head)
        assert len(calls) == dynamics.N_NEWTON + 1


def test_ellipse_orbit_is_an_exact_rotation_near_the_curve(ellipse21):
    # scaled to a unit circle, each step turns the point at radius rho by
    # exactly 2 acos(1/rho); at t = 1e-3 the tangency polish must not stop
    # on a small residual, since g' = O(t) there
    for phi0 in (0.0, 0.7):
        pts = ob.orbit(ellipse21, dynamics.chord_tail_point(ellipse21, phi0, 1e-3), 500)
        for p, q in zip(pts, pts[1:]):
            x0, y0, x1, y1 = p.x / 2.0, p.y, q.x / 2.0, q.y
            turn = (math.atan2(y1, x1) - math.atan2(y0, x0)) % TWO_PI
            assert abs(turn - 2.0 * math.acos(1.0 / math.hypot(x0, y0))) < 1e-10


def test_chord_step_round_trip(presets):
    rng = np.random.default_rng(29)
    for curve in presets.values():
        for _ in range(10):
            phi, t = float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.1, 2.0))
            fp, ft = dynamics.chord_step_scalar(curve, phi, t, 1)
            bp, bt = dynamics.chord_step_scalar(curve, fp, ft, -1)
            wrap = (bp - phi + math.pi) % TWO_PI - math.pi
            assert wrap == pytest.approx(0.0, abs=1e-11)
            assert bt == pytest.approx(t, abs=1e-11)


def test_chord_matches_step(presets):
    # stepping the chord chart must track the point map: the next chord's tail
    # is T(A)
    rng = np.random.default_rng(31)
    for curve in presets.values():
        for p in _exterior_sample(curve, rng, 5):
            phi0, t0 = dynamics.chord_of(curve, p)
            q = ob.step(curve, p)
            phi1, t1 = dynamics.chord_of(curve, q)
            phi1_b, t1_b = dynamics.chord_step_scalar(curve, phi0, t0, 1)
            assert phi1_b == pytest.approx(phi1, abs=1e-10)
            assert t1_b == pytest.approx(t1, abs=1e-10)


def test_orbit_csv_format(unit_circle):
    pts = ob.orbit(unit_circle, ob.phase_point(unit_circle, 2.0, 0.0), 2)
    buf = io.StringIO()
    ob.write_orbit_csv(buf, pts, ["note=ok"])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,x,y,p,phi"
    assert lines[-1] == "# note=ok"
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == pts[0].x
    assert float(row[3]) == pts[0].p


def _count_radius_scalar(monkeypatch, calls, replace=None):
    """Wrap ConvexCurve.radius_scalar: append each angle to calls, and return
    replace(curve, phi, k) for the k-th call when it is given."""
    inner = ob.ConvexCurve.radius_scalar

    def counted(curve, phi):
        calls.append(phi)
        if replace is None:
            return inner(curve, phi)
        return replace(curve, phi, len(calls))
    monkeypatch.setattr(ob.ConvexCurve, "radius_scalar", counted)


def test_step_radius_scalar_budget(monkeypatch, presets):
    # the point map's cost per step: 1 call for the exterior check, the
    # tangency solve, 1 for the image's exterior check.  Measured 4.4 at
    # t = 1e-3, where the second-order start sits next to the root (17 from
    # the half-turn midpoint), and 6.4-8.4 at t in [0.1, 3]
    per_t = {t: [(curve, dynamics.chord_tail_point(curve, phi, t))
                 for curve in presets.values()
                 for phi in np.linspace(0.0, TWO_PI, 12, endpoint=False)]
             for t in (1e-3, 0.1, 1.0, 3.0)}
    calls = []
    _count_radius_scalar(monkeypatch, calls)
    counts = {}
    for t, seeds in per_t.items():
        before = len(calls)
        for curve, a in seeds:
            ob.step(curve, a)
        counts[t] = (len(calls) - before) / len(seeds)
    assert sum(counts.values()) / len(counts) <= 12, counts
    assert counts[1e-3] <= 6, counts


CHORD_T = (1e-3, 0.02, 0.3, 1.0, 3.0)


def test_chord_step_scalar_radius_scalar_budget(monkeypatch, presets):
    # the tangency solve from the chord head stops once converged: measured
    # 4.0-8.9 calls per step on the presets, 4.0-5.0 at t = 1e-3, counting
    # the head, where the fixed 8 + 4 schedule took 14; a head passed in
    # saves exactly that one call
    rng = np.random.default_rng(41)
    steps = [(curve, float(phi), t, d) for t in CHORD_T for curve in presets.values()
             for phi in rng.uniform(0.0, TWO_PI, 20) for d in (1, -1)]
    heads = [curve.radius_scalar(phi) for curve, phi, _, _ in steps]
    calls = []
    _count_radius_scalar(monkeypatch, calls)
    counts = {t: [] for t in CHORD_T}
    for (curve, phi, t, d), head in zip(steps, heads):
        before = len(calls)
        dynamics.chord_step_scalar(curve, phi, t, d)
        mid = len(calls)
        dynamics.chord_step_scalar(curve, phi, t, d, head=head)
        assert len(calls) - mid == mid - before - 1
        counts[t].append(mid - before)
    mean = {t: sum(c) / len(c) for t, c in counts.items()}
    assert max(mean.values()) <= 9, mean
    assert mean[1e-3] <= 6, mean


def test_radial_conjugate_scan_radius_scalar_budget(monkeypatch, presets):
    # one radius_scalar call per chord besides its tangency solve: measured
    # 5.0-6.5 per step from t = 0.02, against 15 on the 8 + 4 schedule
    curves = dict(presets, ellipse51=ob.require_valid(ob.ellipse(5.0, 1.0)))
    seeds = {name: dynamics.chord_tail_point(curve, 0.4, 0.02) for name, curve in curves.items()}
    steps = []
    chord_step = jacobi.chord_step_scalar

    def counted_step(*args, **kwargs):
        steps.append(args[1])
        return chord_step(*args, **kwargs)

    monkeypatch.setattr(jacobi, "chord_step_scalar", counted_step)
    calls = []
    _count_radius_scalar(monkeypatch, calls)
    per_step = {}
    for name, curve in curves.items():
        calls.clear()
        steps.clear()
        assert ob.radial_conjugate_scan(curve, seeds[name], 1000) is None
        assert len(steps) == 999
        per_step[name] = len(calls) / len(steps)
    assert max(per_step.values()) <= 7.5, per_step


def test_chord_step_scalar_head_is_bitwise(presets, fourier8):
    rng = np.random.default_rng(43)
    for curve in dict(presets, fourier8=fourier8).values():
        phis = rng.uniform(0.0, TWO_PI, 16)
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 16))
        for phi, t in zip(phis.tolist(), ts.tolist()):
            head = curve.radius_scalar(phi)
            for d in (1, -1):
                assert (dynamics.chord_step_scalar(curve, phi, t, d, head=head)
                        == dynamics.chord_step_scalar(curve, phi, t, d))


def test_tangency_falls_back_to_the_half_turn_midpoint(monkeypatch, unit_circle):
    # far points, and a point over the flat side of a 5:1 ellipse (chi = 0.04
    # there), put the second-order start outside the half-turn; the solve
    # then starts at its midpoint and still meets the exact tangency
    flat = ob.require_valid(ob.ellipse(5.0, 1.0))
    cases = []
    for phi in (0.0, 1.0, 4.0):      # t = 1e3 on the circle: tangency at phi
        a = dynamics.chord_tail_point(unit_circle, phi, 1e3)
        cases.append((unit_circle, a, (math.cos(phi), math.sin(phi))))
    cases.append((flat, dynamics.chord_tail_point(flat, 0.0, 1e3), (5.0, 0.0)))
    # (0, 1.5) maps to itself in the unit-circle frame x / 5, y: tangency at
    # pi/2 + acos(2/3) there
    theta = 0.5 * math.pi + math.acos(2.0 / 3.0)
    cases.append((flat, ob.phase_point(flat, 0.0, 1.5), (5.0 * math.cos(theta), math.sin(theta))))
    for curve, a, want in cases:
        calls = []
        with monkeypatch.context() as m:
            _count_radius_scalar(m, calls)
            res = ob.tangency(curve, a)
        assert calls[1] == pytest.approx(a.phi + 0.5 * math.pi, abs=1e-15)
        assert math.hypot(res.point.x - want[0], res.point.y - want[1]) < 1e-12


def test_tangency_without_a_converging_root_raises(monkeypatch, unit_circle):
    # after the exterior check the curve swells to radius 3 around the point
    # at distance 2: g keeps one sign on the whole half-turn, the bracket
    # never closes on a root, and the solve must give up loudly
    a = ob.phase_point(unit_circle, 2.0, 0.0)
    calls = []
    _count_radius_scalar(monkeypatch, calls,
                         lambda curve, phi, k: (1.0, 0.0, 0.0) if k == 1 else (3.0, 0.0, 0.0))
    with pytest.raises(ob.TangencyError, match="did not converge"):
        ob.tangency(unit_circle, a)
    assert len(calls) == 1 + dynamics.TANGENCY_MAX_EVALS


def test_ellipse_orbit_phase_drift_over_1000_steps(ellipse21):
    # near the curve a one-sided error in every step's tangency angle adds up
    # along the orbit; scaled to a unit circle the orbit is an exact rotation
    # by 2 acos(1/rho) per step
    for phi0 in (0.0, 0.7, 1.3, 2.9):
        a = dynamics.chord_tail_point(ellipse21, phi0, 1e-3)
        z0 = complex(a.x / 2.0, a.y)
        last = ob.orbit(ellipse21, a, 1000)[-1]
        z = complex(last.x / 2.0, last.y)
        turn = math.atan2(z.imag, z.real) - math.atan2(z0.imag, z0.real)
        assert abs(math.remainder(turn - 2000.0 * math.acos(1.0 / abs(z0)), TWO_PI)) < 2e-8


def test_phase_point_fields_and_exterior_check(presets, fourier8):
    # one exterior check serves phase_point and the tangency solve; the
    # fields are the polar data of the origin-relative point
    for curve in (*presets.values(), fourier8):
        ox, oy = curve.origin
        for x, y in ((ox + 2.5, oy - 1.0), (ox - 0.7, oy + 3.1)):
            dx, dy = x - ox, y - oy
            rho = math.hypot(dx, dy)
            assert ob.phase_point(curve, x, y) == ob.PhasePoint(x, y, 0.5 * rho * rho,
                                                                 math.atan2(dy, dx))
        with pytest.raises(ob.InsideCurveError) as info:
            ob.phase_point(curve, ox + 0.1, oy)
        assert "\n" not in str(info.value)
