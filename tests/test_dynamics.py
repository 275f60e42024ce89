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


def test_differential_step_sizes_agree(monkeypatch, unit_circle):
    p = ob.phase_point(unit_circle, 1.7, 0.4)
    d5 = ob.differential_fd(unit_circle, p)
    monkeypatch.setattr(dynamics, "DIFFERENTIAL_FD_H", 1e-6)
    d6 = ob.differential_fd(unit_circle, p)
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


def test_near_boundary_tangency(unit_circle):
    # points hugging the curve still resolve, with t ~ sqrt(2 delta)
    a = ob.phase_point(unit_circle, 1.0 + 1e-9, 0.0)
    res = ob.tangency(unit_circle, a)
    assert res.t == pytest.approx(math.sqrt((1.0 + 1e-9) ** 2 - 1.0), rel=1e-4)


def test_non_finite_points_fail_loudly(unit_circle):
    with pytest.raises(ob.InsideCurveError):
        ob.phase_point(unit_circle, math.nan, 0.0)
    with pytest.raises(ob.InsideCurveError):
        ob.tangency(unit_circle, ob.PhasePoint(math.nan, 0.0, math.nan, math.nan))
    # exterior by comparison, but the tangency solve cannot give a finite chord
    with pytest.raises(ob.TangencyError):
        ob.tangency(unit_circle, ob.PhasePoint(math.inf, 0.0, math.inf, 0.0))


def _batch_head(curve, phi):
    """(cos, sin, r, r', r'') at phi, the head chord_step_batch takes."""
    c, s = np.cos(phi), np.sin(phi)
    return (c, s) + curve.radius(phi, cs=(c, s))


def test_chord_kernels_refuse_near_boundary_t(presets):
    phi = np.array([0.3, 1.0])
    for curve in presets.values():
        head = curve.radius_scalar(0.3)
        with pytest.raises(ob.TangencyError):
            dynamics.chord_step_batch(curve, np.array([0.5, 1e-9]), _batch_head(curve, phi))
        for direction in (1, -1):
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, 1e-9, direction, head)
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, math.nan, direction, head)


def test_chord_kernels_refuse_t_below_accuracy_budget(presets, unit_circle):
    # t = 1e-7 clears the tangency near-boundary flag, but t_new would be off
    # by about 2%; from MIN_CHORD_T on, the unit circle keeps it within 1e-4
    phi = np.array([0.3, 1.0])
    for curve in presets.values():
        head = curve.radius_scalar(0.3)
        with pytest.raises(ob.TangencyError):
            dynamics.chord_step_batch(curve, np.array([0.5, 1e-7]), _batch_head(curve, phi))
        for direction in (1, -1):
            with pytest.raises(ob.TangencyError):
                dynamics.chord_step_scalar(curve, 0.3, 1e-7, direction, head)
    phi = np.random.default_rng(37).uniform(0, TWO_PI, 2000)
    t = np.full_like(phi, dynamics.MIN_CHORD_T)
    _, t_new, _ = dynamics.chord_step_batch(unit_circle, t, _batch_head(unit_circle, phi))
    assert np.abs(t_new / t - 1.0).max() <= 1e-4
    for direction in (1, -1):
        for p in phi.tolist():
            _, t_new = dynamics.chord_step_scalar(unit_circle, p, dynamics.MIN_CHORD_T, direction,
                                                  unit_circle.radius_scalar(p))
            assert abs(t_new / dynamics.MIN_CHORD_T - 1.0) <= 1e-4


def test_chord_step_batch_matches_scalar(presets):
    rng = np.random.default_rng(23)
    for curve in presets.values():
        phi = rng.uniform(0, TWO_PI, 16)
        t = rng.uniform(0.1, 2.5, 16)
        bp, bt, _ = dynamics.chord_step_batch(curve, t, _batch_head(curve, phi))
        for i in range(16):
            p = float(phi[i])
            sp, st = dynamics.chord_step_scalar(curve, p, float(t[i]), 1, curve.radius_scalar(p))
            assert sp == pytest.approx(float(bp[i]), abs=1e-12)
            assert st == pytest.approx(float(bt[i]), abs=1e-12)


def test_chord_step_batch_head_reuse_is_bitwise(presets, fourier8):
    # the radial data a step hands back, passed in as the next step's head,
    # is (cos, sin) and radius at the new angle, bit for bit
    rng = np.random.default_rng(29)
    curves = dict(presets, fourier8=fourier8)
    for curve in curves.values():
        phi = rng.uniform(0, TWO_PI, 64)
        t = rng.uniform(0.01, 3.0, 64)
        head = _batch_head(curve, phi)
        for _ in range(5):
            phi, t, head = dynamics.chord_step_batch(curve, t, head)
            assert np.array_equal(head[0], np.cos(phi))
            assert np.array_equal(head[1], np.sin(phi))
            for got, want in zip(head[2:], curve.radius(phi)):
                assert np.array_equal(got, want)


def _chord_step_batch_trig(curve, phi_m, t):
    """chord_step_batch with np.cos/np.sin at every bisection midpoint, where
    the kernel turns (cos, sin) of the bracket's lower end by the half-width;
    every other operation is the kernel's, complex products included."""
    c, s = np.cos(phi_m), np.sin(phi_m)
    r, r1, _ = curve.radius(phi_m, cs=(c, s))
    bx = r * c + t * (r1 * c - r * s)
    by = r * s + t * (r1 * s + r * c)
    phi_b = np.arctan2(by, bx)
    off = np.arctan2(t * r, r + t * r1)
    ref = phi_b - off
    b = np.empty(phi_b.shape, complex)
    b.real, b.imag = bx, by

    def g_terms(cm, sm, r):
        """(e x B, e . B - r) from the product conj(e) B, as the kernel forms it."""
        e = np.empty_like(b)
        e.real, e.imag = cm, -sm
        p = e * b
        return p.imag, p.real - r

    lo = phi_b
    for k in range(dynamics.N_BISECT):
        mid = lo + math.pi / 2 ** (k + 1)
        cm, sm = np.cos(mid), np.sin(mid)
        r, r1, _ = curve.radius(mid, cs=(cm, sm))
        cross, d = g_terms(cm, sm, r)
        g = r1 * cross - r * d
        lo = np.where(g < 0.0, mid, lo)
    hi = lo + math.pi / 2 ** dynamics.N_BISECT
    psi = phi_b + off
    psi = np.where((lo < psi) & (psi < hi), psi, lo + math.pi / 2 ** (dynamics.N_BISECT + 1))
    for _ in range(dynamics.N_NEWTON):
        cm, sm = np.cos(psi), np.sin(psi)
        r, r1, r2 = curve.radius(psi, cs=(cm, sm))
        cross, d = g_terms(cm, sm, r)
        g = r1 * cross - r * d
        gp = (r2 - r) * cross - 2.0 * r1 * d
        take_lo = g < 0.0
        lo = np.where(take_lo, psi, lo)
        hi = np.where(take_lo, hi, psi)
        den = gp - g / (psi - ref)
        psi = np.clip(psi - g / np.where(g == 0.0, 1.0, den), lo, hi)
    cm, sm = np.cos(psi), np.sin(psi)
    r, r1, r2 = curve.radius(psi, cs=(cm, sm))
    t_new = np.hypot(bx - r * cm, by - r * sm) / np.hypot(r1, r)
    return psi, t_new, (cm, sm, r, r1, r2)


def test_chord_step_batch_bisections_match_trig_reference(presets, fourier8):
    # the bisections' angle-addition (cos, sin) differs from np.cos/np.sin in
    # the last bits, but on these 163840 lanes every sign decision, and so
    # every output bit, matches
    rng = np.random.default_rng(31)
    curves = dict(presets, fourier8=fourier8, ellipse10=ob.require_valid(ob.ellipse(10.0, 1.0)))
    for curve in curves.values():
        phi = rng.uniform(0, TWO_PI, 32768)
        t = np.exp(rng.uniform(math.log(dynamics.MIN_CHORD_T), math.log(30.0), phi.size))
        psi, t_new, radial = dynamics.chord_step_batch(curve, t, _batch_head(curve, phi))
        psi_ref, t_ref, radial_ref = _chord_step_batch_trig(curve, phi, t)
        assert np.array_equal(psi, psi_ref) and np.array_equal(t_new, t_ref)
        for got, want in zip(radial, radial_ref):
            assert np.array_equal(got, want)


def test_chord_step_batch_trig_calls(monkeypatch, wobbly3):
    # np.cos runs only at the N_NEWTON Newton iterates and the final angle:
    # 5 calls per step, where a cos per bisection made 13
    phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    t = np.full_like(phi, 0.5)
    head = _batch_head(wobbly3, phi)
    calls = []
    cos = np.cos

    def counted(x, *args, **kwargs):
        calls.append(x)
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    dynamics.chord_step_batch(wobbly3, t, head)
    assert len(calls) == dynamics.N_NEWTON + 1


def test_chord_step_batch_radius_calls(monkeypatch, presets, fourier8):
    # one radius call per bisection, per Newton iterate and for the final
    # angle; the benchmark's per-step radius count reads the same schedule
    phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    t = np.full_like(phi, 0.5)
    calls = []
    radius = ob.ConvexCurve.radius

    def counted(curve, *args, **kwargs):
        calls.append(args)
        return radius(curve, *args, **kwargs)

    for curve in dict(presets, fourier8=fourier8).values():
        head = _batch_head(curve, phi)
        with monkeypatch.context() as m:
            m.setattr(ob.ConvexCurve, "radius", counted)
            del calls[:]
            dynamics.chord_step_batch(curve, t, head)
            assert len(calls) == dynamics.N_BISECT + dynamics.N_NEWTON + 1 == 13


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
            fp, ft = dynamics.chord_step_scalar(curve, phi, t, 1, curve.radius_scalar(phi))
            bp, bt = dynamics.chord_step_scalar(curve, fp, ft, -1, curve.radius_scalar(fp))
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
            phi1_b, t1_b = dynamics.chord_step_scalar(curve, phi0, t0, 1,
                                                      curve.radius_scalar(phi0))
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
    # the point map's cost per step: the tangency solve and 1 call for the
    # image's exterior check (the point keeps its own).  Measured 3.4 at
    # t = 1e-3, where the second-order start sits next to the root (16 from
    # the half-turn midpoint), and 5.4-7.4 at t in [0.1, 3]
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
    # 3.0-7.9 calls per step on the presets, 3.0-4.0 at t = 1e-3, where the
    # fixed 8 + 4 schedule takes 13; the head's own data comes from the caller
    rng = np.random.default_rng(41)
    steps = [(curve, float(phi), t, d) for t in CHORD_T for curve in presets.values()
             for phi in rng.uniform(0.0, TWO_PI, 20) for d in (1, -1)]
    heads = [curve.radius_scalar(phi) for curve, phi, _, _ in steps]
    calls = []
    _count_radius_scalar(monkeypatch, calls)
    counts = {t: [] for t in CHORD_T}
    for (curve, phi, t, d), head in zip(steps, heads):
        before = len(calls)
        dynamics.chord_step_scalar(curve, phi, t, d, head)
        counts[t].append(len(calls) - before)
    mean = {t: sum(c) / len(c) for t, c in counts.items()}
    assert max(mean.values()) <= 8, mean
    assert mean[1e-3] <= 5, mean


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
    # a chord record's radial data, passed in as the next step's head, is
    # radius_scalar at the chord's angle, bit for bit, in both directions
    rng = np.random.default_rng(43)
    for curve in dict(presets, fourier8=fourier8).values():
        phis = rng.uniform(0.0, TWO_PI, 16)
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 16))
        for phi, t in zip(phis.tolist(), ts.tolist()):
            for d in (1, -1):
                record = jacobi._record(curve, phi, t)
                for _ in range(3):
                    phi_m, t_m, radial, _ = record
                    assert radial == curve.radius_scalar(phi_m)
                    record = jacobi._step_record(curve, record, d)
                    assert record[:2] == dynamics.chord_step_scalar(
                        curve, phi_m, t_m, d, curve.radius_scalar(phi_m))


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
        # a keeps its exterior check, so the solve's first call is its start
        assert calls[0] == pytest.approx(a.phi + 0.5 * math.pi, abs=1e-15)
        assert math.hypot(res.point.x - want[0], res.point.y - want[1]) < 1e-12


def test_tangency_without_a_converging_root_raises(monkeypatch, unit_circle):
    # after the exterior check (which a keeps from phase_point) the curve
    # swells to radius 3 around the point at distance 2: g keeps one sign on
    # the whole half-turn, the bracket never closes on a root, and the solve
    # must give up loudly
    a = ob.phase_point(unit_circle, 2.0, 0.0)
    calls = []
    _count_radius_scalar(monkeypatch, calls, lambda curve, phi, k: (3.0, 0.0, 0.0))
    with pytest.raises(ob.TangencyError, match="did not converge"):
        ob.tangency(unit_circle, a)
    assert len(calls) == dynamics.TANGENCY_MAX_EVALS


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


def _bare(a):
    """A with its fields only: the next solve runs its own exterior check."""
    return ob.PhasePoint(a.x, a.y, a.p, a.phi)


def _off_centre8(fourier8):
    return ob.require_valid(ob.fourier(fourier8.a0, fourier8.cos_coeffs, fourier8.sin_coeffs,
                                       origin=(0.3, -0.2)))


@pytest.mark.parametrize("orientation", [ob.dynamics.CCW, ob.dynamics.CW])
def test_orbit_is_chained_step_bitwise(presets, fourier8, orientation):
    # the exterior data a point keeps changes no bit: an orbit equals steps
    # from bare points, each of which runs its own exterior check
    for curve in (*presets.values(), _off_centre8(fourier8)):
        for t in (1e-3, 0.3, 2.0):
            a = dynamics.chord_tail_point(curve, 0.4, t)
            pts = ob.orbit(curve, a, 60, orientation)
            current = a
            for k, pt in enumerate(pts[1:]):
                current = ob.step(curve, _bare(current), orientation)
                assert (current.x, current.y, current.p, current.phi) == \
                    (pt.x, pt.y, pt.p, pt.phi), (curve.kind, t, k)


def test_orbit_saves_one_radius_scalar_call_per_step(monkeypatch, presets, fourier8):
    n = 40
    for curve in (*presets.values(), fourier8):
        a = dynamics.chord_tail_point(curve, 1.1, 0.5)
        calls = []
        with monkeypatch.context() as m:
            _count_radius_scalar(m, calls)
            ob.orbit(curve, a, n)
            kept = len(calls)
            current = a
            for _ in range(n):
                current = ob.step(curve, _bare(current))
        assert len(calls) - kept == kept + n, curve.kind


def test_kept_exterior_data_serves_only_its_curve(monkeypatch, wobbly3, ellipse21):
    # a point built on one curve and stepped on another runs that curve's
    # exterior check; the kept data takes no part in ==, hash or repr
    a = ob.phase_point(wobbly3, 2.2, 0.7)
    assert ob.step(ellipse21, a) == ob.step(ellipse21, _bare(a))
    assert a == _bare(a) and hash(a) == hash(_bare(a)) and repr(a) == repr(_bare(a))
    calls = []
    _count_radius_scalar(monkeypatch, calls)
    ob.tangency(wobbly3, a)
    own = len(calls)
    ob.tangency(wobbly3, _bare(a))
    assert len(calls) - own == own + 1


def test_orbit_points_do_not_keep_exterior_data(wobbly3):
    # so a long orbit costs no more memory per point; its last point keeps
    # the data for a caller that steps on
    a = ob.phase_point(wobbly3, 2.2, 0.7)
    pts = ob.orbit(wobbly3, a, 5)
    assert all(p._exterior is None for p in pts[1:-1])
    assert pts[-1]._exterior[0] is wobbly3 and a._exterior[0] is wobbly3


def test_differential_fd_with_its_base_image(presets):
    # the lane body, handed the points' images, gives each point the bits of
    # the one-point differential_fd, which steps the point itself
    rng = np.random.default_rng(47)
    for curve in presets.values():
        pts = _exterior_sample(curve, rng, 5)
        a = dynamics.phase_lanes(curve, [p.x for p in pts], [p.y for p in pts])
        base = dynamics.step_lanes(curve, a, 1)
        assert np.array_equal(dynamics.differential_fd_lanes(curve, a.p, a.phi, base.phi),
                              [ob.differential_fd(curve, p) for p in pts])
