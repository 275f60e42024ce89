import math
import tracemalloc

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import curves, rigidity, serialize
from outerbilliard.curves import _angle_map_start
from outerbilliard.generating import s_closed_forms
from outerbilliard.quadrature import TWO_PI, gauss_panels, uniform_angles

from conftest import radial
from oracles import reorigin

PI_SQ = math.pi ** 2

# pinned by the two-resolution quadrature oracle in test_q_integral_wobbly
WOBBLY_Q_DEFECT = -0.04963664569418125


def test_q_integral_circle(unit_circle):
    assert ob.q_integral(*radial(unit_circle)) == pytest.approx(TWO_PI, abs=1e-12)


def test_q_integral_ellipse_center(ellipse21):
    assert ob.q_integral(*radial(ellipse21)) == pytest.approx(TWO_PI, abs=1e-8)


def test_q_integral_wobbly(wobbly3):
    q1 = ob.q_integral(*radial(wobbly3, 2048))
    q2 = ob.q_integral(*radial(wobbly3, 4096))
    assert abs(q1 - q2) < 1e-9            # resolution-independent to spectral accuracy
    assert q1 - TWO_PI < -1e-6            # strictly below the ellipse value
    assert q1 - TWO_PI == pytest.approx(WOBBLY_Q_DEFECT, abs=1e-9)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_total_curvature_presets(presets, name):
    assert ob.total_curvature(*radial(presets[name])) == pytest.approx(TWO_PI, abs=1e-9)


def test_integrand_circle_unit_chord(unit_circle):
    s = ob.integrand(unit_circle, 0.0, 1.0)
    assert s.total == pytest.approx(0.0, abs=1e-14)
    assert s.f1 == pytest.approx(1.0, abs=1e-14)
    assert s.f2 == pytest.approx(-0.5, abs=1e-14)
    assert s.f3 == pytest.approx(-0.5, abs=1e-14)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_integrand_decomposition_identity(presets, name):
    curve = presets[name]
    rng = np.random.default_rng(79)
    phi = rng.uniform(0, TWO_PI, 2000)
    t = rng.uniform(1e-3, 40.0, 2000)
    total, f1, f2, f3 = rigidity._integrand_arrays(curve, phi, t)
    err = np.abs(f1 + f2 + f3 - total) / np.maximum(1.0, np.abs(total))
    assert err.max() < 1e-10
    # i_numeric's blocks assemble the total the same way, bit for bit
    assert np.array_equal(total, rigidity._weighted_total(*curve.radius(phi), t))


def test_integrand_finite_at_zero(presets):
    # F1 + F2 + F3 -> 0 linearly as t -> 0: no boundary-layer singularity
    for curve in presets.values():
        for phi in (0.1, 2.2, 5.0):
            s = ob.integrand(curve, phi, 1e-7)
            assert abs(s.total) < 1e-5
            s2 = ob.integrand(curve, phi, 2e-7)
            assert s2.total == pytest.approx(2.0 * s.total, rel=1e-4, abs=1e-12)


# -- the reduced weighted integrand against the assembled form --------------------

def _assembled(r, rp, rpp, t):
    """(A^2 S11 + 2AB S12 + B^2 S22)(-S12) J from the closed forms, in
    whatever arithmetic the arguments carry."""
    d = s_closed_forms(r, rp, rpp, t)
    a_w, b_w = 1 / d["r0sq"], 1 / d["r1sq"]
    return (a_w * a_w * d["S11"] + 2 * a_w * b_w * d["S12"]
            + b_w * b_w * d["S22"]) * (-d["S12"]) * d["J"]


def test_weighted_total_is_the_assembled_form_exactly():
    sympy = pytest.importorskip("sympy")
    r, rp, rpp, t = sympy.symbols("r rp rpp t")
    gap = _assembled(r, rp, rpp, t) - rigidity._weighted_total(r, rp, rpp, t)
    assert sympy.cancel(sympy.nsimplify(gap, rational=True)) == 0


ORACLE_T = (1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 50.0)
# |kernel - oracle| <= WEIGHTED_BUDGET * C, where C is the kernel with every
# difference in chi, alpha, beta and alpha t^2 + beta taken as a sum of
# magnitudes.  A plain relative error is ill-posed here: the integrand
# changes sign at t^2 = -beta/alpha, and near a zero of beta the value at
# t = 1e-6 rests on r r'' - 3 r'^2 cancelling (relative error 7.6e-5 on the
# 2:1 ellipse among 500 angles, in any float evaluation).  Measured on these
# 128 angles: at most 7.9e-16 C (1.0e-15 C on 500 angles; the assembled float
# form: up to 1.7e-9 C); plain relative error 2.5e-13 at worst, on
# 1 + 0.038459 cos 5phi.
WEIGHTED_BUDGET = 1e-14


@pytest.mark.parametrize("name", ["ellipse21", "ellipse101", "wobbly3", "wobbly5",
                                  "fourier8_refit", "unit_circle"])
def test_weighted_total_matches_mpmath(request, name):
    mp = pytest.importorskip("mpmath").mp
    curves = {"ellipse101": lambda: ob.require_valid(ob.ellipse(10.0, 1.0)),
              "wobbly5": lambda: ob.require_valid(
                  ob.fourier(1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.038459]))}
    curve = curves[name]() if name in curves else request.getfixturevalue(name)
    phi = (np.arange(128) + 0.5) * (TWO_PI / 128)
    r, rp, rpp = curve.radius(phi)
    with mp.workdps(40):
        for t in ORACLE_T:
            total = rigidity._weighted_total(r, rp, rpp, t)
            for i in range(phi.size):
                x, xp, xpp, tm = (mp.mpf(float(v)) for v in (r[i], rp[i], rpp[i], t))
                exact = _assembled(x, xp, xpp, tm)
                if name == "unit_circle":
                    assert abs(total[i] - exact) <= 1e-15
                    continue
                k_abs = x * x + 2 * xp * xp + abs(x * xpp)
                a_abs = xp * xp * (x * x + 3 * xp * xp) + abs(x * xpp * (x * x - xp * xp))
                b_abs = x * x * (abs(x * xpp) + 3 * xp * xp)
                d = s_closed_forms(x, xp, xpp, tm)
                scale = (2 * k_abs * tm * tm * (a_abs * tm * tm + b_abs)
                         / ((d["chi"] * tm * tm + x * x) * d["r0sq"] * d["r1sq"]))
                assert abs(total[i] - exact) <= WEIGHTED_BUDGET * scale, (t, float(phi[i]))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_i_routes_match_the_perturbation_series(k):
    # r = 1 + eps cos k phi: Q - 2pi = 2pi eps^2 k^2 (4 - k^2)/16 + O(eps^4),
    # and the k-fold symmetry puts the Santalo point at the origin.  Measured
    # gap at eps = 1e-3: 4.4e-5, 9.1e-5, 1.9e-4 for k = 3, 4, 5, shrinking
    # about 100x from eps = 1e-2 (the eps^2 of the truncation).
    gaps = {}
    for eps in (1e-2, 1e-3):
        curve = ob.require_valid(ob.fourier(1.0, cos=[0.0] * (k - 1) + [eps]))
        sp = ob.santalo_point(curve)
        assert math.hypot(sp.x, sp.y) < 1e-12
        series = math.pi * TWO_PI * eps * eps * k * k * (4 - k * k) / 16
        sample = radial(curve)
        gaps[eps] = [abs(value / series - 1.0)
                     for value in (ob.i_numeric(*sample).value, ob.i_closed(*sample))]
    assert max(gaps[1e-3]) < 5e-4
    for coarse, fine in zip(gaps[1e-2], gaps[1e-3]):
        assert fine * 50.0 < coarse


def test_i_closed_circle(unit_circle):
    assert ob.i_closed(*radial(unit_circle)) == pytest.approx(0.0, abs=1e-12)


def test_i_closed_ellipse(ellipse21):
    assert ob.i_closed(*radial(ellipse21)) == pytest.approx(0.0, abs=1e-7)


def test_i_numeric_circle(unit_circle):
    res = ob.i_numeric(*radial(unit_circle))
    assert abs(res.value) < 1e-9
    assert abs(res.value) <= res.error_estimate


def test_i_numeric_ellipse(ellipse21):
    res = ob.i_numeric(*radial(ellipse21))
    assert abs(res.value) < 1e-6
    assert abs(res.value - ob.i_closed(*radial(ellipse21))) <= res.error_estimate


def test_i_numeric_matches_closed_wobbly(wobbly3):
    res = ob.i_numeric(*radial(wobbly3))
    ic = ob.i_closed(*radial(wobbly3))
    assert abs(res.value - ic) < 1e-6
    assert abs(res.value - ic) <= res.error_estimate
    assert ic == pytest.approx(math.pi * WOBBLY_Q_DEFECT, abs=1e-8)


def test_i_numeric_tail_split_independent(wobbly3):
    vals = [ob.i_numeric(*radial(wobbly3), t_max=tm).value for tm in (25.0, 50.0, 100.0)]
    assert max(vals) - min(vals) < 1e-8


def test_i_numeric_t_max_precondition(unit_circle):
    with pytest.raises(ValueError):
        ob.i_numeric(*radial(unit_circle), t_max=5.0)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0, -1.0])
def test_t_max_must_be_finite_and_positive(unit_circle, t_max):
    # i_numeric, its Gauss panels and the derivative table behind twist_scan
    with pytest.raises(ValueError, match="t_max"):
        ob.i_numeric(*radial(unit_circle), t_max=t_max)
    with pytest.raises(ValueError, match="t_max"):
        gauss_panels(t_max)
    with pytest.raises(ValueError, match="t_max"):
        ob.twist_scan(unit_circle, 64, 64, t_max)


@pytest.mark.parametrize("part", [0, 1])
def test_i_numeric_that_is_not_finite_raises(monkeypatch, wobbly3, part):
    # a NaN in either tail (an overflow at huge t_max) reaches the value and
    # the estimate; neither may come back as a number
    tail_arrays = rigidity._tail_arrays

    def nan_tail(*args):
        tails = list(tail_arrays(*args))
        tails[part] = np.where(np.arange(tails[part].size) == 5, math.nan, tails[part])
        return tuple(tails)

    monkeypatch.setattr(rigidity, "_tail_arrays", nan_tail)
    with pytest.raises(ob.ConvergenceError, match="i_numeric is nan with error estimate nan"):
        ob.i_numeric(*radial(wobbly3))


@pytest.mark.parametrize("phi_grid", [0, 1, 3])
def test_i_numeric_phi_grid_precondition(phi_grid):
    # the half-resolution pass takes every other sample: the count must be even
    with pytest.raises(ValueError, match="phi_grid"):
        ob.i_numeric(*[np.ones(phi_grid)] * 3)


def test_i_numeric_memory_is_bounded_by_the_block(wobbly3):
    # the whole 2048 x 312 grid in one piece peaks near 78 MiB of temporaries
    tracemalloc.start()
    try:
        ob.i_numeric(*radial(wobbly3, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("name", ["wobbly3", "fourier8_refit"])
def test_i_numeric_does_not_depend_on_the_block_size(request, monkeypatch, name):
    curve = request.getfixturevalue(name)
    sample = radial(curve)
    ic = ob.i_closed(*sample)
    default = ob.i_numeric(*sample)
    monkeypatch.setattr(rigidity, "I_BLOCK", 1)       # one phi row per block
    one_row = ob.i_numeric(*sample)
    assert abs(one_row.value - default.value) <= 1e-15
    for res in (default, one_row):
        assert abs(res.value - ic) <= res.error_estimate


def test_area_and_dual_circle(unit_circle):
    d = ob.area_and_dual(*radial(unit_circle))
    assert d.area_gamma == pytest.approx(math.pi, abs=1e-12)
    assert d.area_dual == pytest.approx(math.pi, abs=1e-12)
    assert d.bs_product == pytest.approx(PI_SQ, abs=1e-9)
    assert abs(d.area_dual - d.area_dual_alt) < 1e-10


def test_area_and_dual_ellipse(ellipse21):
    # the polar dual of the (2, 1) ellipse is the (1/2, 1) ellipse
    d = ob.area_and_dual(*radial(ellipse21))
    assert d.area_gamma == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert d.area_dual == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert d.bs_product == pytest.approx(PI_SQ, abs=1e-7)
    assert abs(d.area_dual - d.area_dual_alt) < 1e-10


def test_area_and_dual_wobbly(wobbly3):
    d = ob.area_and_dual(*radial(wobbly3))
    assert d.bs_product < PI_SQ - 1e-6
    assert abs(d.area_dual - d.area_dual_alt) < 1e-10


def test_chi_equals_support_form(presets):
    for curve in presets.values():
        phi = uniform_angles(512)
        r, rp, rpp = curve.radius(phi)
        chi = r * r + 2 * rp * rp - r * rpp
        h = 1.0 / r
        hpp = (2 * rp * rp - r * rpp) / r**3
        assert np.abs(chi - (h + hpp) / h**3).max() < 1e-10 * max(1.0, chi.max())


def test_cauchy_schwarz_chain(presets):
    for name, curve in presets.items():
        phi = uniform_angles(2048)
        r, rp, rpp = curve.radius(phi)
        h = 1.0 / r
        hpp = (2 * rp * rp - r * rpp) / r**3
        q = ob.q_integral(r, rp, rpp)
        bound = math.sqrt(float(np.mean(h**-2) * TWO_PI)
                          * float(np.mean(h * h + h * hpp) * TWO_PI))
        assert q <= bound + 1e-9
        if name in ("circle", "ellipse"):
            assert q == pytest.approx(bound, abs=1e-7)
        else:
            assert q < bound - 1e-4


def test_support_frame_circle():
    c = ob.circle(1.0, origin=(0.3, 0.0))
    h, _, _, _ = rigidity._support_frame(c, 256)
    # support of a unit disk about its center is 1 in every direction
    assert np.abs(h - 1.0).max() < 1e-12


@pytest.mark.parametrize("a", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("u, v", [(0.0, 0.0), (0.3, 0.2), (-0.5, 0.4), (0.2, -0.6)])
def test_dual_area_about_ellipse_closed_form(a, u, v):
    # the polar dual of the ellipse x^2/a^2 + y^2 = 1 about (u a, v) is an
    # ellipse of area pi / (a (1 - u^2 - v^2)^(3/2))
    want = math.pi / (a * (1.0 - u * u - v * v) ** 1.5)
    got = ob.dual_area_about(ob.ellipse(a, 1.0), (u * a, v))
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("name", ["near_flat3", "near_flat5"])
def test_santalo_near_flat_symmetric(request, name):
    # k-fold symmetry pins the Santalo point at the origin, flat spots or not
    curve = request.getfixturevalue(name)
    sp = ob.santalo_point(curve)
    assert math.hypot(sp.x, sp.y) <= 1e-14 * curve.diameter


def test_rigidity_report_near_flat_keeps_the_origin(near_flat3):
    assert not ob.rigidity_report(near_flat3).origin_moved


@pytest.mark.parametrize("call", [ob.santalo_point, lambda c: ob.dual_area_about(c, (0.01, 0.02))],
                         ids=["santalo_point", "dual_area_about"])
def test_support_form_evaluates_radius_once(monkeypatch, fourier8, call):
    # one radius call beyond area_centroid's: no inversion of the normal-angle map
    calls, in_centroid = [], []
    radius, centroid = ob.ConvexCurve.radius, rigidity.area_centroid

    def counted(self, phi, cs=None):
        calls.append(bool(in_centroid))
        return radius(self, phi, cs)

    def area_centroid(curve):
        in_centroid.append(True)
        try:
            return centroid(curve)
        finally:
            in_centroid.pop()

    fourier8.diameter                    # cached; its one radius call is not the search's
    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    monkeypatch.setattr(rigidity, "area_centroid", area_centroid)
    call(fourier8)
    assert calls.count(False) == 1


def test_dual_area_about_matches_reorigin(ellipse21):
    x = (0.1, 0.05)
    direct = ob.dual_area_about(ellipse21, x)
    via_reorigin = ob.area_and_dual(*radial(reorigin(ellipse21, x))).area_dual
    assert direct == pytest.approx(via_reorigin, rel=1e-9)


def test_dual_area_about_rejects_exterior(ellipse21):
    with pytest.raises(ob.NotInteriorError):
        ob.dual_area_about(ellipse21, (2.5, 0.0))


def test_santalo_offset_circle():
    c = ob.circle(1.0, origin=(0.3, 0.0))
    sp = ob.santalo_point(c)
    assert (sp.x, sp.y) == pytest.approx((0.3, 0.0), abs=1e-9)


def test_santalo_ellipse_center(ellipse21):
    sp = ob.santalo_point(ellipse21)
    assert (sp.x, sp.y) == pytest.approx((0.0, 0.0), abs=1e-9)


def test_santalo_wobbly_symmetric(wobbly3):
    # three-fold symmetry pins the unique minimizer to the fixed point
    sp = ob.santalo_point(wobbly3)
    assert math.hypot(sp.x, sp.y) < 1e-8


def test_santalo_is_local_minimum(wobbly3):
    sp = ob.santalo_point(wobbly3)
    f0 = ob.dual_area_about(wobbly3, (sp.x, sp.y))
    delta = 1e-3 * wobbly3.diameter
    for k in range(8):
        ang = k * math.pi / 4.0
        x = (sp.x + delta * math.cos(ang), sp.y + delta * math.sin(ang))
        assert ob.dual_area_about(wobbly3, x) >= f0


@pytest.mark.parametrize("name", ["ellipse21", "egg", "fourier8"])
def test_santalo_newton_from_near_the_boundary(monkeypatch, request, name):
    # full Newton steps, with no line search, reach the same point from
    # starts at 0.99 r in eight directions as from the area centroid
    curve = request.getfixturevalue(name)
    ref = ob.santalo_point(curve)
    for k in range(8):
        a = k * math.pi / 4.0
        r, _, _ = curve.radius_scalar(a)
        start = (curve.origin[0] + 0.99 * r * math.cos(a),
                 curve.origin[1] + 0.99 * r * math.sin(a))
        monkeypatch.setattr(rigidity, "area_centroid", lambda c, start=start: start)
        sp = ob.santalo_point(curve)
        assert math.hypot(sp.x - ref.x, sp.y - ref.y) <= 1e-12 * curve.diameter


@pytest.mark.parametrize("offset", [(0.12, -0.05), (-0.2, 0.15)])
def test_santalo_point_does_not_depend_on_the_origin(fourier8, offset):
    sp = ob.santalo_point(fourier8)
    moved = ob.santalo_point(reorigin(fourier8, offset))
    assert math.hypot(moved.x - sp.x, moved.y - sp.y) <= 1e-12 * fourier8.diameter


def test_rigidity_report_runs_no_simplex_search(monkeypatch, fourier8):
    def no_simplex(*args, **kwargs):
        raise AssertionError("nelder_mead was called")

    monkeypatch.setattr(rigidity, "nelder_mead", no_simplex)
    rep = ob.rigidity_report(fourier8)
    assert rep.origin_moved
    assert rep.eq_qq_holds


@pytest.fixture(scope="module")
def shifted_ellipse():
    """The 2:1 ellipse refit about (0.4, 0.1): its Santalo point is 0.41 off."""
    return reorigin(ob.ellipse(2.0, 1.0), (0.4, 0.1))


def _q_support_route(curve, point, n=2048):
    """Q as the planar L2 affine surface area Int sqrt(rho/h_p) dtheta
    (Lutwak 1996) over outward normal angles theta: rho the radius of
    curvature and h_p = <gamma - point, u_theta> at the boundary point whose
    normal is u_theta.  No ray solve about the point."""
    theta = uniform_angles(n)
    ux, uy = np.cos(theta), np.sin(theta)

    def normal_angle(f):
        tx, ty = curve.tangent(f)
        return np.arctan2(-tx, ty)

    phi = _angle_map_start(normal_angle, theta)
    for _ in range(8):                   # Newton on <gamma'(phi), u_theta> = 0
        c, s = np.cos(phi), np.sin(phi)
        r, r1, r2 = curve.radius(phi)
        g = (r1 * c - r * s) * ux + (r1 * s + r * c) * uy
        gp = ((r2 - r) * c - 2 * r1 * s) * ux + ((r2 - r) * s + 2 * r1 * c) * uy
        phi = phi - g / gp
    assert np.abs(g).max() < 1e-14
    c, s = np.cos(phi), np.sin(phi)
    r, r1, r2 = curve.radius(phi)
    rho = (r * r + r1 * r1) ** 1.5 / (r * r + 2 * r1 * r1 - r * r2)
    h_p = ((curve.origin[0] + r * c - point[0]) * ux
           + (curve.origin[1] + r * s - point[1]) * uy)
    return float(np.mean(np.sqrt(rho / h_p))) * TWO_PI


@pytest.mark.parametrize("name", ["fourier8", "egg", "shifted_ellipse"])
def test_q_from_radius_about_matches_the_support_route(request, name):
    curve = request.getfixturevalue(name)
    sp = ob.santalo_point(curve)
    sample = curves.radius_about(curve, (sp.x, sp.y), uniform_angles(2048))
    assert abs(ob.q_integral(*sample) - _q_support_route(curve, (sp.x, sp.y))) <= 1e-13


@pytest.mark.parametrize("name", ["fourier8", "egg", "shifted_ellipse"])
def test_rigidity_report_matches_the_refit_route(request, name):
    # the report's one sample about the Santalo point against the Fourier
    # refit about it that earlier reports evaluated
    curve = request.getfixturevalue(name)
    rep = ob.rigidity_report(curve)
    assert rep.origin_moved
    sample = radial(reorigin(curve, (rep.santalo_x, rep.santalo_y)))
    q = ob.q_integral(*sample)
    inum = ob.i_numeric(*sample)
    dual = ob.area_and_dual(*sample)
    refit = {"q_value": q, "i_closed": ob.i_closed(*sample), "i_numeric": inum.value,
             "i_numeric_error": inum.error_estimate, "area_gamma": dual.area_gamma,
             "area_dual": dual.area_dual, "bs_product": dual.bs_product}
    for field, value in refit.items():
        assert abs(getattr(rep, field) - value) <= 1e-14, field


@pytest.mark.parametrize("name, moved", [("wobbly3", False), ("fourier8", True)])
def test_rigidity_report_reads_one_radial_sample(monkeypatch, request, name, moved):
    # after the Santalo search: one curve.radius call when the origin stays,
    # one radius_about call when it moves; no refit, no revalidation
    curve = request.getfixturevalue(name)
    log, nested = [], []

    def forbidden(*args, **kwargs):
        raise AssertionError("the report refit or revalidated the curve")

    santalo, about, radius = rigidity.santalo_point, rigidity.radius_about, ob.ConvexCurve.radius

    def santalo_point(*args, **kwargs):
        sp = santalo(*args, **kwargs)
        log.append("santalo_point")
        return sp

    def radius_about(*args, **kwargs):
        log.append("radius_about")
        nested.append(True)
        try:
            return about(*args, **kwargs)
        finally:
            nested.pop()

    def counted(self, phi, cs=None):
        if not nested:
            log.append("radius")
        return radius(self, phi, cs)

    for owner, attr in ((rigidity, "reorigin"),
                        (curves, "require_valid"), (curves, "validate")):
        monkeypatch.setattr(owner, attr, forbidden)
    monkeypatch.setattr(rigidity, "santalo_point", santalo_point)
    monkeypatch.setattr(rigidity, "radius_about", radius_about)
    monkeypatch.setattr(ob.ConvexCurve, "radius", counted)
    rep = ob.rigidity_report(curve)
    assert rep.origin_moved == moved
    after = log[log.index("santalo_point") + 1:]
    assert after == (["radius_about"] if moved else ["radius"])


def test_santalo_objective_at_origin_is_dual_area(presets):
    for curve in presets.values():
        f0 = ob.dual_area_about(curve, curve.origin)
        assert f0 == pytest.approx(ob.area_and_dual(*radial(curve)).area_dual, rel=1e-11)


def test_rigidity_report_ellipse(ellipse21):
    rep = ob.rigidity_report(ellipse21)
    assert rep.equality_case
    assert rep.eq_q_holds and rep.eq_qq_holds
    assert not rep.certifies_non_minimizing
    assert abs(rep.q_defect) < 1e-7
    assert abs(rep.i_closed) < 1e-6
    assert abs(rep.i_numeric) < 1e-6
    assert rep.bs_product == pytest.approx(PI_SQ, abs=1e-7)
    assert not rep.origin_moved


def test_rigidity_report_circle_offset():
    rep = ob.rigidity_report(ob.circle(1.0, origin=(0.3, 0.0)))
    assert rep.equality_case
    assert (rep.santalo_x, rep.santalo_y) == pytest.approx((0.3, 0.0), abs=1e-8)
    assert rep.bs_product == pytest.approx(PI_SQ, abs=1e-9)


def test_rigidity_report_wobbly(wobbly3):
    rep = ob.rigidity_report(wobbly3)
    assert rep.eq_qq_holds
    assert not rep.eq_q_holds
    assert rep.certifies_non_minimizing
    assert not rep.equality_case
    assert rep.q_defect == pytest.approx(WOBBLY_Q_DEFECT, abs=1e-8)
    assert rep.bs_product < PI_SQ - 1e-6
    assert abs(rep.i_numeric - rep.i_closed) <= rep.i_numeric_error


def test_rigidity_report_moves_origin():
    shifted = reorigin(ob.ellipse(2.0, 1.0), (0.4, 0.1))
    rep = ob.rigidity_report(shifted)
    assert rep.origin_moved
    assert (rep.santalo_x, rep.santalo_y) == pytest.approx((0.0, 0.0), abs=1e-7)
    assert rep.equality_case          # still the same ellipse geometrically
    assert rep.bs_product == pytest.approx(PI_SQ, abs=1e-6)


def test_json_serialization_format():
    doc = {"a": 1.0 / 3.0, "b": [1, 2.5, True, None], "c": {"x": "s"}}
    text = serialize.dumps(doc)
    assert '"a": 0.33333333333333331' in text
    assert text == serialize.dumps(doc)
    assert text.endswith("}\n")


def test_integrand_rejects_inconsistent_split(unit_circle, monkeypatch):
    def broken(curve, phi, t):
        return np.float64(1.0), np.float64(0.5), np.float64(0.25), np.float64(0.0)

    monkeypatch.setattr(rigidity, "_integrand_arrays", broken)
    with pytest.raises(ob.ConvergenceError) as exc:
        rigidity.integrand(unit_circle, 0.0, 1.0)
    assert exc.value.residual == pytest.approx(0.25)


def test_santalo_polish_that_never_converges_raises(monkeypatch, wobbly3):
    # with a zero step tolerance no polish can stop: after 60 iterations the
    # search must fail loudly, with the last step as its residual
    monkeypatch.setattr(rigidity, "SANTALO_STEP_TOL", 0.0)
    with pytest.raises(ob.ConvergenceError) as info:
        ob.santalo_point(wobbly3)
    assert 0.0 <= info.value.residual < 1e-12
