import math
import tracemalloc

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import rigidity, serialize
from outerbilliard.quadrature import TWO_PI, uniform_angles

PI_SQ = math.pi ** 2

# pinned by the two-resolution quadrature oracle in test_q_integral_wobbly
WOBBLY_Q_DEFECT = -0.04963664569418125


def test_q_integral_circle(unit_circle):
    assert ob.q_integral(unit_circle) == pytest.approx(TWO_PI, abs=1e-12)


def test_q_integral_ellipse_center(ellipse21):
    assert ob.q_integral(ellipse21) == pytest.approx(TWO_PI, abs=1e-8)


def test_q_integral_wobbly(wobbly3):
    q1 = ob.q_integral(wobbly3, 2048)
    q2 = ob.q_integral(wobbly3, 4096)
    assert abs(q1 - q2) < 1e-9            # resolution-independent to spectral accuracy
    assert q1 - TWO_PI < -1e-6            # strictly below the ellipse value
    assert q1 - TWO_PI == pytest.approx(WOBBLY_Q_DEFECT, abs=1e-9)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier"])
def test_total_curvature_presets(presets, name):
    assert ob.total_curvature(presets[name]) == pytest.approx(TWO_PI, abs=1e-9)


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
    d = rigidity._sderiv_arrays(curve, phi, t)
    assert np.array_equal(total, rigidity._weighted_total(d))


def test_integrand_finite_at_zero(presets):
    # F1 + F2 + F3 -> 0 linearly as t -> 0: no boundary-layer singularity
    for curve in presets.values():
        for phi in (0.1, 2.2, 5.0):
            s = ob.integrand(curve, phi, 1e-7)
            assert abs(s.total) < 1e-5
            s2 = ob.integrand(curve, phi, 2e-7)
            assert s2.total == pytest.approx(2.0 * s.total, rel=1e-4, abs=1e-12)


def test_i_closed_circle(unit_circle):
    assert ob.i_closed(unit_circle) == pytest.approx(0.0, abs=1e-12)


def test_i_closed_ellipse(ellipse21):
    assert ob.i_closed(ellipse21) == pytest.approx(0.0, abs=1e-7)


def test_i_numeric_circle(unit_circle):
    res = ob.i_numeric(unit_circle)
    assert abs(res.value) < 1e-9
    assert abs(res.value) <= res.error_estimate


def test_i_numeric_ellipse(ellipse21):
    res = ob.i_numeric(ellipse21)
    assert abs(res.value) < 1e-6
    assert abs(res.value - ob.i_closed(ellipse21)) <= res.error_estimate


def test_i_numeric_matches_closed_wobbly(wobbly3):
    res = ob.i_numeric(wobbly3)
    ic = ob.i_closed(wobbly3)
    assert abs(res.value - ic) < 1e-6
    assert abs(res.value - ic) <= res.error_estimate
    assert ic == pytest.approx(math.pi * WOBBLY_Q_DEFECT, abs=1e-8)


def test_i_numeric_tail_split_independent(wobbly3):
    vals = [ob.i_numeric(wobbly3, t_max=tm).value for tm in (25.0, 50.0, 100.0)]
    assert max(vals) - min(vals) < 1e-8


def test_i_numeric_t_max_precondition(unit_circle):
    with pytest.raises(ValueError):
        ob.i_numeric(unit_circle, t_max=5.0)


@pytest.mark.parametrize("phi_grid", [1, 0, -4])
def test_i_numeric_phi_grid_precondition(unit_circle, phi_grid):
    with pytest.raises(ValueError, match="phi_grid"):
        ob.i_numeric(unit_circle, phi_grid=phi_grid)


def test_i_numeric_memory_is_bounded_by_the_block(wobbly3):
    # the whole 2048 x 312 grid in one piece peaks near 78 MiB of temporaries
    tracemalloc.start()
    try:
        ob.i_numeric(wobbly3, phi_grid=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("name", ["wobbly3", "fourier8_refit"])
def test_i_numeric_does_not_depend_on_the_block_size(request, monkeypatch, name):
    curve = request.getfixturevalue(name)
    ic = ob.i_closed(curve)
    default = ob.i_numeric(curve)
    monkeypatch.setattr(rigidity, "I_BLOCK", 1)       # one phi row per block
    one_row = ob.i_numeric(curve)
    assert abs(one_row.value - default.value) <= 1e-15
    for res in (default, one_row):
        assert abs(res.value - ic) <= res.error_estimate


def test_area_and_dual_circle(unit_circle):
    d = ob.area_and_dual(unit_circle)
    assert d.area_gamma == pytest.approx(math.pi, abs=1e-12)
    assert d.area_dual == pytest.approx(math.pi, abs=1e-12)
    assert d.bs_product == pytest.approx(PI_SQ, abs=1e-9)
    assert abs(d.area_dual - d.area_dual_alt) < 1e-10


def test_area_and_dual_ellipse(ellipse21):
    # the polar dual of the (2, 1) ellipse is the (1/2, 1) ellipse
    d = ob.area_and_dual(ellipse21)
    assert d.area_gamma == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert d.area_dual == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert d.bs_product == pytest.approx(PI_SQ, abs=1e-7)
    assert abs(d.area_dual - d.area_dual_alt) < 1e-10


def test_area_and_dual_wobbly(wobbly3):
    d = ob.area_and_dual(wobbly3)
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
        q = ob.q_integral(curve)
        bound = math.sqrt(float(np.mean(h**-2) * TWO_PI)
                          * float(np.mean(h * h + h * hpp) * TWO_PI))
        assert q <= bound + 1e-9
        if name in ("circle", "ellipse"):
            assert q == pytest.approx(bound, abs=1e-7)
        else:
            assert q < bound - 1e-4


def test_support_samples_circle():
    c = ob.circle(1.0, origin=(0.3, 0.0))
    h = ob.support_samples(c, 256)
    # support of a unit disk about its center is 1 in every direction
    assert np.abs(h - 1.0).max() < 1e-12


def test_dual_area_about_matches_reorigin(ellipse21):
    x = (0.1, 0.05)
    direct = ob.dual_area_about(ellipse21, x)
    via_reorigin = ob.area_and_dual(ob.reorigin(ellipse21, x)).area_dual
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


def test_santalo_objective_at_origin_is_dual_area(presets):
    for curve in presets.values():
        f0 = ob.dual_area_about(curve, curve.origin)
        assert f0 == pytest.approx(ob.area_and_dual(curve).area_dual, rel=1e-11)


def test_rigidity_report_ellipse(ellipse21):
    rep = ob.rigidity_report(ellipse21)
    assert rep.equality_case
    assert rep.eq_q_holds and rep.eq_qq_holds
    assert not rep.certifies_non_minimizing
    assert abs(rep.q_defect) < 1e-7
    assert abs(rep.i_closed) < 1e-6
    assert abs(rep.i_numeric) < 1e-6
    assert rep.bs_product == pytest.approx(PI_SQ, abs=1e-7)
    assert not rep.metadata["origin_moved"]


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
    shifted = ob.reorigin(ob.ellipse(2.0, 1.0), (0.4, 0.1))
    rep = ob.rigidity_report(shifted)
    assert rep.metadata["origin_moved"]
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
