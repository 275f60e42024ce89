"""Property checks on randomly generated convex curves.

The presets are symmetric; these curves are not, so they exercise the
non-trivial Santalo relocation path and confirm the main inequalities are
curve-independent facts, not preset accidents.
"""

import math

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics, generating
from outerbilliard.quadrature import TWO_PI

from conftest import radial


def _random_convex_curves(count, seed=12345):
    """Small random trig polynomials, rejection-sampled for validity."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_harm = int(rng.integers(2, 6))
        decay = rng.uniform(0.3, 0.7)
        amp = 0.08 * decay ** np.arange(n_harm)
        cand = ob.fourier(1.0,
                          cos=rng.uniform(-1, 1, n_harm) * amp,
                          sin=rng.uniform(-1, 1, n_harm) * amp)
        if ob.validate(cand).ok:
            out.append(cand)
    return out


CURVES = _random_convex_curves(4)


@pytest.mark.parametrize("idx", range(len(CURVES)))
def test_core_identities_random_curve(idx):
    curve = CURVES[idx]
    rng = np.random.default_rng(900 + idx)
    phi = rng.uniform(0, TWO_PI, 300)
    t = rng.uniform(0.05, 4.0, 300)

    s1c, s2c = ob.chain_rule_s1_s2(curve, phi, t)
    d = generating._sderiv_arrays(curve, phi, t)
    scale = np.maximum(1.0, np.maximum(d["r0sq"], d["r1sq"]))
    assert np.max(np.abs(s1c - d["S1"]) / scale) < 1e-12
    assert np.max(np.abs(s2c - d["S2"]) / scale) < 1e-12
    assert d["S12"].max() < 0.0

    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    assert np.abs(rphi - phi).max() < 1e-10
    assert np.abs(rt - t).max() < 1e-10

    assert ob.total_curvature(*radial(curve)) == pytest.approx(TWO_PI, abs=1e-9)


@pytest.mark.parametrize("idx", range(len(CURVES)))
def test_map_agreement_random_curve(idx):
    curve = CURVES[idx]
    rng = np.random.default_rng(700 + idx)
    for _ in range(25):
        ang = float(rng.uniform(0, TWO_PI))
        r, _, _ = curve.radius_scalar(ang)
        rho = r * (1.0 + float(rng.uniform(0.2, 1.2)))
        a = ob.phase_point(curve, rho * math.cos(ang), rho * math.sin(ang))
        q = ob.step(curve, a)
        p1, phi1 = ob.forward_map_via_s(curve, a.p, a.phi)
        assert abs(q.p - p1) / max(1.0, q.p) < 1e-9
        assert abs((q.phi - phi1 + math.pi) % TWO_PI - math.pi) < 1e-9
        back = ob.inverse_step(curve, q)
        assert math.hypot(back.x - a.x, back.y - a.y) < 1e-10


@pytest.mark.parametrize("idx", range(len(CURVES)))
def test_rigidity_report_random_curve(idx):
    """Q <= 2pi must hold at the Santalo point of every convex curve, with
    equality reserved for ellipses; these are not ellipses."""
    curve = CURVES[idx]
    rep = ob.rigidity_report(curve)
    assert rep.eq_qq_holds
    assert rep.q_defect < 0.0
    assert not rep.equality_case
    assert rep.certifies_non_minimizing == (rep.q_defect < -1e-7)
    assert rep.bs_product < math.pi ** 2 + 1e-9
    assert rep.metadata["origin_moved"]      # no symmetry pins the origin
    assert abs(rep.i_numeric - rep.i_closed) <= rep.i_numeric_error


def test_santalo_minimality_asymmetric():
    curve = CURVES[0]
    sp = ob.santalo_point(curve)
    f0 = ob.dual_area_about(curve, (sp.x, sp.y))
    delta = 1e-3 * curve.diameter
    for k in range(8):
        ang = k * math.pi / 4.0
        x = (sp.x + delta * math.cos(ang), sp.y + delta * math.sin(ang))
        assert ob.dual_area_about(curve, x) >= f0


def test_cw_step_is_ccw_inverse(presets):
    for curve in presets.values():
        a = dynamics.chord_tail_point(curve, 0.8, 1.3)
        cw = ob.step(curve, a, orientation="cw")
        inv = ob.inverse_step(curve, a, orientation="ccw")
        assert math.hypot(cw.x - inv.x, cw.y - inv.y) < 1e-12
        cw_inv = ob.inverse_step(curve, a, orientation="cw")
        fwd = ob.step(curve, a, orientation="ccw")
        assert math.hypot(cw_inv.x - fwd.x, cw_inv.y - fwd.y) < 1e-12
