"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS line with its measured numbers once its
assertions hold, so a verbose run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import cli, dynamics, generating, rigidity
from outerbilliard.quadrature import TWO_PI

from conftest import radial
from oracles import reorigin

PI_SQ = math.pi ** 2


def _exterior_batch(curve, rng, n):
    phi = rng.uniform(0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(0.15, 1.6, n))
    return phi, rho


def test_c1_generating_function_exactness(presets):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_exact = 0.0
    worst_fd = 0.0
    for curve in presets.values():
        phi = rng.uniform(0, TWO_PI, 1000)
        t = rng.uniform(0.05, 3.0, 1000)
        s1c, s2c = ob.chain_rule_s1_s2(curve, phi, t)
        d = generating._sderiv_arrays(curve, phi, t)
        scale = np.maximum(1.0, np.maximum(d["r0sq"], d["r1sq"]))
        worst_exact = max(worst_exact, float(np.max(
            np.maximum(np.abs(s1c - d["S1"]), np.abs(s2c - d["S2"])) / scale)))

        a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
        h = 1e-4

        def s_at(da, db):
            p, tt = generating._chord_from_angles_arrays(
                curve, a0 + da, a1 + db, start=phi)
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
            worst_fd = max(worst_fd, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst_exact < 1e-12
    assert worst_fd < 1e-5
    assert elapsed < 10.0
    print(f"\nPASS criterion 1 (generating-function exactness): "
          f"chain-rule residual {worst_exact:.2e} < 1e-12, "
          f"FD residual {worst_fd:.2e} < 1e-5, {elapsed:.1f}s < 10s")


def test_c2_twist_condition(presets):
    t0 = time.perf_counter()
    worst = -math.inf
    for curve in presets.values():
        scan = ob.twist_scan(curve, 256, 256, 20.0)
        worst = max(worst, scan.max_s12)
    elapsed = time.perf_counter() - t0
    assert worst < 0.0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2 (twist condition): max S12 = {worst:.6g} < 0 "
          f"over 256x256 grids, t <= 20, all presets, {elapsed:.1f}s < 5s")


def test_c3_map_consistency(presets):
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_map = 0.0
    worst_det = 0.0
    worst_rt = 0.0
    for curve in presets.values():
        phi, rho = _exterior_batch(curve, rng, 1000)
        p0 = 0.5 * rho * rho
        p1, phi1 = generating.forward_map_batch(curve, p0, phi)
        for i in range(1000):
            a = ob.phase_point(curve, curve.origin[0] + rho[i] * math.cos(phi[i]),
                               curve.origin[1] + rho[i] * math.sin(phi[i]))
            q = ob.step(curve, a)
            dphi = (q.phi - phi1[i] + math.pi) % TWO_PI - math.pi
            worst_map = max(worst_map, abs(q.p - p1[i]) / max(1.0, q.p), abs(dphi))
            if i < 100:
                worst_det = max(worst_det, abs(
                    float(np.linalg.det(ob.differential_fd(curve, a))) - 1.0))
            if i < 300:
                back = ob.inverse_step(curve, q)
                worst_rt = max(worst_rt, math.hypot(back.x - a.x, back.y - a.y))
    elapsed = time.perf_counter() - t0
    assert worst_map < 1e-9
    assert worst_det < 1e-6
    assert worst_rt < 1e-10
    assert elapsed < 30.0
    print(f"\nPASS criterion 3 (map consistency): step vs generating-function map "
          f"{worst_map:.2e} < 1e-9, |det DT - 1| {worst_det:.2e} < 1e-6, "
          f"inverse round-trip {worst_rt:.2e} < 1e-10, {elapsed:.1f}s < 30s")


def test_c4_circle_laws(unit_circle):
    rng = np.random.default_rng(104)
    worst_rot = 0.0
    for _ in range(50):
        rho = float(rng.uniform(1.1, 4.0))
        ang = float(rng.uniform(0, TWO_PI))
        a = ob.phase_point(unit_circle, rho * math.cos(ang), rho * math.sin(ang))
        q = ob.step(unit_circle, a)
        worst_rot = max(worst_rot, abs(math.sqrt(2 * q.p) - rho))
        adv = (q.phi - a.phi) % TWO_PI
        worst_rot = max(worst_rot, abs(adv - 2.0 * math.acos(1.0 / rho)))
    q_val = ob.q_integral(*radial(unit_circle))
    ic = ob.i_closed(*radial(unit_circle))
    inum = ob.i_numeric(*radial(unit_circle))
    assert worst_rot < 1e-10
    assert abs(q_val - TWO_PI) < 1e-12
    assert abs(ic) < 1e-9
    assert abs(inum.value) < 1e-9
    print(f"\nPASS criterion 4 (circle laws): rotation/radius residual "
          f"{worst_rot:.2e} < 1e-10, |Q - 2pi| = {abs(q_val - TWO_PI):.2e} < 1e-12, "
          f"I = ({ic:.2e}, {inum.value:.2e}) both < 1e-9")


def test_c5_ellipse_equality_case(ellipse21):
    t0 = time.perf_counter()
    q_val = ob.q_integral(*radial(ellipse21))
    ic = ob.i_closed(*radial(ellipse21))
    inum = ob.i_numeric(*radial(ellipse21))
    dual = ob.area_and_dual(*radial(ellipse21))

    pts = ob.orbit(ellipse21, ob.phase_point(ellipse21, 4.0, 0.0), 1000)
    worst_fol = max(abs(p.x**2 / 16.0 + p.y**2 / 4.0 - 1.0) for p in pts)

    scan = ob.conjugate_grid_scan(ellipse21, phi_count=20, t_count=20,
                                  t_max=3.0, n_max=10_000)
    elapsed = time.perf_counter() - t0
    assert abs(q_val - TWO_PI) < 1e-7
    assert abs(ic) < 1e-6
    assert abs(inum.value) < 1e-6
    assert abs(dual.bs_product - PI_SQ) < 1e-7
    assert worst_fol < 1e-8
    assert scan.complete and scan.found_count == 0
    assert elapsed < 120.0
    print(f"\nPASS criterion 5 (ellipse equality case): |Q - 2pi| = "
          f"{abs(q_val - TWO_PI):.2e} < 1e-7, |I| = ({abs(ic):.2e}, "
          f"{abs(inum.value):.2e}) < 1e-6, |bs - pi^2| = "
          f"{abs(dual.bs_product - PI_SQ):.2e} < 1e-7, foliation dev "
          f"{worst_fol:.2e} < 1e-8 over 1000 steps, no conjugate point on "
          f"20x20 grid to n = 10^4, {elapsed:.0f}s < 120s")


def test_c6_non_ellipse_defect(wobbly3):
    t0 = time.perf_counter()
    sp = ob.santalo_point(wobbly3)
    moved = math.hypot(sp.x - wobbly3.origin[0], sp.y - wobbly3.origin[1])
    curve = (reorigin(wobbly3, (sp.x, sp.y))
             if moved > 1e-8 * wobbly3.diameter else wobbly3)

    q1 = ob.q_integral(*radial(curve, 2048))
    q2 = ob.q_integral(*radial(curve, 4096))
    dual = ob.area_and_dual(*radial(curve))
    scan = ob.conjugate_grid_scan(curve, phi_count=40, t_count=40, t_max=3.0,
                                  n_max=10_000, stop_at_first=True)
    elapsed = time.perf_counter() - t0
    assert abs(q1 - q2) < 1e-9
    assert q1 - TWO_PI < -1e-6
    assert dual.bs_product < PI_SQ - 1e-6
    assert scan.found_count
    n_first = int(scan.n_conjugate[scan.n_conjugate >= 0][0])
    assert n_first <= 10_000
    assert elapsed < 300.0
    print(f"\nPASS criterion 6 (non-ellipse defect at the Santalo point): "
          f"Q - 2pi = {q1 - TWO_PI:.8f} < -1e-6 (two-grid agreement "
          f"{abs(q1 - q2):.1e} < 1e-9), bs product {dual.bs_product:.8f} < "
          f"pi^2 - 1e-6, conjugate point found at n = {n_first}, "
          f"{elapsed:.0f}s < 300s")


def test_c7_integral_identities(presets):
    rng = np.random.default_rng(107)
    worst_dec = 0.0
    worst_tc = 0.0
    worst_two_routes = []
    for curve in presets.values():
        phi = rng.uniform(0, TWO_PI, 10_000)
        t = rng.uniform(1e-3, 40.0, 10_000)
        total, f1, f2, f3 = rigidity._integrand_arrays(curve, phi, t)
        worst_dec = max(worst_dec, float(np.max(
            np.abs(f1 + f2 + f3 - total) / np.maximum(1.0, np.abs(total)))))
        worst_tc = max(worst_tc, abs(ob.total_curvature(*radial(curve)) - TWO_PI))
        inum = ob.i_numeric(*radial(curve))
        ic = ob.i_closed(*radial(curve))
        worst_two_routes.append(abs(inum.value - ic) / max(inum.error_estimate, 1e-300))
    tails = [ob.i_numeric(*radial(presets["fourier"]), t_max=tm).value
             for tm in (25.0, 50.0, 100.0)]
    spread = max(tails) - min(tails)
    assert worst_dec < 1e-10
    assert all(x <= 1.0 for x in worst_two_routes)
    assert worst_tc < 1e-9
    assert spread < 1e-8
    print(f"\nPASS criterion 7 (integral identities): decomposition residual "
          f"{worst_dec:.2e} < 1e-10 at 10^4 points, numeric-vs-closed I within "
          f"reported error (worst ratio {max(worst_two_routes):.2f}), total "
          f"curvature dev {worst_tc:.2e} < 1e-9, t_max 25/50/100 spread "
          f"{spread:.1e} < 1e-8")


def test_c8_hopf_field(unit_circle, ellipse21, wobbly3):
    seeds = [(unit_circle, dynamics.chord_tail_point(unit_circle, 0.0, 1.0)),
             (ellipse21, dynamics.chord_tail_point(ellipse21, 0.0, 1.0)),
             (ellipse21, dynamics.chord_tail_point(ellipse21, 1.2, 0.6))]
    worst_rel = 0.0
    for curve, seed in seeds:
        om = ob.hopf_omega(curve, seed)
        assert om.converged and om.minimizing
        assert om.bound_low < om.omega < om.bound_high
        assert om.relation_fwd_residual < 1e-8
        assert om.relation_here_residual < 1e-8
        worst_rel = max(worst_rel, om.relation_fwd_residual, om.relation_here_residual)

    # seeds with conjugate points must be reported, not given a bogus omega
    scan = ob.conjugate_grid_scan(wobbly3, phi_count=8, t_count=8, t_max=3.0,
                                  n_max=2000)
    hits = scan.n_conjugate >= 0
    flagged = 0
    for phi, t in zip(scan.seed_phi[hits][:5].tolist(), scan.seed_t[hits][:5].tolist()):
        seed = dynamics.chord_tail_point(wobbly3, phi, t)
        om = ob.hopf_omega(wobbly3, seed)
        assert not om.minimizing
        assert not om.converged
        assert om.omega is None
        flagged += 1
    assert flagged > 0
    print(f"\nPASS criterion 8 (invariant-slope machinery): converged on circle "
          f"and ellipse orbits with strict bounds, evolution-relation residuals "
          f"{worst_rel:.2e} < 1e-8; {flagged} conjugate-point seeds reported as "
          f"positivity failures")


def test_c9_determinism(wobbly_file_c9, tmp_path):
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"rig_w{workers}.json"
        code = cli.main(["--curve", wobbly_file_c9, "--cmd", "rigidity",
                         "--conjugate-scan", "--steps", "300",
                         "--workers", str(workers), "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(f"\nPASS criterion 9 (determinism): rigidity reports byte-identical "
          f"for worker counts 1, 4, 8 ({len(blobs[0])} bytes)")


@pytest.fixture()
def wobbly_file_c9(tmp_path):
    p = tmp_path / "wobbly.json"
    p.write_text('{"kind": "fourier", "a0": 1.0, "cos": [0, 0, 0.05]}')
    return str(p)
