"""Cross-module invariant suite behind the `verify` command.

Every check pits a closed form against an independent route: finite
differences, direct geometry, the shoelace formula, or a second quadrature.
All sampling is deterministic (fixed seed) so reruns are byte-identical.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics, generating, jacobi, rigidity
from .curves import ConvexCurve, chi
from .quadrature import TWO_PI, periodic_trapezoid, uniform_angles

RNG_SEED = 20231005
N_SAMPLE = 100            # sample points of the map checks; twice as many chords
STENCIL_H = 1e-4          # angle step of the nine-point stencil of S(phi0, phi1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    error: Optional[str] = None     # "Type: message" of the exception a check raised

    def to_dict(self) -> dict:
        doc = {"name": self.name, "passed": self.passed, "value": self.value,
               "threshold": self.threshold}
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass(frozen=True)
class VerificationResult:
    checks: list
    all_passed: bool

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _random_chords(rng, n, t_lo=0.05, t_hi=3.0):
    phi = rng.uniform(0.0, TWO_PI, n)
    t = rng.uniform(t_lo, t_hi, n)
    return phi, t


def _random_exterior(curve, rng, n, lo=0.15, hi=1.5):
    phi = rng.uniform(0.0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(lo, hi, n))
    return [dynamics.phase_point(curve,
                                 curve.origin[0] + rho[i] * math.cos(phi[i]),
                                 curve.origin[1] + rho[i] * math.sin(phi[i]))
            for i in range(n)]


def run_verification(curve: ConvexCurve) -> VerificationResult:
    rng = np.random.default_rng(RNG_SEED)
    checks = []

    def check(name, fn, threshold):
        # a crashing check is a failed check that says why, not an aborted suite
        error = None
        try:
            value = float(fn())
        except Exception as exc:
            value = math.inf
            error = f"{type(exc).__name__}: {exc}"
        checks.append(CheckResult(name=name, passed=bool(value < threshold),
                                  value=value, threshold=float(threshold),
                                  error=error))

    cphi, ct = _random_chords(rng, 2 * N_SAMPLE)
    pts = _random_exterior(curve, rng, N_SAMPLE)
    radial = curve.radius(uniform_angles(2048))
    half = tuple(v[::2] for v in radial)   # the 1024-angle sample, bit for bit
    # samples that several checks share; a raise is not cached, so every
    # check that reads a failed sample records why
    fd_n = (cphi[:N_SAMPLE], ct[:N_SAMPLE])
    stencil = functools.cache(lambda: _s_stencil(curve, *fd_n))
    jac = functools.cache(lambda: _jacobian_fd_error(curve, *fd_n, stencil()))
    images = functools.cache(lambda: [dynamics.step(curve, p) for p in pts])
    fmap = functools.cache(lambda: _map_consistency_error(curve, pts, images()))

    check("radial_fd_consistency", lambda: _radial_fd_error(curve, rng), 1e-6)
    check("total_curvature",
          lambda: abs(rigidity.total_curvature(*radial) - TWO_PI), 1e-10)
    check("chain_rule_exactness", lambda: _chain_rule_error(curve, cphi, ct), 1e-12)
    check("fd_partial_derivatives",
          lambda: _fd_partials_error(curve, *fd_n, stencil()), 1e-5)
    check("mixed_partial_symmetry",
          lambda: _mixed_partial_error(curve, cphi[:40], ct[:40]), 1e-5)
    check("jacobian_fd_consistency", lambda: jac()[0], 1e-6)
    check("measure_density_consistency", lambda: jac()[1], 1e-5)
    check("chart_roundtrip", lambda: _roundtrip_error(curve, cphi, ct), 1e-10)
    check("triangle_area_identity",
          lambda: _shoelace_error(curve, cphi, ct), 1e-12)
    check("twist_negative",
          lambda: generating.twist_scan(curve, 128, 128, 20.0).max_s12, 0.0)
    check("symplecticity",
          lambda: max(abs(float(np.linalg.det(dynamics.differential_fd(curve, p, base=q)))
                          - 1.0) for p, q in zip(pts, images())), 1e-6)
    check("midpoint_property",
          lambda: _midpoint_error(curve, pts, images()), 1e-10)
    check("map_consistency_p", lambda: fmap()[0], 1e-9)
    check("map_consistency_phi", lambda: fmap()[1], 1e-9)
    check("inverse_roundtrip",
          lambda: _inverse_error(curve, pts[:50], images()[:50]), 1e-10)
    check("dp_form_consistency",
          lambda: jacobi.propagate_jacobi(
              jacobi.build_window(curve, pts[0], 3, 6), 0.3, 1.1).form_residual,
          1e-10)
    check("integrand_decomposition",
          lambda: _decomposition_error(curve, rng), 1e-10)
    def dual_err():
        d = rigidity.area_and_dual(*radial)
        return abs(d.area_dual - d.area_dual_alt)

    check("dual_area_routes", dual_err, 1e-10)
    check("chi_support_identity", lambda: _chi_identity_error(*half), 1e-10)

    def cs_err():
        q_val, bound = _cauchy_schwarz(*radial)
        return q_val - bound

    check("cauchy_schwarz_chain", cs_err, 1e-9)

    def two_routes():
        inum = rigidity.i_numeric(*half)
        return (abs(inum.value - rigidity.i_closed(*half))
                / max(inum.error_estimate, 1e-300))

    check("i_two_routes", two_routes, 1.0)

    if curve.kind == "circle":
        check("circle_rotation_law",
              lambda: _circle_law_error(curve, pts[:20], images()[:20]), 1e-10)
    if curve.kind == "ellipse":
        check("ellipse_foliation", lambda: _foliation_error(curve, steps=300), 1e-8)

    return VerificationResult(checks=checks, all_passed=all(c.passed for c in checks))


def _radial_fd_error(curve, rng, h=1e-4):
    phi = rng.uniform(0.0, TWO_PI, 64)
    r, rp, rpp = curve.radius(phi)
    r_p, _, _ = curve.radius(phi + h)
    r_m, _, _ = curve.radius(phi - h)
    fd1 = (r_p - r_m) / (2.0 * h)
    fd2 = (r_p - 2.0 * r + r_m) / (h * h)
    scale = max(1.0, float(np.abs(rp).max()), float(np.abs(rpp).max()))
    return max(float(np.abs(fd1 - rp).max()), float(np.abs(fd2 - rpp).max())) / scale


def _chain_rule_error(curve, cphi, ct):
    s1c, s2c = generating.chain_rule_s1_s2(curve, cphi, ct)
    d = generating._sderiv_arrays(curve, cphi, ct)
    sc = np.maximum(1.0, np.maximum(d["r0sq"], d["r1sq"]))
    return float(np.max(np.maximum(np.abs(s1c - d["S1"]), np.abs(s2c - d["S2"])) / sc))


def _roundtrip_error(curve, cphi, ct):
    a0, a1, _, _ = generating._angles_arrays(curve, cphi, ct)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    return max(float(np.abs(rphi - cphi).max()), float(np.abs(rt - ct).max()))


def _midpoint_error(curve, pts, images):
    """The midpoint M of A and T(A) lies on the curve, and A - M is tangent to
    it there, both read at M's own polar angle psi: the worse of |M -
    gamma(psi)| / diameter and the sine of the angle between A - M and
    gamma'(psi).  Nothing here comes from the tangency solve behind T."""
    a = np.array([(p.x, p.y) for p in pts])
    mx, my = 0.5 * (a + np.array([(q.x, q.y) for q in images])).T
    psi = np.arctan2(my - curve.origin[1], mx - curve.origin[0])
    gx, gy = curve.point(psi)
    tx, ty = curve.tangent(psi)
    dx, dy = a[:, 0] - mx, a[:, 1] - my
    off = np.hypot(mx - gx, my - gy) / curve.diameter
    sine = np.abs(dx * ty - dy * tx) / (np.hypot(dx, dy) * np.hypot(tx, ty))
    return float(max(off.max(), sine.max()))


def _inverse_error(curve, pts, images):
    worst = 0.0
    for p, q in zip(pts, images):
        back = dynamics.inverse_step(curve, q)
        worst = max(worst, math.hypot(back.x - p.x, back.y - p.y))
    return worst / max(1.0, curve.diameter)


def _decomposition_error(curve, rng):
    iphi, it = _random_chords(rng, 1000, 1e-3, 40.0)
    total, f1, f2, f3 = rigidity._integrand_arrays(curve, iphi, it)
    return float(np.max(np.abs(f1 + f2 + f3 - total) / np.maximum(1.0, np.abs(total))))


# -- helpers -------------------------------------------------------------------


def _s_stencil(curve, cphi, ct):
    """S at (phi0 + da h, phi1 + db h) of each chord, h = STENCIL_H, keyed by
    (da, db) in {-1, 0, 1}^2."""
    a0, a1, _, _ = generating._angles_arrays(curve, cphi, ct)
    s = {}
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            phi, t = generating._chord_from_angles_arrays(
                curve, a0 + da * STENCIL_H, a1 + db * STENCIL_H, guess=(cphi, ct))
            r, _, _ = curve.radius(phi)
            s[(da, db)] = t * r * r
    return s


def _fd_partials_error(curve, cphi, ct, s):
    d = generating._sderiv_arrays(curve, cphi, ct)
    h = STENCIL_H
    fd = {
        "S1": (s[(1, 0)] - s[(-1, 0)]) / (2 * h),
        "S2": (s[(0, 1)] - s[(0, -1)]) / (2 * h),
        "S11": (s[(1, 0)] - 2 * s[(0, 0)] + s[(-1, 0)]) / h ** 2,
        "S22": (s[(0, 1)] - 2 * s[(0, 0)] + s[(0, -1)]) / h ** 2,
        "S12": (s[(1, 1)] - s[(1, -1)] - s[(-1, 1)] + s[(-1, -1)]) / (4 * h ** 2),
    }
    worst = 0.0
    for key, approx in fd.items():
        rel = np.abs(approx - d[key]) / np.maximum(1.0, np.abs(d[key]))
        worst = max(worst, float(rel.max()))
    return worst


def _mixed_partial_error(curve, cphi, ct, h=1e-4):
    """d(S1)/dphi1 and d(S2)/dphi0 from the closed first partials must both
    reproduce the closed S12."""
    a0, a1, _, _ = generating._angles_arrays(curve, cphi, ct)
    d = generating._sderiv_arrays(curve, cphi, ct)

    def s1_at(b):
        phi, t = generating._chord_from_angles_arrays(curve, a0, b, guess=(cphi, ct))
        return generating._sderiv_arrays(curve, phi, t)["S1"]

    def s2_at(a):
        phi, t = generating._chord_from_angles_arrays(curve, a, a1, guess=(cphi, ct))
        return generating._sderiv_arrays(curve, phi, t)["S2"]

    g1 = (s1_at(a1 + h) - s1_at(a1 - h)) / (2 * h)
    g2 = (s2_at(a0 + h) - s2_at(a0 - h)) / (2 * h)
    sc = np.maximum(1.0, np.abs(d["S12"]))
    return float(max(np.max(np.abs(g1 - d["S12"]) / sc),
                     np.max(np.abs(g2 - d["S12"]) / sc),
                     np.max(np.abs(g1 - g2) / sc)))


def _jacobian_fd_error(curve, cphi, ct, s, h=1e-6):
    d = generating._sderiv_arrays(curve, cphi, ct)

    def angles(p, t):
        a0, a1, _, _ = generating._angles_arrays(curve, p, t)
        return a0, a1

    a0pp, a1pp = angles(cphi + h, ct)
    a0pm, a1pm = angles(cphi - h, ct)
    a0tp, a1tp = angles(cphi, ct + h)
    a0tm, a1tm = angles(cphi, ct - h)
    j00 = (a0pp - a0pm) / (2 * h)
    j01 = (a0tp - a0tm) / (2 * h)
    j10 = (a1pp - a1pm) / (2 * h)
    j11 = (a1tp - a1tm) / (2 * h)
    det_fd = j00 * j11 - j01 * j10
    rel_j = float(np.max(np.abs(det_fd - d["J"]) / np.abs(d["J"])))
    mu_closed = -d["S12"] * d["J"]
    # S12 from the corners of the S stencil, paired with the FD Jacobian
    s12_fd = (s[(1, 1)] - s[(1, -1)] - s[(-1, 1)] + s[(-1, -1)]) / (4 * STENCIL_H * STENCIL_H)
    mu_fd = -s12_fd * det_fd
    rel_mu = float(np.max(np.abs(mu_fd - mu_closed) / np.maximum(1.0, np.abs(mu_closed))))
    return rel_j, rel_mu


def _shoelace_error(curve, cphi, ct):
    r, rp, _ = curve.radius(cphi)
    c, s = np.cos(cphi), np.sin(cphi)
    gx, gy = r * c, r * s
    tx, ty = rp * c - r * s, rp * s + r * c
    m0x, m0y = gx - ct * tx, gy - ct * ty
    m1x, m1y = gx + ct * tx, gy + ct * ty
    shoelace = 0.5 * np.abs(m0x * m1y - m0y * m1x)
    svals = ct * r * r
    return float(np.max(np.abs(shoelace - svals) / np.maximum(1.0, svals)))


def _map_consistency_error(curve, pts, images):
    p0 = np.array([p.p for p in pts])
    f0 = np.array([p.phi for p in pts])
    p1, f1 = generating.forward_map_batch(curve, p0, f0)
    err_p = err_f = 0.0
    for i, q in enumerate(images):
        err_p = max(err_p, abs(q.p - p1[i]) / max(1.0, q.p))
        dphi = (q.phi - f1[i] + math.pi) % TWO_PI - math.pi
        err_f = max(err_f, abs(dphi))
    return err_p, err_f


def _chi_identity_error(r, rp, rpp):
    k = chi(r, rp, rpp)
    h, _, hpp = rigidity.dual_support(r, rp, rpp)
    chi_h = (h + hpp) / h ** 3
    return float(np.max(np.abs(k - chi_h) / np.maximum(1.0, np.abs(k))))


def _cauchy_schwarz(r, rp, rpp):
    h, _, hpp = rigidity.dual_support(r, rp, rpp)
    q_val = rigidity.q_integral(r, rp, rpp)
    bound_sq = periodic_trapezoid(h ** -2) * periodic_trapezoid(h * h + h * hpp)
    return q_val, math.sqrt(bound_sq)


def _circle_law_error(curve, pts, images):
    radius = curve.radius_value
    worst = 0.0
    for p, q in zip(pts, images):
        rho = math.sqrt(2.0 * p.p)
        worst = max(worst, abs(math.sqrt(2.0 * q.p) - rho))
        adv = (q.phi - p.phi) % TWO_PI
        worst = max(worst, abs(adv - 2.0 * math.acos(radius / rho)))
    return worst


def _foliation_error(curve, steps=300):
    a, b = curve.axis_a, curve.axis_b
    seed = dynamics.phase_point(curve, curve.origin[0] + 2.0 * a, curve.origin[1])
    pts = dynamics.orbit(curve, seed, steps)
    q0 = (pts[0].x - curve.origin[0]) ** 2 / a ** 2 + (pts[0].y - curve.origin[1]) ** 2 / b ** 2
    worst = 0.0
    for p in pts:
        q = (p.x - curve.origin[0]) ** 2 / a ** 2 + (p.y - curve.origin[1]) ** 2 / b ** 2
        worst = max(worst, abs(q - q0) / q0)
    return worst
