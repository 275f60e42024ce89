"""Cross-module invariant suite behind the `verify` command.

Every check pits a closed form against an independent route: finite
differences, direct geometry, the shoelace formula, or a second quadrature.
All sampling is deterministic (fixed seed) so reruns are byte-identical.

A sample that several checks read is evaluated once: the 200 sample chords'
radial data, closed forms and endpoint angles, one stencil of nine chart
inversions about the first 100 for every S-derivative check, run as 900
lanes of one inversion, and the sample points' images.  The kernels are
elementwise, so a slice of a bundle has the bits of the same call on the
slice.

The sample points' map steps do not depend on one another, so they run as
lanes of dynamics' lane twin of the tangency solve, bit for bit the scalar
step: one call for the 100 images, one for the 400 stencil images of the
symplecticity check and one for the 50 inverse steps.  A failing lane raises
the scalar's error for the first failing point, so a check's error text is
what stepping the points one at a time would give.  The ellipse foliation
check follows one orbit, whose steps each need the last, on the scalar step.
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
STENCIL_H = 1e-4          # angle step of the central differences of S(phi0, phi1), r, S1, S2
JACOBIAN_FD_H = 1e-6      # (phi, t) step of the chord-to-angles Jacobian
FOLIATION_STEPS = 300     # orbit length of the ellipse foliation check
EXTERIOR_GAP = (0.15, 1.5)  # range of |A| / r - 1 of the sample points


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    error: Optional[str] = None     # "Type: message" of the exception a check raised


@dataclass(frozen=True)
class VerificationResult:
    checks: list
    all_passed: bool


def _random_chords(rng, n, t_lo=0.05, t_hi=3.0):
    phi = rng.uniform(0.0, TWO_PI, n)
    t = rng.uniform(t_lo, t_hi, n)
    return phi, t


def _random_exterior(curve, rng, n):
    phi = rng.uniform(0.0, TWO_PI, n)
    r, _, _ = curve.radius(phi)
    rho = r * (1.0 + rng.uniform(*EXTERIOR_GAP, n))
    return dynamics.phase_lanes(curve, curve.origin[0] + rho * np.cos(phi),
                                curve.origin[1] + rho * np.sin(phi))


def run_verification(curve: ConvexCurve) -> VerificationResult:
    rng = np.random.default_rng(RNG_SEED)
    checks = []

    def check(name, fn, threshold):
        # a crashing check is a failed check that says why, not an aborted suite;
        # so is one whose arithmetic overflows or makes a NaN
        error = None
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
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
    # check that reads a failed sample records why.  Overflow here is left
    # to the checks that read the sample, which raise on their own arithmetic
    with np.errstate(all="ignore"):
        chord_radial = curve.radius(cphi)
        closed = generating.s_closed_forms(*chord_radial, ct)
        a0, a1, _, _ = generating._angles_arrays(curve, cphi, ct, chord_radial)
    n = N_SAMPLE
    fd_n = (cphi[:n], ct[:n])
    closed_n = {k: v[:n] for k, v in closed.items()}
    stencil = functools.cache(lambda: _s_stencil(curve, a0[:n], a1[:n], *fd_n, closed_n))
    jac = functools.cache(lambda: _jacobian_fd_error(
        curve, *fd_n, tuple(v[:n] for v in chord_radial), closed_n, stencil()[1]["S12"]))
    images = functools.cache(lambda: dynamics.step_lanes(curve, pts, 1))
    fmap = functools.cache(lambda: _map_consistency_error(curve, pts, images()))

    check("radial_fd_consistency", lambda: _radial_fd_error(curve, rng), 1e-6)
    check("total_curvature",
          lambda: abs(rigidity.total_curvature(*radial) - TWO_PI), 1e-10)
    check("chain_rule_exactness", lambda: _chain_rule_error(curve, cphi, ct, closed), 1e-12)
    check("fd_partial_derivatives",
          lambda: _fd_partials_error(closed_n, stencil()[1]), 1e-5)
    check("mixed_partial_symmetry",
          lambda: _mixed_partial_error(closed_n, stencil()[0]), 1e-5)
    check("jacobian_fd_consistency", lambda: jac()[0], 1e-6)
    check("measure_density_consistency", lambda: jac()[1], 1e-5)
    check("chart_roundtrip", lambda: _roundtrip_error(curve, cphi, ct, a0, a1), 1e-10)
    check("triangle_area_identity",
          lambda: _shoelace_error(cphi, ct, chord_radial, closed["S"]), 1e-12)
    check("twist_negative",
          lambda: generating.twist_scan(curve, 128, 128, 20.0).max_s12, 0.0)
    check("symplecticity", lambda: _symplecticity_error(curve, pts, images()), 1e-6)
    check("midpoint_property",
          lambda: _midpoint_error(curve, pts, images()), 1e-10)
    check("map_consistency_p", lambda: fmap()[0], 1e-9)
    check("map_consistency_phi", lambda: fmap()[1], 1e-9)
    check("inverse_roundtrip",
          lambda: _inverse_error(curve, pts[:50], images()[:50]), 1e-10)
    check("dp_form_consistency",
          lambda: jacobi.propagate_jacobi(
              jacobi.build_window(curve, dynamics.phase_point(curve, pts.x[0], pts.y[0]),
                                  3, 6), 0.3, 1.1).form_residual,
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
        check("ellipse_foliation", lambda: _foliation_error(curve), 1e-8)

    return VerificationResult(checks=checks, all_passed=all(c.passed for c in checks))


def _radial_fd_error(curve, rng):
    phi = rng.uniform(0.0, TWO_PI, 64)
    r, rp, rpp = curve.radius(phi)
    r_p, _, _ = curve.radius(phi + STENCIL_H)
    r_m, _, _ = curve.radius(phi - STENCIL_H)
    fd1 = (r_p - r_m) / (2.0 * STENCIL_H)
    fd2 = (r_p - 2.0 * r + r_m) / (STENCIL_H * STENCIL_H)
    scale = max(1.0, float(np.abs(rp).max()), float(np.abs(rpp).max()))
    return float(np.max([np.abs(fd1 - rp).max(), np.abs(fd2 - rpp).max()])) / scale


def _chain_rule_error(curve, cphi, ct, d):
    s1c, s2c = generating.chain_rule_s1_s2(curve, cphi, ct)
    sc = np.maximum(1.0, np.maximum(d["r0sq"], d["r1sq"]))
    return float(np.max(np.maximum(np.abs(s1c - d["S1"]), np.abs(s2c - d["S2"])) / sc))


def _roundtrip_error(curve, cphi, ct, a0, a1):
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    return float(np.max([np.abs(rphi - cphi).max(), np.abs(rt - ct).max()]))


def _midpoint_error(curve, pts, images):
    """The midpoint M of A and T(A) lies on the curve, and A - M is tangent to
    it there, both read at M's own polar angle psi: the worse of |M -
    gamma(psi)| / diameter and the sine of the angle between A - M and
    gamma'(psi).  Nothing here comes from the tangency solve behind T."""
    mx, my = 0.5 * (pts.x + images.x), 0.5 * (pts.y + images.y)
    psi = np.arctan2(my - curve.origin[1], mx - curve.origin[0])
    c, s = np.cos(psi), np.sin(psi)
    r, r1, _ = curve.radius(psi, cs=(c, s))
    gx, gy = curve.origin[0] + r * c, curve.origin[1] + r * s
    tx, ty = r1 * c - r * s, r1 * s + r * c
    dx, dy = pts.x - mx, pts.y - my
    off = np.hypot(mx - gx, my - gy) / curve.diameter
    sine = np.abs(dx * ty - dy * tx) / (np.hypot(dx, dy) * np.hypot(tx, ty))
    return float(np.max([off.max(), sine.max()]))


def _symplecticity_error(curve, pts, images):
    d = dynamics.differential_fd_lanes(curve, pts.p, pts.phi, images.phi)
    return float(np.abs(np.linalg.det(d) - 1.0).max())


def _inverse_error(curve, pts, images):
    back = dynamics.step_lanes(curve, images, -1)
    worst = np.max(list(map(math.hypot, (back.x - pts.x).tolist(), (back.y - pts.y).tolist())))
    return float(worst) / max(1.0, curve.diameter)


def _decomposition_error(curve, rng):
    iphi, it = _random_chords(rng, 1000, 1e-3, 40.0)
    total, f1, f2, f3 = rigidity._integrand_arrays(curve, iphi, it)
    return float(np.max(np.abs(f1 + f2 + f3 - total) / np.maximum(1.0, np.abs(total))))


# -- helpers -------------------------------------------------------------------


def _s_stencil(curve, a0, a1, cphi, ct, closed):
    """The closed forms at (a0 + da h, a1 + db h), h = STENCIL_H, keyed by (da,
    db) in {-1, 0, 1}^2, and the central differences of S across them; S is
    t r r there, the finite-difference route's own S.  The nine pairs are
    lanes of one chart inversion, each starting from its tangency angle to
    first order in h, dphi / dphi_i = r_i^2 / w, and of one radius call."""
    h = STENCIL_H
    keys = [(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
    w = 2.0 * (closed["chi"] * ct * ct + closed["S"] / ct)    # 2 (chi t^2 + r^2)
    phi, t = generating._chord_from_angles_arrays(
        curve, np.concatenate([a0 + da * h for da, _ in keys]),
        np.concatenate([a1 + db * h for _, db in keys]),
        np.concatenate([cphi + h * (da * closed["r0sq"] + db * closed["r1sq"]) / w
                        for da, db in keys]))
    r, rp, rpp = curve.radius(phi)
    bundle = {k: v.reshape(9, -1) for k, v in generating.s_closed_forms(r, rp, rpp, t).items()}
    forms = {key: {k: v[i] for k, v in bundle.items()} for i, key in enumerate(keys)}
    s = dict(zip(keys, (t * r * r).reshape(9, -1)))
    return forms, {
        "S1": (s[(1, 0)] - s[(-1, 0)]) / (2 * h),
        "S2": (s[(0, 1)] - s[(0, -1)]) / (2 * h),
        "S11": (s[(1, 0)] - 2 * s[(0, 0)] + s[(-1, 0)]) / h ** 2,
        "S22": (s[(0, 1)] - 2 * s[(0, 0)] + s[(0, -1)]) / h ** 2,
        "S12": (s[(1, 1)] - s[(1, -1)] - s[(-1, 1)] + s[(-1, -1)]) / (4 * h ** 2),
    }


def _fd_partials_error(d, fd):
    return float(np.max([np.max(np.abs(approx - d[key]) / np.maximum(1.0, np.abs(d[key])))
                         for key, approx in fd.items()]))


def _mixed_partial_error(d, stencil):
    """d(S1)/dphi1 and d(S2)/dphi0 from the closed first partials across the
    stencil must both reproduce the closed S12."""
    g1 = (stencil[(0, 1)]["S1"] - stencil[(0, -1)]["S1"]) / (2 * STENCIL_H)
    g2 = (stencil[(1, 0)]["S2"] - stencil[(-1, 0)]["S2"]) / (2 * STENCIL_H)
    sc = np.maximum(1.0, np.abs(d["S12"]))
    return float(np.max([np.max(np.abs(g1 - d["S12"]) / sc),
                         np.max(np.abs(g2 - d["S12"]) / sc),
                         np.max(np.abs(g1 - g2) / sc)]))


def _jacobian_fd_error(curve, cphi, ct, radial, d, s12_fd):
    h = JACOBIAN_FD_H
    a0pp, a1pp, _, _ = generating._angles_arrays(curve, cphi + h, ct)
    a0pm, a1pm, _, _ = generating._angles_arrays(curve, cphi - h, ct)
    # the t steps keep phi, so they read the chords' radial data
    a0tp, a1tp, _, _ = generating._angles_arrays(curve, cphi, ct + h, radial)
    a0tm, a1tm, _, _ = generating._angles_arrays(curve, cphi, ct - h, radial)
    j00 = (a0pp - a0pm) / (2 * h)
    j01 = (a0tp - a0tm) / (2 * h)
    j10 = (a1pp - a1pm) / (2 * h)
    j11 = (a1tp - a1tm) / (2 * h)
    det_fd = j00 * j11 - j01 * j10
    rel_j = float(np.max(np.abs(det_fd - d["J"]) / np.abs(d["J"])))
    mu_closed = -d["S12"] * d["J"]
    # S12 from the corners of the S stencil, paired with the FD Jacobian
    mu_fd = -s12_fd * det_fd
    rel_mu = float(np.max(np.abs(mu_fd - mu_closed) / np.maximum(1.0, np.abs(mu_closed))))
    return rel_j, rel_mu


def _shoelace_error(cphi, ct, radial, svals):
    """The shoelace area of the triangle (origin, M0, M1), which is t r^2 for
    any r and r', against the package's closed-form S."""
    r, rp, _ = radial
    c, s = np.cos(cphi), np.sin(cphi)
    gx, gy = r * c, r * s
    tx, ty = rp * c - r * s, rp * s + r * c
    m0x, m0y = gx - ct * tx, gy - ct * ty
    m1x, m1y = gx + ct * tx, gy + ct * ty
    shoelace = 0.5 * np.abs(m0x * m1y - m0y * m1x)
    return float(np.max(np.abs(shoelace - svals) / np.maximum(1.0, svals)))


def _map_consistency_error(curve, pts, images):
    p1, f1 = generating.forward_map_batch(curve, pts.p, pts.phi)
    dphi = (images.phi - f1 + math.pi) % TWO_PI - math.pi
    return (float(np.max(np.abs(images.p - p1) / np.maximum(1.0, images.p))),
            float(np.max(np.abs(dphi))))


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
    """T keeps |A| and turns A by 2 arccos(R / |A|): the worse of the change
    in |A| relative to the radius R and the error of the turn."""
    radius = curve.radius_value
    errors = []
    for p, phi, q, q_phi in zip(pts.p.tolist(), pts.phi.tolist(), images.p.tolist(),
                                images.phi.tolist()):
        rho = math.sqrt(2.0 * p)
        adv = (q_phi - phi) % TWO_PI
        errors += [abs(math.sqrt(2.0 * q) - rho) / radius,
                   abs(adv - 2.0 * math.acos(radius / rho))]
    return float(np.max(errors))


def _foliation_error(curve):
    seed = dynamics.phase_point(curve, curve.origin[0] + 2.0 * curve.axis_a, curve.origin[1])
    return dynamics.ellipse_invariant_deviation(
        curve, dynamics.orbit(curve, seed, FOLIATION_STEPS))
