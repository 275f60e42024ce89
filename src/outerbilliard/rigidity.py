"""Integral-geometric rigidity quantities.

The headline scalar is Q = Int_0^2pi sqrt(chi)/r dphi.  When every orbit is
locally minimizing, integrating the weighted Jacobi-positivity inequality
with weights A = 1/r0^2, B = 1/r1^2 over the whole exterior forces
I = pi (Q - 2pi) >= 0; placing the origin at the Santalo point and running
Cauchy-Schwarz against the Blaschke-Santalo inequality forces Q <= 2pi with
equality only for ellipses.  A non-ellipse therefore shows Q < 2pi at its
Santalo point, certifying orbits that are not locally minimizing.

I is evaluated two independent ways: the closed form pi (Q - 2pi), and a 2-D
quadrature of the reduced weighted integrand over (phi, t) with analytic
tails for t > t_max.  The tails use the arctangent antiderivative of the
first decomposition term and the combined antiderivative of the other two,
in which the logarithms cancel as t -> infinity.  Both take (r, r', r'') on
uniform angles, which the report samples once about the Santalo point by ray
solves (radius_about), with no refit of the curve there.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curves import ConvexCurve, PlanePoint, _angle_map_start, area_centroid, chi, radius_about
from .curves import reorigin  # noqa: F401  (unused; bench/tracer.py wraps the name)
from .errors import ConvergenceError, NotInteriorError
from .generating import _sderiv_arrays  # noqa: F401  (unused; bench/tracer.py wraps the name)
from .optimize import nelder_mead  # noqa: F401  (unused; bench/tracer.py wraps the name)
from .quadrature import TWO_PI, gauss_panels, periodic_trapezoid, uniform_angles

EQUALITY_TOL = 1e-7
SANTALO_SNAP = 1e-8       # relative origin distance below which the origin stays put
SANTALO_STEP_TOL = 1e-15  # Newton step tolerance, relative to max(1, diameter)
I_BLOCK = 16384           # (phi, t) nodes per i_numeric block; see i_numeric


# -- one-dimensional integrals ---------------------------------------------------

def q_integral(r, rp, rpp) -> float:
    """Q = Int sqrt(chi)/r dphi; equals 2pi exactly for centered circles and
    ellipses, and is < 2pi for any non-ellipse about its Santalo point."""
    return periodic_trapezoid(np.sqrt(chi(r, rp, rpp)) / r)


def total_curvature(r, rp, rpp) -> float:
    """Int chi/(r^2 + r'^2) dphi = Int k ds; 2pi for any simple closed convex curve."""
    return periodic_trapezoid(chi(r, rp, rpp) / (r * r + rp * rp))


def i_closed(r, rp, rpp) -> float:
    """pi (Q - 2pi); the t-integral of the weighted integrand done in closed form."""
    return math.pi * (q_integral(r, rp, rpp) - TWO_PI)


# -- the weighted integrand ------------------------------------------------------

@dataclass(frozen=True)
class IntegrandSample:
    phi: float
    t: float
    f1: float
    f2: float
    f3: float
    total: float


def _weighted_total(r, rp, rpp, t):
    """(A^2 S11 + 2AB S12 + B^2 S22)(-S12) J, A = 1/r0^2, B = 1/r1^2, reduced to
    2 chi t^2 (alpha t^2 + beta) / ((chi t^2 + r^2) r0^2 r1^2) with alpha =
    (r^2 + r'^2)^2 + chi (r'^2 - r^2) = r'^2 (r^2 + 3 r'^2) + r r'' (r^2 - r'^2)
    and beta = r^2 (r r'' - 3 r'^2): S12 J = -chi t in s_closed_forms, and the
    t^5 terms of the rest cancel exactly.  alpha and beta vanish term by term
    on a centred circle; r0^2 r1^2 = (p - m)(p + m).  Floats or arrays."""
    k = chi(r, rp, rpp)
    r2, rp2, t2 = r * r, rp * rp, t * t
    alpha = rp2 * (r2 + 3.0 * rp2) + r * rpp * ((r - rp) * (r + rp))
    beta = r2 * (r * rpp - 3.0 * rp2)
    p, m = r2 + t2 * (r2 + rp2), t * (2.0 * r * rp)
    return (t2 * ((2.0 * k * alpha) * t2 + 2.0 * k * beta)
            / ((k * t2 + r2) * (p - m) * (p + m)))


def _integrand_arrays(curve: ConvexCurve, phi, t):
    """Weighted integrand and its split, with r0^2, r1^2 as in s_closed_forms."""
    r, rp, rpp = curve.radius(phi)
    k, r2 = chi(r, rp, rpp), r * r
    u0, u1 = r - t * rp, r + t * rp
    f1 = 2.0 * k / (k * t * t + r2)
    f2 = k * (t * rp - r) / (r * (u0 * u0 + t * t * r2))
    f3 = -k * (r + t * rp) / (r * (u1 * u1 + t * t * r2))
    return _weighted_total(r, rp, rpp, t), f1, f2, f3


def integrand(curve: ConvexCurve, phi: float, t: float) -> IntegrandSample:
    """Weighted integrand at one (phi, t) with the decomposition cross-check."""
    total, f1, f2, f3 = _integrand_arrays(
        curve, np.asarray(phi, dtype=float), np.asarray(t, dtype=float))
    total, f1, f2, f3 = float(total), float(f1), float(f2), float(f3)
    residual = abs(f1 + f2 + f3 - total)
    if not residual <= 1e-10 * max(1.0, abs(total)):      # a NaN fails too
        raise ConvergenceError(
            f"integrand split f1 + f2 + f3 misses the total {total:.17g} "
            f"by {residual:.3g} at phi={float(phi):.17g}, t={float(t):.17g}",
            residual=residual)
    return IntegrandSample(phi=float(phi), t=float(t), f1=f1, f2=f2, f3=f3,
                           total=total)


def _tail_arrays(r, rp, rpp, t_max: float):
    """Analytic Int_{t_max}^inf of the decomposition, per angle of (r, r', r'').

    First term: 2 sqrt(chi)/r * (pi/2 - arctan(sqrt(chi) t/r)).  The other
    two are integrated together; their log terms cancel in the limit, leaving
    -pi chi/(r^2+r'^2) minus the combined antiderivative at t_max.
    """
    k = chi(r, rp, rpp)
    rp2 = r * r + rp * rp
    sq = np.sqrt(k)
    tail1 = (2.0 * sq / r) * (0.5 * np.pi - np.arctan(sq * t_max / r))
    r0t = r * r - 2.0 * t_max * r * rp + t_max * t_max * rp2
    r1t = r * r + 2.0 * t_max * r * rp + t_max * t_max * rp2
    g23 = (k / rp2) * (np.arctan(rp / r - t_max * rp2 / (r * r))
                       - np.arctan(rp / r + t_max * rp2 / (r * r))) \
        + (k * rp / (2.0 * r * rp2)) * np.log(r0t / r1t)
    tail23 = -np.pi * k / rp2 - g23
    return tail1, tail23


@dataclass(frozen=True)
class INumericResult:
    value: float
    error_estimate: float
    tail_f1: float            # integrated over phi
    tail_f23: float


def i_numeric(r, rp, rpp, t_max: float = 50.0, t_nodes: int = 24,
              t_panels: int = 12) -> INumericResult:
    """2-D quadrature of the weighted integrand plus analytic tails.

    Composite Gauss-Legendre in t on panels graded toward 0, periodic
    trapezoid in phi.  The error estimate compares against a half-resolution
    pass on every other sample, so the sample count phi_grid must be even,
    and carries a round-off floor proportional to the integrand mass.

    Each node evaluates _weighted_total, whose chi, alpha and beta depend on
    phi alone: about 13 array passes per node against 57 for the assembled
    S11, S12, S22 and J, and within 1e-15 of its magnitude scale of a
    40-digit reference (tests/test_rigidity.py).

    Blocks of max(1, I_BLOCK // t.size) phi rows keep the temporaries in L2
    cache (peak about 2 MiB; 78 MiB for the whole grid).
    """
    if not 10.0 <= t_max < math.inf:       # a NaN fails too
        raise ValueError(f"t_max must be finite and at least 10, got {t_max!r}")
    if r.size < 2 or r.size % 2:
        raise ValueError(f"phi_grid must be even and at least 2, got {r.size} samples")

    def pass_at(radial, nodes):
        t, w = gauss_panels(t_max, n_geometric=t_panels, nodes=nodes)
        pg = radial[0].size
        r, rp, rpp = (x[:, None] for x in radial)
        inner = np.empty(pg)
        mass = np.empty(pg)
        rows = max(1, I_BLOCK // t.size)
        for i0 in range(0, pg, rows):
            block = slice(i0, i0 + rows)
            total = _weighted_total(r[block], rp[block], rpp[block], t[None, :])
            inner[block] = total @ w
            mass[block] = np.abs(total) @ w
        tail1, tail23 = _tail_arrays(*radial, t_max)
        value = periodic_trapezoid(inner + tail1 + tail23)
        return (value, periodic_trapezoid(tail1), periodic_trapezoid(tail23),
                periodic_trapezoid(mass + np.abs(tail1) + np.abs(tail23)))

    value, t1, t23, mass = pass_at((r, rp, rpp), t_nodes)
    coarse, _, _, _ = pass_at((r[::2], rp[::2], rpp[::2]), max(6, t_nodes // 2))
    err = 4.0 * abs(value - coarse) + 1e-14 * (mass + 1.0)
    return INumericResult(value=value, error_estimate=err, tail_f1=t1, tail_f23=t23)


# -- areas, polar dual, Santalo point --------------------------------------------

@dataclass(frozen=True)
class DualAreaResult:
    area_gamma: float
    area_dual: float          # via (h^2 - h'^2)/2 with h = 1/r
    area_dual_alt: float      # via (h^2 + h h'')/2; equal by periodicity
    bs_product: float


def dual_support(r, rp, rpp):
    """Support function h = 1/r of the polar dual, with h' and h'' =
    (2r'^2 - r r'')/r^3, from (r, r', r'') on floats or arrays."""
    return 1.0 / r, -rp / (r * r), (2.0 * rp * rp - r * rpp) / (r ** 3)


def area_and_dual(r, rp, rpp) -> DualAreaResult:
    """Enclosed area and the polar dual's area about the samples' origin.

    The dual body's support function is h = 1/r; its area is computed both
    as Int (h^2 - h'^2)/2 and Int (h^2 + h h'')/2, which must agree.
    """
    area_gamma = 0.5 * periodic_trapezoid(r * r)
    h, hp, hpp = dual_support(r, rp, rpp)
    area_dual = 0.5 * periodic_trapezoid(h * h - hp * hp)
    area_dual_alt = 0.5 * periodic_trapezoid(h * h + h * hpp)
    return DualAreaResult(area_gamma=area_gamma, area_dual=area_dual,
                          area_dual_alt=area_dual_alt,
                          bs_product=area_gamma * area_dual)


def support_samples(curve: ConvexCurve, grid: int = 2048) -> np.ndarray:
    """Support function of the curve about its origin on uniform direction angles.

    The outward normal angle is monotone in phi (convexity), so the
    maximizing boundary parameter is found by inverting it, then polished by
    Newton on <gamma'(phi), u> = 0.
    """
    def normal_angle(phi):          # outward normal angle, increasing
        tx, ty = curve.tangent(phi)
        return np.arctan2(-tx, ty)

    thetas = uniform_angles(grid)
    phi = _angle_map_start(normal_angle, thetas)
    ux, uy = np.cos(thetas), np.sin(thetas)
    for _ in range(5):
        c, s = np.cos(phi), np.sin(phi)
        r, rp, rpp = curve.radius(phi, cs=(c, s))
        g = (rp * c - r * s) * ux + (rp * s + r * c) * uy      # <gamma'(phi), u>
        gxx = (rpp - r) * c - 2.0 * rp * s
        gyy = (rpp - r) * s + 2.0 * rp * c
        gp = gxx * ux + gyy * uy
        phi = phi - g / gp
    r, _, _ = curve.radius(phi)
    return r * (np.cos(phi) * ux + np.sin(phi) * uy)


def dual_area_about(curve: ConvexCurve, point, grid: int = 2048) -> float:
    """Area of the polar dual about an interior point, support-function form.

    With h the support function about the curve's origin, the support
    function about x is h - <x - origin, u>, and the dual area is
    1/2 Int (h - <x-origin, u>)^(-2) dtheta.  Equivalent to area_dual of the
    radial data about x; this form needs no per-point ray solves.
    """
    thetas = uniform_angles(grid)
    dx = float(point[0]) - curve.origin[0]
    dy = float(point[1]) - curve.origin[1]
    s = support_samples(curve, grid) - (dx * np.cos(thetas) + dy * np.sin(thetas))
    if s.min() <= 0.0:
        raise NotInteriorError("point is not strictly inside the curve")
    return 0.5 * periodic_trapezoid(s ** -2)


def santalo_point(curve: ConvexCurve, grid: int = 2048) -> PlanePoint:
    """The unique interior point minimizing the polar dual's area.

    Full Newton steps from the area centroid on the support-function form
    1/2 Int s^-2 dtheta, s = h - <x - origin, u>.  Its Hessian
    3 Int u u^T s^-4 dtheta is positive definite on the interior, and the
    steps converge even from 0.999 r(phi) on a 10:1 ellipse, so no line
    search is taken.  An iterate outside the interior raises
    ConvergenceError, and so does a step still above SANTALO_STEP_TOL
    max(1, diameter) after 60 iterations, with that step as its residual.
    """
    h = support_samples(curve, grid)
    thetas = uniform_angles(grid)
    ux, uy = np.cos(thetas), np.sin(thetas)
    ox, oy = curve.origin
    dtheta = TWO_PI / grid

    x = np.array(area_centroid(curve))
    for _ in range(60):
        s = h - ((x[0] - ox) * ux + (x[1] - oy) * uy)
        if s.min() <= 0.0:
            raise ConvergenceError("Santalo point Newton iterate left the interior")
        s3 = s ** -3
        s4 = s ** -4
        gx = float(np.sum(ux * s3)) * dtheta
        gy = float(np.sum(uy * s3)) * dtheta
        hxx = 3.0 * float(np.sum(ux * ux * s4)) * dtheta
        hxy = 3.0 * float(np.sum(ux * uy * s4)) * dtheta
        hyy = 3.0 * float(np.sum(uy * uy * s4)) * dtheta
        det = hxx * hyy - hxy * hxy
        dx = (hyy * gx - hxy * gy) / det
        dy = (-hxy * gx + hxx * gy) / det
        x[0] -= dx
        x[1] -= dy
        step = math.hypot(dx, dy)
        if step < SANTALO_STEP_TOL * max(1.0, curve.diameter):
            break
    else:
        raise ConvergenceError("Santalo point Newton search did not converge in 60 "
                               f"iterations (last step {step:.3g})", residual=step)
    return PlanePoint(float(x[0]), float(x[1]))


# -- the full report --------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    q_value: float
    q_defect: float                 # Q - 2pi at the Santalo origin
    i_closed: float
    i_numeric: float
    i_numeric_error: float
    area_gamma: float
    area_dual: float
    bs_product: float
    santalo_x: float
    santalo_y: float
    eq_q_holds: bool                # Q >= 2pi - tol (true when all orbits minimize)
    eq_qq_holds: bool               # Q <= 2pi + tol (true for every convex curve)
    equality_case: bool             # |Q - 2pi| < tol: the ellipse signature
    certifies_non_minimizing: bool  # Q < 2pi - tol: some orbits cannot minimize
    metadata: dict = field(default_factory=dict)
    conjugate_scan: Optional[dict] = None


def rigidity_report(curve: ConvexCurve, phi_grid: int = 2048, t_max: float = 50.0,
                    equality_tol: float = EQUALITY_TOL,
                    conjugate_scan: Optional[dict] = None) -> RigidityReport:
    """Q, both I routes and the areas on one radial sample about the Santalo
    point: radius_about's ray solves, or curve.radius itself when that point
    is within SANTALO_SNAP * diameter of the origin, which keeps analytic
    curve kinds exact (the equality cases are where that accuracy matters).
    """
    sp = santalo_point(curve, grid=phi_grid)
    dist = math.hypot(sp.x - curve.origin[0], sp.y - curve.origin[1])
    moved = dist > SANTALO_SNAP * curve.diameter
    thetas = uniform_angles(phi_grid)
    radial = radius_about(curve, (sp.x, sp.y), thetas) if moved else curve.radius(thetas)

    q = q_integral(*radial)
    defect = q - TWO_PI
    ic = math.pi * defect
    inum = i_numeric(*radial, t_max=t_max)
    dual = area_and_dual(*radial)
    return RigidityReport(
        q_value=q, q_defect=defect, i_closed=ic, i_numeric=inum.value,
        i_numeric_error=inum.error_estimate, area_gamma=dual.area_gamma,
        area_dual=dual.area_dual, bs_product=dual.bs_product,
        santalo_x=sp.x, santalo_y=sp.y,
        eq_q_holds=defect >= -equality_tol,
        eq_qq_holds=defect <= equality_tol,
        equality_case=abs(defect) < equality_tol,
        certifies_non_minimizing=defect < -equality_tol,
        metadata={"origin_moved": moved}, conjugate_scan=conjugate_scan)
