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
from dataclasses import dataclass

import numpy as np

from .curves import ConvexCurve, PlanePoint, area_centroid, chi, radius_about
from .errors import ConvergenceError, NotInteriorError
from .generating import _sderiv_arrays  # noqa: F401  (unused; bench/tracer.py wraps the name)
from .quadrature import TWO_PI, gauss_panels, periodic_trapezoid, uniform_angles

# bench/tracer.py still wraps these two names, which nothing here calls; the
# change to the benchmark that drops those wraps deletes this line
nelder_mead = reorigin = None

EQUALITY_TOL = 1e-7
SANTALO_SNAP = 1e-8       # relative origin distance below which the origin stays put
SANTALO_STEP_TOL = 1e-15  # Newton step tolerance, relative to max(1, diameter)
I_BLOCK = 16384           # (phi, t) nodes per i_numeric block; see i_numeric
I_T_NODES = 24            # Gauss nodes per t panel; the error pass takes max(6, I_T_NODES // 2)


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
    return IntegrandSample(f1=f1, f2=f2, f3=f3, total=total)


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


def i_numeric(r, rp, rpp, t_max: float = 50.0) -> INumericResult:
    """2-D quadrature of the weighted integrand plus analytic tails.

    Composite Gauss-Legendre in t on panels graded toward 0, periodic
    trapezoid in phi.  The error estimate compares against a half-resolution
    pass on every other sample, so the sample count phi_grid must be even,
    and carries a round-off floor proportional to the integrand mass.  A
    value or estimate that is not finite raises ConvergenceError.

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
        t, w = gauss_panels(t_max, nodes)
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
        return (periodic_trapezoid(inner + tail1 + tail23),
                periodic_trapezoid(mass + np.abs(tail1) + np.abs(tail23)))

    value, mass = pass_at((r, rp, rpp), I_T_NODES)
    coarse, _ = pass_at((r[::2], rp[::2], rpp[::2]), max(6, I_T_NODES // 2))
    err = 4.0 * abs(value - coarse) + 1e-14 * (mass + 1.0)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ConvergenceError(f"i_numeric is {value!r} with error estimate {err!r} at "
                               f"t_max={t_max!r}: the integrand overflowed")
    return INumericResult(value=value, error_estimate=err)


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


def _support_frame(curve: ConvexCurve, grid: int):
    """On grid uniform boundary angles phi, n = sqrt(r^2 + r'^2): the support
    function h = r^2/n about the origin, the outward normal u = (r' sin + r cos,
    r sin - r' cos)/n, and w = chi/n^2 2pi/grid, so that sum(w f) = Int f dtheta
    by dtheta = kappa ds (Schneider, Convex Bodies, 1.7).  One radius call."""
    phi = uniform_angles(grid)
    c, s = np.cos(phi), np.sin(phi)
    r, rp, rpp = curve.radius(phi, cs=(c, s))
    n2 = r * r + rp * rp
    n = np.sqrt(n2)
    ux, uy = (rp * s + r * c) / n, (r * s - rp * c) / n
    return r * r / n, ux, uy, chi(r, rp, rpp) / n2 * (TWO_PI / grid)


def dual_area_about(curve: ConvexCurve, point, grid: int = 2048) -> float:
    """Area of the polar dual about an interior point, support-function form.

    With h the support function about the curve's origin, the support
    function about x is s = h - <x - origin, u>, and the dual area 1/2 Int
    s^-2 dtheta is summed on boundary angles (_support_frame).  Equivalent to
    area_dual of the radial data about x, with no per-point ray solves.
    """
    h, ux, uy, w = _support_frame(curve, grid)
    dx = float(point[0]) - curve.origin[0]
    dy = float(point[1]) - curve.origin[1]
    s = h - (dx * ux + dy * uy)
    if s.min() <= 0.0:
        raise NotInteriorError("point is not strictly inside the curve")
    return 0.5 * float(np.sum(w / (s * s)))


def santalo_point(curve: ConvexCurve, grid: int = 2048) -> PlanePoint:
    """The unique interior point minimizing the polar dual's area.

    Full Newton steps from the area centroid on the support-function form
    1/2 Int s^-2 dtheta, s = h - <x - origin, u>, summed on boundary angles
    (_support_frame) with no inversion of the normal-angle map.  Its Hessian
    3 Int u u^T s^-4 dtheta is positive definite on the interior, and the
    steps converge even from 0.999 r(phi) on a 10:1 ellipse, so no line
    search is taken.  An iterate outside the interior raises
    ConvergenceError, and so does a step still above SANTALO_STEP_TOL
    max(1, diameter) after 60 iterations, with that step as its residual.
    """
    x = np.array(area_centroid(curve))
    h, ux, uy, w = _support_frame(curve, grid)
    ox, oy = curve.origin
    for _ in range(60):
        s = h - ((x[0] - ox) * ux + (x[1] - oy) * uy)
        if s.min() <= 0.0:
            raise ConvergenceError("Santalo point Newton iterate left the interior")
        s3 = w * s ** -3
        s4 = w * s ** -4
        gx = float(np.sum(ux * s3))
        gy = float(np.sum(uy * s3))
        hxx = 3.0 * float(np.sum(ux * ux * s4))
        hxy = 3.0 * float(np.sum(ux * uy * s4))
        hyy = 3.0 * float(np.sum(uy * uy * s4))
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
    origin_moved: bool              # the sample was taken about the Santalo point


def rigidity_report(curve: ConvexCurve, phi_grid: int = 2048, t_max: float = 50.0,
                    equality_tol: float = EQUALITY_TOL) -> RigidityReport:
    """Q, both I routes and the areas on one radial sample about the Santalo
    point: radius_about's ray solves, or curve.radius itself when that point
    is within SANTALO_SNAP * diameter of the origin, which keeps analytic
    curve kinds exact (the equality cases are where that accuracy matters).
    origin_moved says which of the two was sampled.
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
        origin_moved=moved)
