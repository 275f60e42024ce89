"""Integral-geometric rigidity quantities.

The headline scalar is Q = Int_0^2pi sqrt(chi)/r dphi.  When every orbit is
locally minimizing, integrating the weighted Jacobi-positivity inequality
with weights A = 1/r0^2, B = 1/r1^2 over the whole exterior forces
I = pi (Q - 2pi) >= 0; placing the origin at the Santalo point and running
Cauchy-Schwarz against the Blaschke-Santalo inequality forces Q <= 2pi with
equality only for ellipses.  A non-ellipse therefore shows Q < 2pi at its
Santalo point, certifying orbits that are not locally minimizing.

I is evaluated two independent ways: the closed form pi (Q - 2pi), and a 2-D
quadrature of the assembled weighted integrand over (phi, t) with analytic
tails for t > t_max.  The tails use the arctangent antiderivative of the
first decomposition term and the combined antiderivative of the other two,
in which the logarithms cancel as t -> infinity.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curves import ConvexCurve, PlanePoint, area_centroid, chi, reorigin
from .errors import ConvergenceError, NotInteriorError
from .generating import _sderiv_arrays
from .optimize import nelder_mead
from .quadrature import TWO_PI, gauss_panels, periodic_trapezoid, uniform_angles

EQUALITY_TOL = 1e-7
SANTALO_SNAP = 1e-8       # relative origin distance below which reorigin is skipped
SANTALO_STEP_TOL = 1e-15  # Newton polish step tolerance, relative to max(1, diameter)
I_BLOCK = 16384           # (phi, t) nodes per i_numeric block; see i_numeric


# -- one-dimensional integrals ---------------------------------------------------

def q_integral(curve: ConvexCurve, grid: int = 2048) -> float:
    """Q = Int sqrt(chi)/r dphi; equals 2pi exactly for centered circles and
    ellipses, and is < 2pi for any non-ellipse about its Santalo point."""
    phi = uniform_angles(grid)
    r, rp, rpp = curve.radius(phi)
    return periodic_trapezoid(np.sqrt(chi(r, rp, rpp)) / r)


def total_curvature(curve: ConvexCurve, grid: int = 2048) -> float:
    """Int chi/(r^2 + r'^2) dphi = Int k ds; 2pi for any simple closed convex curve."""
    phi = uniform_angles(grid)
    r, rp, rpp = curve.radius(phi)
    return periodic_trapezoid(chi(r, rp, rpp) / (r * r + rp * rp))


def i_closed(curve: ConvexCurve, grid: int = 2048) -> float:
    """pi (Q - 2pi); the t-integral of the weighted integrand done in closed form."""
    return math.pi * (q_integral(curve, grid) - TWO_PI)


# -- the weighted integrand ------------------------------------------------------

@dataclass(frozen=True)
class IntegrandSample:
    phi: float
    t: float
    f1: float
    f2: float
    f3: float
    total: float


def _weighted_total(d):
    """(A^2 S11 + 2AB S12 + B^2 S22)(-S12) J with A = 1/r0^2, B = 1/r1^2, from
    an _sderiv_arrays dict: the assembled weighted integrand."""
    a_w = 1.0 / d["r0sq"]
    b_w = 1.0 / d["r1sq"]
    return (a_w * a_w * d["S11"] + 2.0 * a_w * b_w * d["S12"]
            + b_w * b_w * d["S22"]) * (-d["S12"]) * d["J"]


def _integrand_arrays(curve: ConvexCurve, phi, t):
    """Assembled weighted integrand and its three-term split, vectorized."""
    d = _sderiv_arrays(curve, phi, t)
    total = _weighted_total(d)
    r, rp, _ = curve.radius(phi)
    k = d["chi"]
    f1 = 2.0 * k / (k * t * t + r * r)
    f2 = k * (t * rp - r) / (r * d["r0sq"])
    f3 = -k * (r + t * rp) / (r * d["r1sq"])
    return total, f1, f2, f3


def integrand(curve: ConvexCurve, phi: float, t: float) -> IntegrandSample:
    """Weighted integrand at one (phi, t) with the decomposition cross-check."""
    total, f1, f2, f3 = _integrand_arrays(
        curve, np.asarray(phi, dtype=float), np.asarray(t, dtype=float))
    total, f1, f2, f3 = float(total), float(f1), float(f2), float(f3)
    residual = abs(f1 + f2 + f3 - total)
    if not residual <= 1e-10 * max(1.0, abs(total)):      # a NaN fails too
        raise ConvergenceError(
            f"integrand split f1 + f2 + f3 misses the assembled total {total:.17g} "
            f"by {residual:.3g} at phi={float(phi):.17g}, t={float(t):.17g}",
            residual=residual)
    return IntegrandSample(phi=float(phi), t=float(t), f1=f1, f2=f2, f3=f3,
                           total=total)


def _tail_arrays(curve: ConvexCurve, phi, t_max: float):
    """Analytic Int_{t_max}^inf of the decomposition, per angle.

    First term: 2 sqrt(chi)/r * (pi/2 - arctan(sqrt(chi) t/r)).  The other
    two are integrated together; their log terms cancel in the limit, leaving
    -pi chi/(r^2+r'^2) minus the combined antiderivative at t_max.
    """
    r, rp, rpp = curve.radius(phi)
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
    t_max: float
    phi_grid: int
    t_nodes: int


def i_numeric(curve: ConvexCurve, t_max: float = 50.0, phi_grid: int = 2048,
              t_nodes: int = 24, t_panels: int = 12) -> INumericResult:
    """2-D quadrature of the assembled integrand plus analytic tails.

    Composite Gauss-Legendre in t on panels graded toward 0, periodic
    trapezoid in phi.  The error estimate compares against a half-resolution
    pass and carries a round-off floor proportional to the integrand mass.

    The grid is walked in blocks of max(1, I_BLOCK // t.size) phi rows, and
    each block computes only the assembled total.  I_BLOCK = 16384 nodes (52
    rows of the default 312 t nodes, 128 KiB per temporary) keeps a block's
    temporaries in L2 cache and the peak allocation near 2 MiB, against 78
    MiB for the whole grid at once.  One call at phi_grid 2048 on the 2:1
    ellipse, 1 + 0.05 cos 3phi and a 35-harmonic off-centre refit (2-core
    Xeon, one BLAS thread, medians of 7) took 91/91/124 ms at 8192 nodes,
    77/80/106 ms at 16384, 89/96/106 ms at 32768 and 116/122/117 ms for the
    whole grid.  Blocks change no bit of the elementwise totals; only the
    BLAS row sums total @ w may round a block's last rows differently.  At
    16384 nodes the result matched the whole-grid pass bit for bit on those
    curves, while 8192 moved value by 1e-16 and error_estimate by up to 1%.
    """
    if t_max < 10.0:
        raise ValueError("t_max must be at least 10")
    if phi_grid < 2:
        raise ValueError("phi_grid must be at least 2")

    def pass_at(pg, nodes):
        t, w = gauss_panels(t_max, n_geometric=t_panels, nodes=nodes)
        phis = uniform_angles(pg)
        inner = np.empty(pg)
        mass = np.empty(pg)
        rows = max(1, I_BLOCK // t.size)
        for i0 in range(0, pg, rows):
            block = slice(i0, i0 + rows)
            total = _weighted_total(_sderiv_arrays(curve, phis[block, None], t[None, :]))
            inner[block] = total @ w
            mass[block] = np.abs(total) @ w
        tail1, tail23 = _tail_arrays(curve, phis, t_max)
        value = periodic_trapezoid(inner + tail1 + tail23)
        return (value, periodic_trapezoid(tail1), periodic_trapezoid(tail23),
                periodic_trapezoid(mass + np.abs(tail1) + np.abs(tail23)))

    value, t1, t23, mass = pass_at(phi_grid, t_nodes)
    coarse, _, _, _ = pass_at(phi_grid // 2, max(6, t_nodes // 2))
    err = 4.0 * abs(value - coarse) + 1e-14 * (mass + 1.0)
    return INumericResult(value=value, error_estimate=err, tail_f1=t1,
                          tail_f23=t23, t_max=t_max, phi_grid=phi_grid,
                          t_nodes=t_nodes)


# -- areas, polar dual, Santalo point --------------------------------------------

@dataclass(frozen=True)
class DualAreaResult:
    area_gamma: float
    area_dual: float          # via (h^2 - h'^2)/2 with h = 1/r
    area_dual_alt: float      # via (h^2 + h h'')/2; equal by periodicity
    bs_product: float


def area_and_dual(curve: ConvexCurve, grid: int = 2048) -> DualAreaResult:
    """Enclosed area and the polar dual's area about the current origin.

    The dual body's support function is h = 1/r; its area is computed both
    as Int (h^2 - h'^2)/2 and Int (h^2 + h h'')/2, which must agree.
    """
    phi = uniform_angles(grid)
    r, rp, rpp = curve.radius(phi)
    area_gamma = 0.5 * periodic_trapezoid(r * r)
    h = 1.0 / r
    hp = -rp / (r * r)
    hpp = (2.0 * rp * rp - r * rpp) / (r ** 3)
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
    thetas = uniform_angles(grid)
    dense = uniform_angles(4096)
    tx, ty = curve.tangent(dense)
    nu = np.unwrap(np.arctan2(-tx, ty))      # outward normal angle, increasing
    nu_ext = np.concatenate([nu, [nu[0] + TWO_PI]])
    phi_ext = np.concatenate([dense, [TWO_PI]])
    targets = nu[0] + np.mod(thetas - nu[0], TWO_PI)
    phi = np.interp(targets, nu_ext, phi_ext)
    ux, uy = np.cos(thetas), np.sin(thetas)
    for _ in range(5):
        tx, ty = curve.tangent(phi)
        r, rp, rpp = curve.radius(phi)
        c, s = np.cos(phi), np.sin(phi)
        g = tx * ux + ty * uy
        gxx = (rpp - r) * c - 2.0 * rp * s
        gyy = (rpp - r) * s + 2.0 * rp * c
        gp = gxx * ux + gyy * uy
        phi = phi - g / gp
    r, _, _ = curve.radius(phi)
    return r * (np.cos(phi) * ux + np.sin(phi) * uy)


def dual_area_about(curve: ConvexCurve, point, grid: int = 2048,
                    h_base: Optional[np.ndarray] = None) -> float:
    """Area of the polar dual about an interior point, support-function form.

    With h the support function about the curve's origin, the support
    function about x is h - <x - origin, u>, and the dual area is
    1/2 Int (h - <x-origin, u>)^(-2) dtheta.  Equivalent to area_dual of the
    reorigined curve; this form needs no per-point ray solves.
    """
    if h_base is None:
        h_base = support_samples(curve, grid)
    thetas = uniform_angles(grid)
    dx = float(point[0]) - curve.origin[0]
    dy = float(point[1]) - curve.origin[1]
    s = h_base - (dx * np.cos(thetas) + dy * np.sin(thetas))
    if s.min() <= 0.0:
        raise NotInteriorError("point is not strictly inside the curve")
    return 0.5 * periodic_trapezoid(s ** -2)


def santalo_point(curve: ConvexCurve, tol: Optional[float] = None,
                  grid: int = 2048, max_eval: int = 2000) -> PlanePoint:
    """The unique interior point minimizing the polar dual's area.

    Simplex descent (with shrink-restart) from the area centroid in the
    support-function form of the objective, then a Newton polish on its
    analytic gradient; the Hessian 3 Int u u^T s^-4 dtheta is positive
    definite, so the polish is safe and quadratically convergent.  A polish
    whose step is still above SANTALO_STEP_TOL max(1, diameter) after 60
    iterations raises ConvergenceError with that step as its residual.
    """
    if tol is None:
        tol = 1e-9 * curve.diameter
    h = support_samples(curve, grid)
    thetas = uniform_angles(grid)
    ux, uy = np.cos(thetas), np.sin(thetas)
    ox, oy = curve.origin
    dtheta = TWO_PI / grid

    def objective(xy):
        s = h - ((xy[0] - ox) * ux + (xy[1] - oy) * uy)
        if s.min() <= 0.0:
            return math.inf
        return 0.5 * float(np.sum(s ** -2)) * dtheta

    x0 = np.array(area_centroid(curve))
    best, _, _ = nelder_mead(objective, x0, step=0.05 * curve.diameter,
                             xtol=tol, max_eval=max_eval, restarts=1)

    x = best.copy()
    for _ in range(60):
        s = h - ((x[0] - ox) * ux + (x[1] - oy) * uy)
        if s.min() <= 0.0:
            raise ConvergenceError("Newton polish left the interior")
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
        raise ConvergenceError("Santalo point Newton polish did not converge in 60 "
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
                    santalo_tol: Optional[float] = None,
                    conjugate_scan: Optional[dict] = None) -> RigidityReport:
    """Relocate the origin to the Santalo point and evaluate everything there.

    When the computed Santalo point is within 1e-8 * diameter of the current
    origin the reorigin/refit is skipped, keeping analytic curve kinds exact
    (the equality cases are precisely where that accuracy matters).
    """
    sp = santalo_point(curve, tol=santalo_tol, grid=phi_grid)
    dist = math.hypot(sp.x - curve.origin[0], sp.y - curve.origin[1])
    moved = dist > SANTALO_SNAP * curve.diameter
    curve_s = reorigin(curve, (sp.x, sp.y), grid_size=phi_grid) if moved else curve

    q = q_integral(curve_s, phi_grid)
    defect = q - TWO_PI
    ic = math.pi * defect
    inum = i_numeric(curve_s, t_max=t_max, phi_grid=phi_grid)
    dual = area_and_dual(curve_s, phi_grid)
    meta = {"phi_grid": phi_grid, "t_max": t_max, "equality_tol": equality_tol,
            "santalo_tol": santalo_tol if santalo_tol is not None
            else 1e-9 * curve.diameter,
            "origin_moved": moved, "curve": None}
    return RigidityReport(
        q_value=q, q_defect=defect, i_closed=ic, i_numeric=inum.value,
        i_numeric_error=inum.error_estimate, area_gamma=dual.area_gamma,
        area_dual=dual.area_dual, bs_product=dual.bs_product,
        santalo_x=sp.x, santalo_y=sp.y,
        eq_q_holds=defect >= -equality_tol,
        eq_qq_holds=defect <= equality_tol,
        equality_case=abs(defect) < equality_tol,
        certifies_non_minimizing=defect < -equality_tol,
        metadata=meta, conjugate_scan=conjugate_scan)
