"""Test-side routes to the package's numbers that the package does not take.

``reorigin`` re-expresses a curve about a new origin by ray intersections
(``curves.radial_about``) and an FFT refit to a Fourier curve.  The rigidity
report samples the curve about its Santalo point directly
(``curves.radius_about``) with no refit, so the two agree only when both are
right.

``ray_root`` finds where a ray from an interior point meets the curve at 40
digits, from the curve's radial function in closed form, to hold
``curves.radial_about`` to.

``polar_point`` builds the phase point at polar coordinates (p, phi) about
the curve's origin through ``dynamics.phase_point``; ``tridiagonal_hessian``
is an orbit window's Hessian as a dense matrix, and
``hessian_positive_definite`` its verdict by eigenvalues.

``write_derivative_csv_per_row`` writes the twist-scan table with one "%"
per field, the bytes the package's array formatter must reproduce.
"""

import math

import numpy as np

from outerbilliard.curves import ConvexCurve, PlanePoint, fourier, radial_about, require_valid
from outerbilliard.dynamics import PhasePoint, phase_point
from outerbilliard.errors import ConvergenceError
from outerbilliard.quadrature import uniform_angles

FOURIER_CUTOFF = 1e-13     # refit coefficients below this are dropped
REFIT_RESIDUAL_MAX = 1e-8


def reorigin(curve: ConvexCurve, new_origin, grid_size: int = 2048) -> ConvexCurve:
    """Re-express the curve with its radial function taken about new_origin.

    Per-angle ray/boundary intersection followed by an FFT refit on
    grid_size uniform angles.  The refit is checked against direct ray
    intersections on a doubled grid; the residual must stay below 1e-8.

    Raises NotInteriorError when new_origin is not strictly inside, and
    ConvergenceError when the refit residual is too large (raise grid_size).
    """
    if isinstance(new_origin, PlanePoint):
        new_origin = (new_origin.x, new_origin.y)
    nx, ny = float(new_origin[0]), float(new_origin[1])
    thetas = uniform_angles(grid_size)
    rho = radial_about(curve, (nx, ny), thetas)[0]

    spec = np.fft.rfft(rho) / grid_size
    a0 = float(spec[0].real)
    cos_c = 2.0 * spec[1:].real
    sin_c = -2.0 * spec[1:].imag
    if grid_size % 2 == 0:
        cos_c[-1] *= 0.5        # the Nyquist bin is not doubled
        sin_c[-1] = 0.0
    small = (np.abs(cos_c) <= FOURIER_CUTOFF) & (np.abs(sin_c) <= FOURIER_CUTOFF)
    cos_c[np.abs(cos_c) <= FOURIER_CUTOFF] = 0.0
    sin_c[np.abs(sin_c) <= FOURIER_CUTOFF] = 0.0
    keep = 0 if small.all() else int(np.max(np.nonzero(~small)[0])) + 1
    out = fourier(a0, cos=cos_c[:keep], sin=sin_c[:keep], origin=(nx, ny))

    dbl = uniform_angles(2 * grid_size)
    rho_direct = radial_about(curve, (nx, ny), dbl)[0]
    r_fit, _, _ = out.radius(dbl)
    residual = float(np.abs(r_fit - rho_direct).max())
    if residual > REFIT_RESIDUAL_MAX:
        raise ConvergenceError(
            f"reorigin refit residual {residual:.3g} exceeds {REFIT_RESIDUAL_MAX:g}; "
            "raise grid_size or the coefficient cutoff", residual=residual)
    return require_valid(out)


def polar_point(curve: ConvexCurve, p: float, phi: float) -> PhasePoint:
    """The phase point at rho = sqrt(2 p) along the ray phi from the origin."""
    rho = math.sqrt(2.0 * p)
    return phase_point(curve,
                       curve.origin[0] + rho * math.cos(phi),
                       curve.origin[1] + rho * math.sin(phi))


def tridiagonal_hessian(window) -> np.ndarray:
    """The window's Hessian of the action sum: a_n on the diagonal over the
    window nodes, b_n between consecutive nodes."""
    m = len(window)
    off = window.b_coeffs[1:m]
    return np.diag(window.a_coeffs) + np.diag(off, 1) + np.diag(off, -1)


def hessian_positive_definite(window) -> bool:
    """No conjugate points in the window: its Hessian's least eigenvalue is
    positive."""
    return bool(np.linalg.eigvalsh(tridiagonal_hessian(window)).min() > 0)


def ray_root(curve: ConvexCurve, point, theta, phi):
    """(rho, phi) of the boundary point on the ray from ``point`` at angle
    theta, 40 digits: mpmath.findroot on cross(gamma(phi) - x, e_theta) = 0
    from phi, with r(phi) in closed form from the curve's parameters.  The root
    is checked to lie on the ray, dot(gamma - x, e_theta) > 0, where it is the
    only root a turn holds."""
    from mpmath import mp                       # a test extra: callers importorskip it
    with mp.workdps(40):
        x, y = mp.mpf(float(point[0])), mp.mpf(float(point[1]))
        ux, uy = mp.cos(mp.mpf(float(theta))), mp.sin(mp.mpf(float(theta)))
        harmonics = list(enumerate(zip(curve.cos_coeffs, curve.sin_coeffs), 1))

        def radius(p):
            if curve.kind == "circle":
                return mp.mpf(curve.radius_value)
            if curve.kind == "ellipse":
                a, b = mp.mpf(curve.axis_a), mp.mpf(curve.axis_b)
                return a * b / mp.sqrt((b * mp.cos(p)) ** 2 + (a * mp.sin(p)) ** 2)
            return mp.mpf(curve.a0) + mp.fsum(mp.mpf(c) * mp.cos(k * p) + mp.mpf(s) * mp.sin(k * p)
                                              for k, (c, s) in harmonics)

        def offset(p):
            r = radius(p)
            return (curve.origin[0] + r * mp.cos(p) - x, curve.origin[1] + r * mp.sin(p) - y)

        def cross(p):
            dx, dy = offset(p)
            return dx * uy - dy * ux

        start = mp.mpf(float(phi))
        root = mp.findroot(cross, (start - mp.mpf("1e-6"), start + mp.mpf("1e-6")))
        dx, dy = offset(root)
        assert abs(cross(root)) < mp.mpf("1e-30") and dx * ux + dy * uy > 0
        return mp.hypot(dx, dy), root


def write_derivative_csv_per_row(fh, pm, tm, d):
    """The derivative table as CSV rows, each field "%.17g" % value.

    Rows go out one block of equal phi at a time.  The block's phi is
    formatted once, into its row template, and the previous block's t strings
    are reused when the t column has their bits (-0.0 == 0.0, so bits are
    compared), so a grid formats phi_grid + t_grid coordinates, not two a row.
    """
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    fh.write(",".join(("phi", "t") + names) + "\n")
    pm, tm = (np.ascontiguousarray(c, dtype=float) for c in (pm, tm))
    cols = [np.asarray(d[k]) for k in names]
    rest = ",".join(["%.17g"] * len(names)) + "\n"
    pbits, tbits = pm.view(np.uint64), tm.view(np.uint64)
    starts = (np.flatnonzero(pbits[1:] != pbits[:-1]) + 1).tolist()
    blocks = zip([0] + starts, starts + [pm.size]) if pm.size else ()
    axis, cells = tbits[:0], []
    for lo, hi in blocks:
        if not np.array_equal(tbits[lo:hi], axis):
            axis, cells = tbits[lo:hi], ["%.17g" % v for v in tm[lo:hi].tolist()]
        row = "%.17g,%%s," % float(pm[lo]) + rest
        fh.writelines(map(row.__mod__, zip(cells, *(c[lo:hi].tolist() for c in cols))))
