"""Test-side routes to the package's numbers that the package does not take.

``reorigin`` re-expresses a curve about a new origin by ray intersections
(``curves.radial_about``) and an FFT refit to a Fourier curve.  The rigidity
report samples the curve about its Santalo point directly
(``curves.radius_about``) with no refit, so the two agree only when both are
right.
"""

import numpy as np

from outerbilliard.curves import ConvexCurve, PlanePoint, fourier, radial_about, require_valid
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
