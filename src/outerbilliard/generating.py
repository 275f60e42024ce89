"""Triangle-area generating function of the map and its derivative calculus.

In symplectic polar coordinates (p, phi) with p = r^2/2 the outer billiard
map has generating function S(phi0, phi1) = area of the triangle cut off by
the chord between the rays phi0 and phi1; in the chord chart (phi, t), where
phi is the tangency angle and t the chord parameter, it is simply
S = t r^2(phi).  The partials satisfy S1 = -r0^2/2, S2 = r1^2/2 and all
second derivatives are rational in t with coefficients in r, r', r''.

Two charts are used throughout, both on plain floats or arrays:

* chord (phi, t):  chord tangent at gamma(phi), endpoints
  M0 = gamma - t gamma' and M1 = gamma + t gamma'.
* angles (phi0, phi1):  polar angles of M0, M1 with
  phi0 < phi1 < phi0 + pi; _angles_arrays maps to them in closed form, and
  _chord_from_angles_arrays back by one bracketed Newton in the tangency
  offset along the ray phi0, the solve forward_map_batch also runs.

That solve is curves._ray_newton, which also finds rays from an interior
point (curves.radial_about); this module supplies its residuals.
"""

from dataclasses import dataclass

import numpy as np

from . import serialize
from .curves import RAY_ROUNDOFF, ConvexCurve, _ray_newton, chi
from .errors import ConvergenceError, InsideCurveError
from .quadrature import chord_grid


# -- chart transition ----------------------------------------------------------

def _angles_arrays(curve: ConvexCurve, phi, t, radial=None):
    """(phi0, phi1, r0sq, r1sq) for chord arrays; two-argument arctangents keep
    the angular offsets in (0, pi) even past the half-turn r - t r' < 0.  A
    caller that already holds (r, r', r'') at phi passes it as ``radial``."""
    r, rp, _ = curve.radius(phi) if radial is None else radial
    a0 = np.arctan2(t * r, r - t * rp)
    a1 = np.arctan2(t * r, r + t * rp)
    r0sq = (r - t * rp) ** 2 + (t * r) ** 2
    r1sq = (r + t * rp) ** 2 + (t * r) ** 2
    return phi - a0, phi + a1, r0sq, r1sq


def _twist_terms(r, rp, rpp, t):
    """(chi, r^2, chi t, chi t^2, r0sq, r1sq, 2 r^2 (chi t^2 + r^2), S12): the
    arithmetic S12 takes, which s_closed_forms continues from, so S12 alone has
    the bits of S12 in the full bundle.  A product used twice is formed once,
    in the order both uses write it; chi is curves.chi with r^2 formed once."""
    r2 = r * r
    k = r2 + 2.0 * rp * rp - r * rpp
    trp, ttr2 = t * rp, t * t * r2
    u0, u1 = r - trp, r + trp
    r0sq = u0 * u0 + ttr2
    r1sq = u1 * u1 + ttr2
    kt = k * t
    ktt = kt * t
    den = 2.0 * r2 * (ktt + r2)
    return k, r2, kt, ktt, r0sq, r1sq, den, -k * t * r0sq * r1sq / den


def s_closed_forms(r, rp, rpp, t):
    """S, its partials, J, r0sq, r1sq and chi of chords (phi, t) from r, r', r''
    at phi; returns a dict.  Plain arithmetic (squares as products: ** 2 on
    a float calls pow), so floats and arrays give the same bits per element."""
    k, r2, kt, ktt, r0sq, r1sq, den, s12 = _twist_terms(r, rp, rpp, t)
    common = kt * (t * t - 1.0) * r2 + 2.0 * t * r2 * r2 + t * (ktt + 2.0 * r2) * rp * rp
    odd = 2.0 * r2 * r * rp
    return {"S": t * r2, "S1": -0.5 * r0sq, "S2": 0.5 * r1sq,
            "S11": r0sq * (common - odd) / den, "S12": s12,
            "S22": r1sq * (common + odd) / den, "J": den / (r0sq * r1sq),
            "r0sq": r0sq, "r1sq": r1sq, "chi": k}


def _s12_arrays(r, rp, rpp, t):
    """S12 alone from r, r', r'' at phi; the values twist_scan maximises."""
    return _twist_terms(r, rp, rpp, t)[-1]


def _sderiv_arrays(curve: ConvexCurve, phi, t, radial=None):
    """All closed forms at chord arrays; returns a dict of arrays.  A caller
    that already holds (r, r', r'') at phi passes it as ``radial``."""
    return s_closed_forms(*(curve.radius(phi) if radial is None else radial), t)


def s_derivatives(curve: ConvexCurve, phi: float, t: float) -> dict:
    """s_closed_forms at one chord on plain floats (radius_scalar)."""
    if not (t > 0 and abs(phi) < np.inf):           # a NaN fails too
        raise ValueError(f"chord (phi, t) = ({phi!r}, {t!r}): t must be positive, phi finite")
    return s_closed_forms(*curve.radius_scalar(phi), t)


def chain_rule_s1_s2(curve: ConvexCurve, phi, t):
    """S1, S2 assembled through the inverse chart Jacobian.

    Independent of the geometric shortcut S1 = -r0^2/2, S2 = r1^2/2; the two
    routes agreeing to round-off is the exactness check of the calculus.
    """
    r, rp, rpp = curve.radius(phi)
    r2 = r * r
    a = chi(r, rp, rpp) * t * t + r2
    r0sq = (r - t * rp) ** 2 + t * t * r2
    r1sq = (r + t * rp) ** 2 + t * t * r2
    s_phi = 2.0 * r * rp * t
    s_t = r2
    dphi_dphi0 = r0sq / (2.0 * a)
    dphi_dphi1 = r1sq / (2.0 * a)
    dt_dphi0 = -r0sq * (a + 2.0 * t * r * rp) / (2.0 * r2 * a)
    dt_dphi1 = r1sq * (a - 2.0 * t * r * rp) / (2.0 * r2 * a)
    return s_phi * dphi_dphi0 + s_t * dt_dphi0, s_phi * dphi_dphi1 + s_t * dt_dphi1


# -- chart inversion and the map, on curves._ray_newton ------------------------

def _chord_from_angles_arrays(curve: ConvexCurve, phi0, phi1, start=None):
    """The chords (phi, t) with endpoint angles (phi0, phi1), vectorized.

    With tail on the ray phi0 and tangency angle phi0 + d, t = r sin d / (r cos
    d + r' sin d) while that is positive (then the tail leaves the ray), and the
    head angle phi0 + d + atan2(t r, r + t r') rises in d with slope 2 (chi t^2
    + r^2) / r1^2.  _ray_newton solves head angle = phi1 on (0, phi1 - phi0)
    from the tangency angles ``start`` where they lie in it, else from the
    mid-ray; the floor is the head angle's rounding, eps (|phi1| + pi) / slope.
    """
    phi0, phi1 = np.asarray(phi0, dtype=float), np.asarray(phi1, dtype=float)
    gap = phi1 - phi0
    if not np.all((0 < gap) & (gap < np.pi)):     # a NaN fails too
        raise ValueError("angle pair must satisfy phi0 < phi1 < phi0 + pi")
    d = 0.5 * gap if start is None else np.asarray(start, dtype=float) - phi0
    d = np.where((0.0 < d) & (d < gap), d, 0.5 * gap)
    rounding = RAY_ROUNDOFF * (np.abs(phi1) + np.pi)

    def tail_t(d, r, rp):
        den = r / np.tan(d) + rp        # (r cos d + r' sin d) / sin d
        return r / np.where(den > 0.0, den, np.nan)

    def newton_step(d, r, rp, rpp):
        t = tail_t(d, r, rp)
        tr, u1 = t * r, r + t * rp
        slope = 2.0 * (chi(r, rp, rpp) * t * t + r * r) / (u1 * u1 + tr * tr)
        return (phi0 + d + np.arctan2(tr, u1) - phi1) / slope, rounding / slope

    d, (r, rp, _) = _ray_newton(curve, phi0, d, gap, newton_step)
    return phi0 + d, tail_t(d, r, rp)


def forward_map_batch(curve: ConvexCurve, p0, phi0):
    """(p1, phi1) from S1(phi0, phi1) = -p0, S2 = p1, vectorized.  Nothing here
    calls dynamics: verify compares this route to the map with step.

    On the chords with tail on the ray phi0 and tangency angle phi0 + d, 1/r0 =
    (r' sin d + r cos d) / r^2 falls strictly in d on (0, pi), with derivative
    -chi sin d / r^3; _ray_newton solves 1/r0 = 1/rho0 from the circle law
    acos(r(phi0)/rho0).  The floor RAY_ROUNDOFF r^2 / (chi sin d), the rounding
    of 1/r0 - 1/rho0 through the step, exceeds RAY_TOL near the curve (rho0/r -
    1 < 1e-8 on the presets).  At the root t = rho0 sin d / r, p1 = S2 = r1^2/2.
    """
    p0, phi0 = np.atleast_1d(np.asarray(p0, dtype=float), np.asarray(phi0, dtype=float))
    r, _, _ = curve.radius(phi0)
    if not np.all((2.0 * p0 > r * r) & (np.abs(phi0) < np.inf)):    # a NaN fails too
        raise InsideCurveError("phase point (p0, phi0) is not exterior")
    rho0 = np.sqrt(2.0 * p0)
    d = np.arctan2(np.sqrt(2.0 * p0 - r * r), r)     # acos(r/rho0), above 0 by the guard

    def newton_step(d, r, rp, rpp):
        sin_d = np.sin(d)
        excess = (rp * sin_d + r * np.cos(d)) / (r * r) - 1.0 / rho0   # 1/r0 - 1/rho0
        slope = chi(r, rp, rpp) * sin_d                                 # -r^3 d(1/r0)/dd
        return -excess * r * r * r / slope, RAY_ROUNDOFF * r * r / slope

    d, radial = _ray_newton(curve, phi0, d, np.full_like(d, np.pi), newton_step)
    _, phi1, _, r1sq = _angles_arrays(curve, phi0 + d, rho0 * np.sin(d) / radial[0], radial)
    return 0.5 * r1sq, phi1


# -- twist scan and tables -----------------------------------------------------

@dataclass(frozen=True)
class TwistScan:
    max_s12: float
    phi_at_max: float
    t_at_max: float


def twist_scan(curve: ConvexCurve, phi_grid: int = 256, t_grid: int = 256,
               t_max: float = 20.0) -> TwistScan:
    """Maximum of S12 over a (phi, t) product grid; must be strictly negative.

    S12 alone, on derivative_table's grid: radial data on the phi_grid angles
    as a column against the t values as a row.  Every step is elementwise, so
    each node has the bits of the table's S12.
    """
    if phi_grid < 64 or t_grid < 64:
        raise ValueError("scan grids must be at least 64")
    pm, tm, radial = _grid(curve, phi_grid, t_grid, t_max)
    with np.errstate(all="ignore"):      # a non-finite result is checked below
        s12 = _s12_arrays(*(v[:, None] for v in radial), tm[:t_grid]).ravel()
    _require_finite_s12(s12, t_max)
    i = int(np.argmax(s12))
    return TwistScan(max_s12=float(s12[i]), phi_at_max=float(pm[i]), t_at_max=float(tm[i]))


def _grid(curve: ConvexCurve, phi_grid: int, t_grid: int, t_max: float):
    """chord_grid's flat (phi, t) grid and (r, r', r'') at its phi_grid angles."""
    if not 0.0 < t_max < np.inf:           # a NaN fails too
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    pm, tm = chord_grid(phi_grid, t_grid, t_max)
    return pm, tm, curve.radius(pm[::t_grid])


def _require_finite_s12(s12, t_max):
    if not np.isfinite(s12).all():
        raise ConvergenceError(f"S12 is not finite on the grid at t_max={t_max!r}: "
                               "the derivatives overflowed")


def derivative_table(curve: ConvexCurve, phi_grid: int, t_grid: int, t_max: float):
    """Flat (phi, t) grid with the full derivative bundle at each node, for
    the CSV table; twist_scan evaluates S12 alone on the same grid.

    radius runs once per grid angle, phi_grid lanes, and np.repeat spreads
    (r, r', r'') over that angle's t_grid nodes.  radius is elementwise, so
    the table has the bits of _sderiv_arrays(curve, pm, tm).  An S12 that is
    not finite at some node raises ConvergenceError.
    """
    pm, tm, radial = _grid(curve, phi_grid, t_grid, t_max)
    radial = tuple(np.repeat(v, t_grid) for v in radial)
    with np.errstate(all="ignore"):      # a non-finite result is checked below
        d = _sderiv_arrays(curve, pm, tm, radial)
    _require_finite_s12(d["S12"], t_max)
    return pm, tm, d


def write_derivative_csv(fh, pm, tm, d):
    """Write the derivative table as CSV rows at full double precision: every
    field "%.17g" % value, byte for byte, through serialize.write_g17_csv."""
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    fh.write(",".join(("phi", "t") + names) + "\n")
    serialize.write_g17_csv(fh, [(pm, tm, *(d[k] for k in names))])
