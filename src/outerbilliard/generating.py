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
  phi0 < phi1 < phi0 + pi; chord_to_angles and angles_to_chord map between them.
"""

from dataclasses import dataclass

import numpy as np

from .curves import ConvexCurve, chi
from .errors import ConvergenceError, InsideCurveError
from .quadrature import uniform_angles

CSV_CHUNK = 1024          # derivative-table rows formatted per batch
CHART_TOL = 1e-12         # chart inversion: worst angle residual accepted
CHART_MAX_ITER = 50       # chart inversion: Newton iterations before ConvergenceError
CHART_PHI_STEP = 0.1      # chart inversion: longest phi step of one Newton iteration
FMAP_DELTA = 1e-9         # forward map: phi1 is bracketed in (phi0 + d, phi0 + pi - d)
FMAP_TOL = 1e-12          # forward map: Newton step in phi1 accepted as converged
FMAP_MAX_ITER = 50        # forward map: Newton iterations before ConvergenceError


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


def chord_to_angles(curve: ConvexCurve, phi: float, t: float):
    """(phi0, phi1, r0sq, r1sq) of the chord (phi, t) as floats."""
    if t <= 0:
        raise ValueError("chord parameter t must be positive")
    return tuple(float(v) for v in _angles_arrays(curve, phi, t))


def s_closed_forms(r, rp, rpp, t):
    """S, its partials, J, r0sq, r1sq and chi of chords (phi, t) from r, r', r''
    at phi; returns a dict.  Plain arithmetic (squares as products: ** 2 on
    a float calls pow), so floats and arrays give the same bits per element."""
    k = chi(r, rp, rpp)
    r2 = r * r
    u0, u1 = r - t * rp, r + t * rp
    r0sq = u0 * u0 + t * t * r2
    r1sq = u1 * u1 + t * t * r2
    a = k * t * t + r2
    den = 2.0 * r2 * a
    common = k * t * (t * t - 1.0) * r2 + 2.0 * t * r2 * r2 + t * (k * t * t + 2.0 * r2) * rp * rp
    odd = 2.0 * r2 * r * rp
    return {"S": t * r2, "S1": -0.5 * r0sq, "S2": 0.5 * r1sq,
            "S11": r0sq * (common - odd) / den, "S12": -k * t * r0sq * r1sq / den,
            "S22": r1sq * (common + odd) / den, "J": 2.0 * r2 * a / (r0sq * r1sq),
            "r0sq": r0sq, "r1sq": r1sq, "chi": k}


def _sderiv_arrays(curve: ConvexCurve, phi, t):
    """All closed forms at chord arrays; returns a dict of arrays."""
    return s_closed_forms(*curve.radius(phi), t)


def s_derivatives(curve: ConvexCurve, phi: float, t: float) -> dict:
    """s_closed_forms at one chord on plain floats (radius_scalar)."""
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


# -- inverse chart transition --------------------------------------------------

def _chord_from_angles_arrays(curve: ConvexCurve, phi0, phi1, guess=None):
    """Newton solve of the chart transition for (phi, t), vectorized.

    Initial guess is the circle geometry: phi the mid-ray, t = tan(gap/2).
    The analytic chart Jacobian drives the iteration; steps shrinking t
    through zero are damped; phi moves at most CHART_PHI_STEP per step, as
    from the mid-ray of an eccentric ellipse a full step can diverge.
    """
    phi0 = np.asarray(phi0, dtype=float)
    phi1 = np.asarray(phi1, dtype=float)
    gap = phi1 - phi0
    if np.any(gap <= 0) or np.any(gap >= np.pi):
        raise ValueError("angle pair must satisfy phi0 < phi1 < phi0 + pi")
    if guess is None:
        phi = 0.5 * (phi0 + phi1)
        t = np.tan(0.5 * gap)
    else:
        phi, t = np.array(guess[0], dtype=float), np.array(guess[1], dtype=float)
    worst = np.inf
    for _ in range(CHART_MAX_ITER):
        r, rp, rpp = curve.radius(phi)
        excess = r * r + rp * rp - chi(r, rp, rpp)
        f0, f1, r0sq, r1sq = _angles_arrays(curve, phi, t, (r, rp, rpp))
        res0, res1 = f0 - phi0, f1 - phi1
        worst = float(np.max(np.maximum(np.abs(res0), np.abs(res1))))
        if worst < CHART_TOL:
            return phi, t
        j00 = 1.0 - t * t * excess / r0sq
        j01 = -r * r / r0sq
        j10 = 1.0 - t * t * excess / r1sq
        j11 = r * r / r1sq
        det = j00 * j11 - j01 * j10
        dphi = (j11 * res0 - j01 * res1) / det
        dt = (-j10 * res0 + j00 * res1) / det
        scale = np.where(dt >= t, 0.5 * t / np.maximum(dt, 1e-300), 1.0)
        scale = np.minimum(scale, CHART_PHI_STEP / np.maximum(np.abs(scale * dphi), 1e-300))
        phi = phi - scale * dphi
        t = t - scale * dt
    raise ConvergenceError(
        f"chart inversion did not converge in {CHART_MAX_ITER} iterations "
        f"(worst residual {worst:.3g})", residual=worst)


def angles_to_chord(curve: ConvexCurve, phi0: float, phi1: float):
    """The chord (phi, t) with endpoint angles (phi0, phi1), as floats."""
    phi, t = _chord_from_angles_arrays(curve, phi0, phi1)
    return float(phi), float(t)


# -- the map through the generating function ----------------------------------

def forward_map_batch(curve: ConvexCurve, p0, phi0):
    """(p1, phi1) from S1(phi0, phi1) = -p0, S2 = p1, vectorized.  Nothing here
    calls dynamics: verify compares this route to the map with step.

    S1 = -r0^2/2 falls strictly in phi1 (twist), so the root in (phi0 + FMAP_DELTA,
    phi0 + pi - FMAP_DELTA) is unique.  Newton on 1/r0 - 1/rho0, with derivative
    S12/r0^3 (bounded where r0^2 blows up at the half turn), starts at the circle
    law phi0 + 2 acos(r(phi0)/rho0) and makes one warm-started chart inversion per
    step.  A step that would leave the lane's sign bracket bisects it instead; a
    lane whose step is below FMAP_TOL stops.  The last step is taken to first
    order: phi1 - delta, p1 = S2 - S22 delta.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    r, _, _ = curve.radius(phi0)
    if np.any(2.0 * p0 <= r * r):
        raise InsideCurveError("phase point (p0, phi0) is not exterior")
    rho0 = np.sqrt(2.0 * p0)
    lo, hi = phi0 + FMAP_DELTA, phi0 + np.pi - FMAP_DELTA
    phi1 = np.clip(phi0 + 2.0 * np.arccos(r / rho0), lo, hi)
    done = np.zeros(phi1.shape, dtype=bool)
    chord = None
    for _ in range(FMAP_MAX_ITER):
        chord = _chord_from_angles_arrays(curve, phi0, phi1, guess=chord)
        d = _sderiv_arrays(curve, *chord)
        step = d["r0sq"] * (1.0 - np.sqrt(d["r0sq"]) / rho0) / d["S12"]
        done |= np.abs(step) < FMAP_TOL
        if done.all():
            return d["S2"] - d["S22"] * step, phi1 - step
        above = p0 + d["S1"] > 0            # the root lies above phi1
        lo = np.where(above, phi1, lo)
        hi = np.where(above, hi, phi1)
        newton = phi1 - step
        inside = (lo < newton) & (newton < hi)
        phi1 = np.where(done, phi1, np.where(inside, newton, 0.5 * (lo + hi)))
    worst = float(np.abs(step[~done]).max())   # step size in angle units
    raise ConvergenceError(f"monotone solve for phi1 did not converge in {FMAP_MAX_ITER} "
                           f"iterations (worst step {worst:.3g})", residual=worst)


def forward_map_via_s(curve: ConvexCurve, p0: float, phi0: float):
    """Scalar (p1, phi1); see forward_map_batch."""
    p1, phi1 = forward_map_batch(curve, p0, phi0)
    return float(p1[0]), float(phi1[0])


# -- twist scan and tables -----------------------------------------------------

@dataclass(frozen=True)
class TwistScan:
    max_s12: float
    phi_at_max: float
    t_at_max: float


def twist_scan(curve: ConvexCurve, phi_grid: int = 256, t_grid: int = 256,
               t_max: float = 20.0) -> TwistScan:
    """Maximum of S12 over a (phi, t) product grid; must be strictly negative."""
    if phi_grid < 64 or t_grid < 64:
        raise ValueError("scan grids must be at least 64")
    pm, tm, d = derivative_table(curve, phi_grid, t_grid, t_max)
    s12 = d["S12"]
    i = int(np.argmax(s12))
    return TwistScan(max_s12=float(s12[i]), phi_at_max=float(pm[i]), t_at_max=float(tm[i]))


def derivative_table(curve: ConvexCurve, phi_grid: int, t_grid: int, t_max: float):
    """Flat (phi, t) grid with the full derivative bundle at each node."""
    if not 0.0 < t_max < np.inf:           # a NaN fails too
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    phis = uniform_angles(phi_grid)
    ts = t_max * np.arange(1, t_grid + 1) / t_grid
    pm = np.repeat(phis, t_grid)
    tm = np.tile(ts, phi_grid)
    d = _sderiv_arrays(curve, pm, tm)
    return pm, tm, d


def write_derivative_csv(fh, pm, tm, d):
    """Write the derivative table as CSV rows at full double precision.

    Each batch of CSV_CHUNK rows is formatted from .tolist() columns, so the
    Python floats alive at once stay near 0.3 MB whatever the table's size.
    """
    names = ("S", "S1", "S2", "S11", "S12", "S22", "J")
    fh.write(",".join(("phi", "t") + names) + "\n")
    cols = [np.asarray(c) for c in (pm, tm, *(d[k] for k in names))]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    for i in range(0, cols[0].size, CSV_CHUNK):
        fh.writelines(row % vals for vals in zip(*(c[i:i + CSV_CHUNK].tolist() for c in cols)))
