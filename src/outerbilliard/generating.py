"""Triangle-area generating function of the map and its derivative calculus.

In symplectic polar coordinates (p, phi) with p = r^2/2 the outer billiard
map has generating function S(phi0, phi1) = area of the triangle cut off by
the chord between the rays phi0 and phi1; in the chord chart (phi, t), where
phi is the tangency angle and t the chord parameter, it is simply
S = t r^2(phi).  The partials satisfy S1 = -r0^2/2, S2 = r1^2/2 and all
second derivatives are rational in t with coefficients in r, r', r''.

Two charts are used throughout:

* ChordCoords (phi, t):  chord tangent at gamma(phi), endpoints
  M0 = gamma - t gamma' and M1 = gamma + t gamma'.
* AngleCoords (phi0, phi1):  polar angles of M0, M1 with
  phi0 < phi1 < phi0 + pi.
"""

from dataclasses import dataclass

import numpy as np

from .curves import ConvexCurve, chi
from .errors import ConvergenceError, InsideCurveError
from .quadrature import uniform_angles

CSV_CHUNK = 1024          # derivative-table rows formatted per batch


@dataclass(frozen=True)
class ChordCoords:
    phi: float
    t: float


@dataclass(frozen=True)
class AngleCoords:
    phi0: float
    phi1: float
    r0sq: float
    r1sq: float


@dataclass(frozen=True)
class SDerivatives:
    """S and its partials w.r.t. (phi0, phi1) at one chord, plus |J| and chi."""

    S: float
    S1: float
    S2: float
    S11: float
    S12: float
    S22: float
    jac_det: float
    r0sq: float
    r1sq: float
    chi: float


# -- chart transition ----------------------------------------------------------

def _angles_arrays(curve: ConvexCurve, phi, t):
    """(phi0, phi1, r0sq, r1sq) for chord arrays; two-argument arctangents keep
    the angular offsets in (0, pi) even past the half-turn r - t r' < 0."""
    r, rp, _ = curve.radius(phi)
    a0 = np.arctan2(t * r, r - t * rp)
    a1 = np.arctan2(t * r, r + t * rp)
    r0sq = (r - t * rp) ** 2 + (t * r) ** 2
    r1sq = (r + t * rp) ** 2 + (t * r) ** 2
    return phi - a0, phi + a1, r0sq, r1sq


def chord_to_angles(curve: ConvexCurve, chord: ChordCoords) -> AngleCoords:
    if chord.t <= 0:
        raise ValueError("chord parameter t must be positive")
    phi0, phi1, r0sq, r1sq = _angles_arrays(
        curve, np.asarray(chord.phi, dtype=float), np.asarray(chord.t, dtype=float))
    return AngleCoords(float(phi0), float(phi1), float(r0sq), float(r1sq))


def s_closed_forms(r, rp, rpp, t):
    """S, its partials, J, r0sq, r1sq and chi of chords (phi, t) from r, r', r''
    at phi; returns a dict.  Plain arithmetic, so floats give floats and
    arrays give arrays."""
    k = chi(r, rp, rpp)
    r2 = r * r
    r0sq = (r - t * rp) ** 2 + t * t * r2
    r1sq = (r + t * rp) ** 2 + t * t * r2
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


def s_value(curve: ConvexCurve, chord: ChordCoords) -> float:
    """S = t r^2(phi), the area of the triangle between the two rays and the chord."""
    r, _, _ = curve.radius_scalar(chord.phi)
    return chord.t * r * r


def s_derivatives(curve: ConvexCurve, chord: ChordCoords) -> SDerivatives:
    d = _sderiv_arrays(curve, np.asarray(chord.phi, dtype=float),
                       np.asarray(chord.t, dtype=float))
    return SDerivatives(S=float(d["S"]), S1=float(d["S1"]), S2=float(d["S2"]),
                        S11=float(d["S11"]), S12=float(d["S12"]), S22=float(d["S22"]),
                        jac_det=float(d["J"]), r0sq=float(d["r0sq"]),
                        r1sq=float(d["r1sq"]), chi=float(d["chi"]))


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

def _chord_from_angles_arrays(curve: ConvexCurve, phi0, phi1, tol=1e-12,
                              max_iter=50, guess=None):
    """Newton solve of the chart transition for (phi, t), vectorized.

    Initial guess is the circle geometry: phi the mid-ray, t = tan(gap/2).
    The analytic chart Jacobian drives the iteration; steps shrinking t
    through zero are damped.
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
    for _ in range(max_iter):
        r, rp, rpp = curve.radius(phi)
        excess = r * r + rp * rp - chi(r, rp, rpp)
        f0, f1, r0sq, r1sq = _angles_arrays(curve, phi, t)
        res0, res1 = f0 - phi0, f1 - phi1
        worst = float(np.max(np.maximum(np.abs(res0), np.abs(res1))))
        if worst < tol:
            return phi, t
        j00 = 1.0 - t * t * excess / r0sq
        j01 = -r * r / r0sq
        j10 = 1.0 - t * t * excess / r1sq
        j11 = r * r / r1sq
        det = j00 * j11 - j01 * j10
        dphi = (j11 * res0 - j01 * res1) / det
        dt = (-j10 * res0 + j00 * res1) / det
        scale = np.where(dt >= t, 0.5 * t / np.maximum(dt, 1e-300), 1.0)
        phi = phi - scale * dphi
        t = t - scale * dt
    raise ConvergenceError(
        f"chart inversion did not converge in {max_iter} iterations "
        f"(worst residual {worst:.3g})", residual=worst)


def angles_to_chord(curve: ConvexCurve, phi0: float, phi1: float,
                    tol: float = 1e-12) -> ChordCoords:
    phi, t = _chord_from_angles_arrays(curve, phi0, phi1, tol=tol)
    return ChordCoords(float(phi), float(t))


def s_at_angles(curve: ConvexCurve, phi0: float, phi1: float) -> SDerivatives:
    """Derivative bundle for an angle pair (solves for the chord first)."""
    chord = angles_to_chord(curve, phi0, phi1)
    return s_derivatives(curve, chord)


# -- the map through the generating function ----------------------------------

def forward_map_batch(curve: ConvexCurve, p0, phi0, delta=1e-9, tol=1e-12):
    """(p1, phi1) from S1(phi0, phi1) = -p0, S2 = p1; vectorized.

    S1 is strictly decreasing in phi1 (twist), so the root of
    g(phi1) = p0 + S1 is unique in (phi0 + delta, phi0 + pi - delta);
    bracketed bisection hands over to Newton with derivative S12.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    r, _, _ = curve.radius(phi0)
    if np.any(2.0 * p0 <= r * r):
        raise InsideCurveError("phase point (p0, phi0) is not exterior")
    lo = phi0 + delta
    hi = phi0 + np.pi - delta
    guess = None

    def g_of(phi1):
        nonlocal guess
        phi, t = _chord_from_angles_arrays(curve, phi0, phi1, guess=guess)
        guess = (phi, t)
        d = _sderiv_arrays(curve, phi, t)
        return p0 + d["S1"], d

    for _ in range(30):
        mid = 0.5 * (lo + hi)
        g, _ = g_of(mid)
        pos = g > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    phi1 = 0.5 * (lo + hi)
    worst = np.inf
    for _ in range(8):
        g, d = g_of(phi1)
        newton = g / d["S12"]
        worst = float(np.abs(newton).max())   # step size in angle units
        if worst < tol:
            break
        phi1 = np.clip(phi1 - newton, lo, hi)
    if worst > tol:
        raise ConvergenceError("monotone solve for phi1 did not converge",
                               residual=worst)
    return d["S2"], phi1


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
    phi_grid: int
    t_grid: int
    t_max: float


def twist_scan(curve: ConvexCurve, phi_grid: int = 256, t_grid: int = 256,
               t_max: float = 20.0) -> TwistScan:
    """Maximum of S12 over a (phi, t) product grid; must be strictly negative."""
    if phi_grid < 64 or t_grid < 64:
        raise ValueError("scan grids must be at least 64")
    pm, tm, d = derivative_table(curve, phi_grid, t_grid, t_max)
    s12 = d["S12"]
    i = int(np.argmax(s12))
    return TwistScan(max_s12=float(s12[i]), phi_at_max=float(pm[i]), t_at_max=float(tm[i]),
                     phi_grid=phi_grid, t_grid=t_grid, t_max=t_max)


def derivative_table(curve: ConvexCurve, phi_grid: int, t_grid: int, t_max: float):
    """Flat (phi, t) grid with the full derivative bundle at each node."""
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
