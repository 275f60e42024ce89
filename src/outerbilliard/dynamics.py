"""The outer billiard map as geometry: tangency, step, inverse, orbits.

A point A outside the curve is mapped to T(A) = 2 gamma(phi_m) - A where
gamma(phi_m) is the unique tangency point for which A - gamma is
anti-parallel to gamma' (counterclockwise convention; chord parameter t > 0
in A = gamma - t gamma').  Everything here works directly on the geometry,
independent of the generating-function calculus, so it can serve as an
oracle for it.

For an exterior point at polar angle phi_A the forward tangency angle lies
in the open half-turn (phi_A, phi_A + pi) and g = cross(gamma', A - gamma)
changes sign exactly once there (twice-tangent property of convex curves),
which gives an exact bracket for root isolation.

One solver serves the point map (step, inverse_step, tangency) and the
scalar chord step (chord_step_scalar, behind the Jacobi and Hopf machinery
along single orbits): Newton inside that bracket from the root of the
second-order expansion of g about phi_A, bisecting only when a Newton step
would leave the bracket or stall, stopping once the step is at round-off:
about 4 radius evaluations per tangency at t = 1e-3 and 5-11 at t >= 0.1.
The batch chord step (chord_step_batch, behind the conjugate grid scan)
runs one fixed schedule instead, N_BISECT bisections and then N_NEWTON
deflated Newton steps, 14 radius evaluations per step (13 when the caller
passes back the radial data of the step before) and no trig call in the
bisections.  The scalar and batch chord steps agree within 1e-12, not
bitwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import ConvexCurve, PlanePoint, chi
from .errors import InsideCurveError, TangencyError

CCW = "ccw"
CW = "cw"

NEAR_BOUNDARY_T = 1e-8
MIN_CHORD_T = 1.5e-6      # smallest t the chord kernels step (t_new error <= 1e-4)
STEP_TOL = 4e-16          # tangency Newton stops once its step is at round-off
TANGENCY_MAX_EVALS = 100  # bisection alone reaches that floor in about 53
N_BISECT = 8              # chord-step schedule: bisections of the half-turn bracket,
N_NEWTON = 4              # then deflated Newton steps (see chord_step_batch)
# (cos, sin) of the half-width pi / 2^(k+1) of the chord-step bracket at bisection k
_HALF_WIDTH_CS = tuple((math.cos(math.pi / 2 ** (k + 1)), math.sin(math.pi / 2 ** (k + 1)))
                       for k in range(N_BISECT))


@dataclass(frozen=True)
class PhasePoint:
    """Exterior phase-space point: world (x, y) and polar (p = r^2/2, phi)."""

    x: float
    y: float
    p: float
    phi: float


@dataclass(frozen=True)
class TangencyResult:
    phi_m: float
    t: float
    point: PlanePoint
    near_boundary: bool = False


def _orientation_sign(orientation: str) -> int:
    if orientation == CCW:
        return 1
    if orientation == CW:
        return -1
    raise ValueError(f"orientation must be '{CCW}' or '{CW}'")


def phase_point(curve: ConvexCurve, x: float, y: float) -> PhasePoint:
    """Build a PhasePoint from world coordinates; must be strictly exterior."""
    phi, rho, _, _, _ = _require_exterior(curve, x - curve.origin[0], y - curve.origin[1])
    return PhasePoint(x=float(x), y=float(y), p=0.5 * rho * rho, phi=phi)


def phase_point_polar(curve: ConvexCurve, p: float, phi: float) -> PhasePoint:
    rho = math.sqrt(2.0 * p)
    return phase_point(curve,
                       curve.origin[0] + rho * math.cos(phi),
                       curve.origin[1] + rho * math.sin(phi))


# -- tangency root ------------------------------------------------------------

def _tangency_root(curve: ConvexCurve, ax: float, ay: float, direction: int):
    """Tangency angle, chord parameter and origin-relative tangency point
    (psi, t, gx, gy) from an origin-relative exterior point (ax, ay).

    direction=+1 picks the forward (t > 0) branch in (phi_A, phi_A + pi),
    direction=-1 the mirrored branch in (phi_A - pi, phi_A); the signs of
    g(psi) = cross(gamma'(psi), A - gamma(psi)) at the ends of that half-turn
    are known.  With h = |A| - r(phi_A), g(phi_A + x) is close to
    -r h - 2 r' h x + chi x^2 / 2 when A is near the curve; Newton on g starts
    from that quadratic's root on the branch's side, or from the midpoint of
    the half-turn when the root falls outside it.  Every iterate narrows the
    sign bracket; a Newton step that would leave the bracket, or that does
    not halve the step before last, is replaced by a bisection (rtsafe,
    Numerical Recipes 9.4).  The solve stops at g == 0; once the Newton step
    g / g' is below its round-off floor STEP_TOL (max(1, |psi|) + |gamma'| |A|
    / |g'|), taking that step to first order without a new evaluation; or
    once a bracket with both ends evaluated is that narrow.  Near the curve
    the start is off by O(t^2) of an O(t) root, so Newton needs 1-3 steps.
    A solve that has not stopped after TANGENCY_MAX_EVALS evaluations raises
    TangencyError.
    """
    phi_a, rho, r, r1, r2 = _require_exterior(curve, ax, ay)
    if direction > 0:
        blo, bhi, sign_lo = phi_a, phi_a + math.pi, -1.0
    else:
        blo, bhi, sign_lo = phi_a - math.pi, phi_a, 1.0
    h, k = rho - r, chi(r, r1, r2)
    disc = 4.0 * r1 * r1 * h * h + 2.0 * k * r * h
    psi = math.nan
    if k > 0.0 and disc >= 0.0:      # on every convex curve
        if direction * r1 > 0.0:     # pick the form whose terms add
            psi = phi_a + (2.0 * r1 * h + direction * math.sqrt(disc)) / k
        else:
            psi = phi_a + 2.0 * r * h / (direction * math.sqrt(disc) - 2.0 * r1 * h)
    if not blo < psi < bhi:
        psi = 0.5 * (blo + bhi)
    lo, hi = blo, bhi
    step_last = step_prev = math.pi
    for _ in range(TANGENCY_MAX_EVALS):
        r, r1, r2 = curve.radius_scalar(psi)
        c, s = math.cos(psi), math.sin(psi)
        gx, gy = r * c, r * s
        tx, ty = r1 * c - r * s, r1 * s + r * c
        ex, ey = ax - gx, ay - gy
        g = tx * ey - ty * ex
        if g == 0.0:
            break
        if not math.isfinite(g):
            raise TangencyError(f"tangency solve met g = {g!r} at psi = {psi!r} for the "
                                f"point ({ax:.6g}, {ay:.6g}) relative to the origin")
        uxx, uyy = (r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c
        gp = uxx * ey - uyy * ex
        if g * sign_lo > 0.0:
            lo = psi
        else:
            hi = psi
        # the round-off floor of g / g', times |g'|: near the curve g' = O(t),
        # so a small residual alone would still leave an angle error |g / g'|
        floor = STEP_TOL * (abs(gp) * max(1.0, abs(psi)) + math.hypot(tx, ty) * rho)
        if abs(g) <= floor:
            if gp != 0.0:
                # take that step to first order (its square is far below
                # round-off): stopping short of it biases every step the same
                # way, and orbits drift in phase
                dx = g / gp
                psi, gx, gy = psi - dx, gx - dx * tx, gy - dx * ty
                tx, ty = tx - dx * uxx, ty - dx * uyy
                ex, ey = ax - gx, ay - gy
            break
        if (hi - lo) * abs(gp) <= floor and blo < lo and hi < bhi:
            break
        nxt = psi - g / gp if gp != 0.0 else math.nan
        if not (lo < nxt < hi and 2.0 * abs(nxt - psi) <= step_prev):
            nxt = 0.5 * (lo + hi)
        step_prev, step_last = step_last, abs(nxt - psi)
        psi = nxt
    else:
        raise TangencyError(f"tangency solve did not converge in {TANGENCY_MAX_EVALS} "
                            f"evaluations for the point ({ax:.6g}, {ay:.6g}) relative "
                            "to the origin")
    t = math.hypot(ex, ey) / math.hypot(tx, ty)
    if not math.isfinite(t):      # |A| near overflow
        raise TangencyError(f"tangency solve gave t = {t!r} for the point "
                            f"({ax:.6g}, {ay:.6g}) relative to the origin")
    return psi, t, gx, gy


def tangency(curve: ConvexCurve, a: PhasePoint, orientation: str = CCW) -> TangencyResult:
    """Forward tangency point and chord parameter for an exterior point."""
    sign = _orientation_sign(orientation)
    psi, t, gx, gy = _tangency_root(curve, a.x - curve.origin[0], a.y - curve.origin[1], sign)
    return TangencyResult(phi_m=psi, t=t,
                          point=PlanePoint(curve.origin[0] + gx, curve.origin[1] + gy),
                          near_boundary=t < NEAR_BOUNDARY_T)


def _require_exterior(curve: ConvexCurve, ax: float, ay: float):
    """(phi_A, |A|, r, r', r'') at the polar angle of an origin-relative point
    A, which must be strictly outside the curve."""
    phi_a, rho = math.atan2(ay, ax), math.hypot(ax, ay)
    r, r1, r2 = curve.radius_scalar(phi_a)
    if not rho > r:       # a NaN fails too
        raise InsideCurveError(
            f"phase point at rho={rho:.6g} is not strictly outside (r={r:.6g})")
    return phi_a, rho, r, r1, r2


def _reflect(curve: ConvexCurve, a: PhasePoint, direction: int) -> PhasePoint:
    """Reflect A about its tangency point on the given branch (see _tangency_root)."""
    _, _, gx, gy = _tangency_root(curve, a.x - curve.origin[0], a.y - curve.origin[1],
                                  direction)
    return phase_point(curve, 2.0 * (curve.origin[0] + gx) - a.x,
                       2.0 * (curve.origin[1] + gy) - a.y)


def step(curve: ConvexCurve, a: PhasePoint, orientation: str = CCW) -> PhasePoint:
    """One application of the outer billiard map: reflect A about the tangency point."""
    return _reflect(curve, a, _orientation_sign(orientation))


def inverse_step(curve: ConvexCurve, b: PhasePoint, orientation: str = CCW) -> PhasePoint:
    """The point A with step(A) = B (mirrored tangency branch)."""
    return _reflect(curve, b, -_orientation_sign(orientation))


def orbit(curve: ConvexCurve, a: PhasePoint, n: int, orientation: str = CCW):
    """[A, T(A), ..., T^n(A)]; aborts with the failing step index on error."""
    if n < 0:
        raise ValueError("orbit length must be non-negative")
    points = [a]
    current = a
    for k in range(n):
        try:
            current = step(curve, current, orientation)
        except (TangencyError, InsideCurveError) as exc:
            raise TangencyError(f"orbit step {k + 1} failed: {exc}", step=k + 1) from exc
        points.append(current)
    return points


def differential_fd(curve: ConvexCurve, a: PhasePoint, h: float = 1e-5,
                    orientation: str = CCW) -> np.ndarray:
    """Central-difference differential of T in (p, phi) coordinates.

    Step h*max(1, p) in p and h in phi.  All four stencil points must stay
    exterior.  det of the result is 1 up to O(h^2) since T preserves
    dp ^ dphi.
    """
    hp = h * max(1.0, a.p)
    base = step(curve, a, orientation)
    out = np.empty((2, 2))

    def image(p, phi):
        q = step(curve, phase_point_polar(curve, p, phi), orientation)
        dphi = q.phi - base.phi
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        return q.p, base.phi + dphi

    pp, fp = image(a.p + hp, a.phi)
    pm, fm = image(a.p - hp, a.phi)
    out[0, 0] = (pp - pm) / (2.0 * hp)
    out[1, 0] = (fp - fm) / (2.0 * hp)
    pp, fp = image(a.p, a.phi + h)
    pm, fm = image(a.p, a.phi - h)
    out[0, 1] = (pp - pm) / (2.0 * h)
    out[1, 1] = (fp - fm) / (2.0 * h)
    return out


# -- chord-chart stepping (hot paths for Jacobi machinery) --------------------

def chord_of(curve: ConvexCurve, a: PhasePoint, orientation: str = CCW):
    """Forward chord (phi_m, t) through an exterior point (A is the chord's tail)."""
    return _tangency_root(curve, a.x - curve.origin[0], a.y - curve.origin[1],
                          _orientation_sign(orientation))[:2]


def _near_boundary_message(t) -> str:
    t = float(t)
    if t >= NEAR_BOUNDARY_T:
        return (f"chord step needs t >= {MIN_CHORD_T:g} for a new t within 1e-4, "
                f"got t = {t:.3g}: the chord head is too close to the curve")
    return (f"chord step needs t >= {NEAR_BOUNDARY_T:g} (t >= {MIN_CHORD_T:g} for a "
            f"new t within 1e-4), got t = {t:.3g}: the chord head is within "
            "rounding of the curve")


def chord_step_scalar(curve: ConvexCurve, phi_m: float, t: float, direction: int = 1,
                      head=None):
    """Next (+1) or previous (-1) chord of the orbit, on plain floats.

    The point map's tangency solve (_tangency_root) from the chord's head
    B = gamma(phi_m) + direction t gamma'(phi_m): it stops once converged,
    about 4-9 radius_scalar calls per step on the presets, counting the one
    for the head.  A caller stepping on passes (r, r', r'') at phi_m as
    ``head=`` and saves that call, with a bitwise equal result.  The batch
    kernel runs its own fixed schedule, so the two agree within 1e-12, not
    bitwise; t below MIN_CHORD_T is refused by both.
    """
    if not t >= MIN_CHORD_T:
        raise TangencyError(_near_boundary_message(t))
    r, r1, _ = curve.radius_scalar(phi_m) if head is None else head
    c, s = math.cos(phi_m), math.sin(phi_m)
    bx = r * c + direction * t * (r1 * c - r * s)
    by = r * s + direction * t * (r1 * s + r * c)
    return _tangency_root(curve, bx, by, direction)[:2]


def chord_step_batch(curve: ConvexCurve, phi_m: np.ndarray, t: np.ndarray,
                     direction: int = 1, head=None):
    """Next (+1) or previous (-1) chords of many orbits at once.

    Returns (psi, t_new, radial), where radial = (cos, sin, r, r', r'') at
    psi from the kernel's last evaluation.  A caller stepping on passes that
    tuple back as ``head=`` (the same data at phi_m, not the head point B
    below), and the step skips its first trig pair and radius call: 13
    radius calls instead of 14.  Since radius(phi, cs=...) is bitwise equal
    to radius(phi), the result is the same with or without it.

    From the chord's head B the wanted tangency is the sign change of
    g(psi) = cross(gamma'(psi), B - gamma(psi)) in the half-turn after
    phi_b = arg B (before it for direction -1).  N_BISECT bisections narrow
    that bracket.  N_NEWTON Newton steps follow on the deflated function
    g / (psi - phi_m): g also vanishes at the incoming tangency phi_m, just
    outside the bracket, which makes the wanted root nearly double at small
    t.  Newton starts from the circle guess phi_b + (phi_b - phi_m), exact
    for a circle, or from the bracket midpoint when that guess falls
    outside; each iterate narrows the sign bracket and is clipped to it.
    That is 1 + N_BISECT + N_NEWTON + 1 = 14 radius calls per step, 13 with
    a head.

    The schedule is fixed rather than convergence-driven, so every lane runs
    the same float operations whatever the other lanes hold: results are
    bitwise independent of batch composition, chunking and worker count.
    chord_step_scalar stops once converged instead, so it agrees with this
    kernel within 1e-12, not bitwise.
    8 + 4 is the shortest schedule that reaches the round-off floor of the
    chord chart: on 5:1 and 10:1 ellipses with t in [1e-3, 3], 6 + 3 left
    errors up to 7e-4 rad and 8 + 3 up to 5e-8 rad.

    Near the curve the head B lies within |B|^2 - r^2 = O(t^2) of it, so the
    relative error of t_new grows like 1e-16 / t^2: on the unit circle, worst
    of 20000 random phi in both directions, it is 1.05e-4 at t = 1.4e-6,
    9.4e-5 at 1.5e-6, 1.8e-2 at 1e-7 and 100% at 1e-8.  Both kernels raise
    TangencyError unless every t is at least MIN_CHORD_T = 1.5e-6, the
    smallest t that keeps that error within 1e-4.

    Each radius call gets the (cos, sin) pair the step needs anyway.  The
    bisections compute it without trig: every lane's bracket has width
    pi / 2^k at bisection k, so the midpoint's pair is the lower end's (first
    B / |B|, negated for direction -1) turned by a constant angle.  Its last
    bits differ from cos(mid), sin(mid), which could flip a sign of g; on
    3.16M random lanes (five curves, both directions, t from MIN_CHORD_T to
    30) none did.  That is measured, not proven.
    """
    if not np.all(t >= MIN_CHORD_T):
        raise TangencyError(_near_boundary_message(np.min(t)))
    if head is None:
        c, s = np.cos(phi_m), np.sin(phi_m)
        head = (c, s) + curve.radius(phi_m, cs=(c, s))
    c, s, r, r1, _ = head
    bx = r * c + direction * t * (r1 * c - r * s)
    by = r * s + direction * t * (r1 * s + r * c)
    phi_b = np.arctan2(by, bx)
    # phi_b - phi_m without a 2 pi wrap: psi - phi_m = psi - phi_b + direction * off
    off = np.arctan2(t * r, r + direction * t * r1)
    rb = direction * np.hypot(bx, by)
    cl, sl = bx / rb, by / rb     # (cos, sin) of lo, which is phi_b or phi_b - pi
    if direction > 0:
        lo, hi = phi_b.copy(), phi_b + np.pi
        sign_lo = -1.0
    else:
        lo, hi = phi_b - np.pi, phi_b.copy()
        sign_lo = 1.0
    for ch, sh in _HALF_WIDTH_CS:
        mid = 0.5 * (lo + hi)
        cm, sm = cl * ch - sl * sh, sl * ch + cl * sh
        r, r1, _ = curve.radius(mid, cs=(cm, sm))
        g = (r1 * cm - r * sm) * (by - r * sm) - (r1 * sm + r * cm) * (bx - r * cm)
        take_lo = g * sign_lo > 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
        cl, sl = np.where(take_lo, cm, cl), np.where(take_lo, sm, sl)
    psi = phi_b + direction * off
    psi = np.where((lo < psi) & (psi < hi), psi, 0.5 * (lo + hi))
    for _ in range(N_NEWTON):
        cm, sm = np.cos(psi), np.sin(psi)
        r, r1, r2 = curve.radius(psi, cs=(cm, sm))
        gx, gy = r * cm, r * sm
        tx, ty = r1 * cm - r * sm, r1 * sm + r * cm
        g = tx * (by - gy) - ty * (bx - gx)
        gp = ((r2 - r) * cm - 2.0 * r1 * sm) * (by - gy) - ((r2 - r) * sm + 2.0 * r1 * cm) * (bx - gx)
        take_lo = g * sign_lo > 0.0
        lo = np.where(take_lo, psi, lo)
        hi = np.where(take_lo, hi, psi)
        # Newton on h = g / (psi - phi_m): h / h' = g / (g' - g / (psi - phi_m));
        # an exact root (g == 0, where g' may vanish too) stays put
        den = gp - g / (psi - phi_b + direction * off)
        psi = np.clip(psi - g / np.where(g == 0.0, 1.0, den), lo, hi)
    cm, sm = np.cos(psi), np.sin(psi)
    r, r1, r2 = curve.radius(psi, cs=(cm, sm))
    t_new = np.hypot(bx - r * cm, by - r * sm) / np.hypot(r1 * cm - r * sm, r1 * sm + r * cm)
    return psi, t_new, (cm, sm, r, r1, r2)


def chord_tail_point(curve: ConvexCurve, phi_m: float, t: float) -> PhasePoint:
    """The phase point at the chord's tail M0 = gamma(phi_m) - t gamma'(phi_m)."""
    r, r1, _ = curve.radius_scalar(phi_m)
    c, s = math.cos(phi_m), math.sin(phi_m)
    return phase_point(curve,
                       curve.origin[0] + r * c - t * (r1 * c - r * s),
                       curve.origin[1] + r * s - t * (r1 * s + r * c))


# -- export -------------------------------------------------------------------

def write_orbit_csv(fh, points, footer_lines=()):
    """Write an orbit as CSV rows n,x,y,p,phi at full double precision."""
    fh.write("n,x,y,p,phi\n")
    fh.writelines("%d,%.17g,%.17g,%.17g,%.17g\n" % (n, pt.x, pt.y, pt.p, pt.phi)
                  for n, pt in enumerate(points))
    for line in footer_lines:
        fh.write(f"# {line}\n")
