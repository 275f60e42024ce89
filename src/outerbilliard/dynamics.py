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

One solver, _tangency_root, serves the point map (step, inverse_step,
tangency) and the scalar chord step (chord_step_scalar, behind the Jacobi
and Hopf machinery along single orbits): Newton inside that bracket from
the root of the second-order expansion of g about phi_A, bisecting only
when a Newton step would leave the bracket or stall, stopping once the step
is at round-off.  A point from phase_point, step or inverse_step keeps its
exterior check's (phi_A, |A|, r, r', r''), so a solve from it skips the
check: a map step costs the solve plus one evaluation for the image's own
check.  The radius evaluations per tangency and per map step are measured in
CHANGES.md.
Its lane twin (_tangency_root_lanes, behind phase_lanes, step_lanes and
differential_fd_lanes) runs the same solve on arrays of independent points,
with the scalar's float operations lane by lane, so every lane has the
scalar's bits; verify steps its sample points on it.  The lanes only mark
where a step fails, with NaN; the scalar, run on the first marked lane,
raises its own error.  A lane step's gain over the scalar shrinks at a few
dozen lanes, where numpy's per-call cost dominates (timings in CHANGES.md).
Orbits stay scalar, as each step needs the last; so does portrait, whose 64
orbits would make only 64 lanes.
The batch chord step (chord_step_batch, behind the conjugate grid scan)
steps forward only and runs one fixed schedule instead, N_BISECT
bisections and then N_NEWTON deflated Newton steps: 13 radius evaluations
per step, of r and r' only in the bisections, which make no trig call (its
array passes are counted in CHANGES.md).  Both chord steps take the radial
data at the chord's own tangency angle from the caller, and agree to
round-off, not bitwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .curves import ConvexCurve, PlanePoint, chi
from .errors import ConvergenceError, InsideCurveError, TangencyError

CCW = "ccw"
CW = "cw"

MIN_CHORD_T = 1.5e-6      # smallest t the chord kernels step (t_new error <= 1e-4)
STEP_TOL = 4e-16          # tangency Newton stops once its step is at round-off
DIFFERENTIAL_FD_H = 1e-5  # differential_fd: step h in phi, h max(1, p) in p
TANGENCY_MAX_EVALS = 100  # bisection alone reaches that floor in about 53
N_BISECT = 8              # chord-step schedule: bisections of the half-turn bracket,
N_NEWTON = 4              # then deflated Newton steps (see chord_step_batch)
# (h, exp(-i h)), h = pi / 2^(k+1) the chord-step bracket's half-width at bisection k
_HALF_TURNS = tuple((h, complex(math.cos(h), -math.sin(h)))
                    for h in (math.pi / 2 ** (k + 1) for k in range(N_BISECT)))


@dataclass(frozen=True)
class PhasePoint:
    """Exterior phase-space point: world (x, y) and polar (p = r^2/2, phi).

    A point returned by phase_point, step or inverse_step also keeps its
    exterior check's data, the curve and (phi_A, |A|, r, r', r'') at its
    polar angle, so that the next tangency solve on that curve skips its own
    exterior check.  That field takes no part in equality, hashing or repr.
    """

    x: float
    y: float
    p: float
    phi: float
    _exterior: tuple = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class TangencyResult:
    phi_m: float
    t: float
    point: PlanePoint


def _orientation_sign(orientation: str) -> int:
    if orientation == CCW:
        return 1
    if orientation == CW:
        return -1
    raise ValueError(f"orientation must be '{CCW}' or '{CW}'")


def phase_point(curve: ConvexCurve, x: float, y: float) -> PhasePoint:
    """Build a PhasePoint from world coordinates; must be strictly exterior,
    with p = rho^2/2 finite (ConvergenceError when it overflows)."""
    x, y = float(x), float(y)
    exterior = _require_exterior(curve, x - curve.origin[0], y - curve.origin[1])
    phi, rho = exterior[:2]
    p = 0.5 * rho * rho
    if not math.isfinite(p):
        raise ConvergenceError(f"p = rho^2/2 is {p!r} at the point ({x!r}, {y!r})")
    a = PhasePoint(x=x, y=y, p=p, phi=phi)
    object.__setattr__(a, "_exterior", (curve,) + exterior)
    return a


# -- tangency root ------------------------------------------------------------

def _tangency_root(curve: ConvexCurve, ax: float, ay: float, direction: int,
                   exterior=None):
    """Tangency angle, chord parameter and origin-relative tangency point
    (psi, t, gx, gy) from an origin-relative exterior point (ax, ay).
    ``exterior`` is _require_exterior's result for that point when the
    caller holds it (see _solve_from); otherwise the check runs here.

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
    phi_a, rho, r, r1, r2 = _require_exterior(curve, ax, ay) if exterior is None else exterior
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
        floor = STEP_TOL * (abs(gp) * max(1.0, abs(psi)) + math.sqrt(r * r + r1 * r1) * rho)
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


def _solve_from(curve: ConvexCurve, a: PhasePoint, direction: int):
    """_tangency_root from a phase point, reusing the exterior check that
    phase_point made when it built A on this curve."""
    kept = a._exterior
    exterior = kept[1:] if kept is not None and kept[0] is curve else None
    return _tangency_root(curve, a.x - curve.origin[0], a.y - curve.origin[1], direction,
                          exterior)


def tangency(curve: ConvexCurve, a: PhasePoint, orientation: str = CCW) -> TangencyResult:
    """Forward tangency point and chord parameter for an exterior point."""
    psi, t, gx, gy = _solve_from(curve, a, _orientation_sign(orientation))
    return TangencyResult(phi_m=psi, t=t,
                          point=PlanePoint(curve.origin[0] + gx, curve.origin[1] + gy))


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
    _, _, gx, gy = _solve_from(curve, a, direction)
    return phase_point(curve, 2.0 * (curve.origin[0] + gx) - a.x,
                       2.0 * (curve.origin[1] + gy) - a.y)


def step(curve: ConvexCurve, a: PhasePoint, orientation: str = CCW) -> PhasePoint:
    """One application of the outer billiard map: reflect A about the tangency point."""
    return _reflect(curve, a, _orientation_sign(orientation))


def inverse_step(curve: ConvexCurve, b: PhasePoint) -> PhasePoint:
    """The point A with step(A) = B (mirrored tangency branch)."""
    return _reflect(curve, b, -1)


def orbit(curve: ConvexCurve, a: PhasePoint, n: int, orientation: str = CCW):
    """[A, T(A), ..., T^n(A)]; aborts with the failing step index on error.

    Each step reads the exterior data its point kept; the points this makes
    drop it once stepped, so a long orbit costs no more memory per point.
    """
    if n < 0:
        raise ValueError("orbit length must be non-negative")
    points = [a]
    current = a
    for k in range(n):
        try:
            nxt = step(curve, current, orientation)
        except (TangencyError, InsideCurveError) as exc:
            raise TangencyError(f"orbit step {k + 1} failed: {exc}", step=k + 1) from exc
        if k:
            object.__setattr__(current, "_exterior", None)
        current = nxt
        points.append(current)
    return points


def differential_fd(curve: ConvexCurve, a: PhasePoint) -> np.ndarray:
    """Central-difference differential of T in (p, phi) coordinates:
    differential_fd_lanes on one lane."""
    return differential_fd_lanes(curve, np.array([a.p]), np.array([a.phi]),
                                 np.array([step(curve, a).phi]))[0]


# -- lane twins -----------------------------------------------------------------

@dataclass(frozen=True)
class PhaseLanes:
    """Exterior phase points as arrays, one lane each: PhasePoint's (x, y, p,
    phi) and the exterior check's (phi_A, |A|, r, r', r'') arrays, which a
    solve from these lanes reads in place of its own check.  Indexing takes
    the same lanes of every array."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    exterior: tuple

    def __getitem__(self, lanes) -> "PhaseLanes":
        return PhaseLanes(self.x[lanes], self.y[lanes], self.p[lanes], self.phi[lanes],
                          tuple(v[lanes] for v in self.exterior))

    def refused(self) -> np.ndarray:
        """The lanes phase_point refuses: not strictly outside (a NaN fails
        too), or with p not finite.  The image of a lane whose solve failed
        is NaN, so it is refused."""
        _, rho, r, _, _ = self.exterior
        return ~((rho > r) & np.isfinite(self.p))

    def point(self, curve: ConvexCurve, i: int) -> PhasePoint:
        """Lane i as a PhasePoint that keeps the lane's exterior data."""
        a = PhasePoint(*(v[i].item() for v in (self.x, self.y, self.p, self.phi)))
        object.__setattr__(a, "_exterior", (curve,) + tuple(v[i].item() for v in self.exterior))
        return a


def _per_lane(f, *columns) -> np.ndarray:
    """f (math.atan2 or math.hypot) on each lane: numpy's twins of those two
    round differently on some arguments, so the lanes call the scalar's own."""
    return np.array(list(map(f, *(v.tolist() for v in columns))), dtype=float)


def _raise_first(marked: np.ndarray, scalar):
    """If any lane is marked, make the scalar call on the first marked lane,
    where the scalar, stepping the lanes in order, fails first: it raises its
    own error.  A marked lane on which the scalar succeeds is a fault of the
    lanes, raised rather than returned as a silent NaN."""
    if marked.any():
        i = int(np.argmax(marked))
        scalar(i)
        raise RuntimeError(f"lane {i} was marked as failing, but the scalar call on it "
                           "succeeded")


def _require_exterior_lanes(curve: ConvexCurve, ax, ay):
    """_require_exterior's (phi_A, |A|, r, r', r'') on arrays, with its bits
    but not its check: PhaseLanes.refused marks the lanes it refuses."""
    phi_a = _per_lane(math.atan2, ay, ax)
    return (phi_a, _per_lane(math.hypot, ax, ay)) + tuple(curve.radius(phi_a))


@np.errstate(all="ignore")
def _phase_lanes(curve: ConvexCurve, x, y) -> PhaseLanes:
    """phase_point on arrays of world points, without its checks."""
    exterior = _require_exterior_lanes(curve, x - curve.origin[0], y - curve.origin[1])
    return PhaseLanes(x, y, 0.5 * exterior[1] * exterior[1], exterior[0], exterior)


@np.errstate(all="ignore")     # the scalar's floats do not warn either
def _tangency_root_lanes(curve: ConvexCurve, ax, ay, direction: int, exterior):
    """_tangency_root on arrays of origin-relative points in one direction,
    from their exterior check's arrays: (psi, gx, gy) arrays, NaN on exactly
    the lanes where _tangency_root raises.  The lanes mark a failure; the
    scalar on the first marked lane says why (_raise_first).

    Every lane runs the scalar's rtsafe with the scalar's float operations:
    the same second-order start and bracket, Newton-or-bisect rule, STEP_TOL
    stops and first-order final step, so each lane has _tangency_root's bits.
    A lane not strictly outside never enters; a lane leaves the working
    arrays once it stops or its g is not finite, so later iterations run on
    the lanes still going, and one still going after TANGENCY_MAX_EVALS
    evaluations keeps its NaN.

    The lanes compute no chord parameter t, as step reads only gx and gy.
    The scalar's t can only overflow where |A - gamma| does; then the image
    2 gamma - A has an overflowing p, which PhaseLanes.refused marks, and the
    scalar on that lane raises its own t error.
    """
    psi_out, gx_out, gy_out = (np.full(len(ax), math.nan) for _ in range(3))
    idx = np.flatnonzero(exterior[1] > exterior[2])     # rho > r; a NaN fails too
    ax, ay = ax[idx], ay[idx]
    phi_a, rho, r, r1, r2 = (v[idx] for v in exterior)
    if direction > 0:
        blo, bhi, sign_lo = phi_a, phi_a + math.pi, -1.0
    else:
        blo, bhi, sign_lo = phi_a - math.pi, phi_a, 1.0
    h, k = rho - r, chi(r, r1, r2)
    disc = 4.0 * r1 * r1 * h * h + 2.0 * k * r * h
    root = np.sqrt(disc)
    psi = np.where(direction * r1 > 0.0, phi_a + (2.0 * r1 * h + direction * root) / k,
                   phi_a + 2.0 * r * h / (direction * root - 2.0 * r1 * h))
    psi = np.where((k > 0.0) & (disc >= 0.0) & (blo < psi) & (psi < bhi), psi,
                   0.5 * (blo + bhi))
    lo, hi = blo, bhi
    step_last = step_prev = np.full(len(idx), math.pi)
    for _ in range(TANGENCY_MAX_EVALS):
        if not len(idx):
            break
        c, s = np.cos(psi), np.sin(psi)
        r, r1, r2 = curve.radius(psi, cs=(c, s))
        gx, gy = r * c, r * s
        tx, ty = r1 * c - r * s, r1 * s + r * c
        ex, ey = ax - gx, ay - gy
        g = tx * ey - ty * ex
        uxx, uyy = (r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c
        gp = uxx * ey - uyy * ex
        below = g * sign_lo > 0.0
        lo, hi = np.where(below, psi, lo), np.where(below, hi, psi)
        floor = STEP_TOL * (np.abs(gp) * np.maximum(1.0, np.abs(psi))
                            + np.sqrt(r * r + r1 * r1) * rho)
        zero, finite = g == 0.0, np.isfinite(g)
        conv = ~zero & finite & (np.abs(g) <= floor)
        stop = zero | conv | (finite & ((hi - lo) * np.abs(gp) <= floor)
                              & (blo < lo) & (hi < bhi))
        if stop.any():
            # the first-order step of a converged lane, as the scalar takes it
            take = (conv & (gp != 0.0))[stop]
            dx = g[stop] / gp[stop]
            lanes = idx[stop]
            psi_out[lanes] = np.where(take, psi[stop] - dx, psi[stop])
            gx_out[lanes] = np.where(take, gx[stop] - dx * tx[stop], gx[stop])
            gy_out[lanes] = np.where(take, gy[stop] - dx * ty[stop], gy[stop])
        nxt = np.where(gp != 0.0, psi - g / gp, math.nan)
        ok = (lo < nxt) & (nxt < hi) & (2.0 * np.abs(nxt - psi) <= step_prev)
        nxt = np.where(ok, nxt, 0.5 * (lo + hi))
        step_prev, step_last = step_last, np.abs(nxt - psi)
        keep = finite & ~stop
        idx, ax, ay, rho, blo, bhi, lo, hi, psi, step_last, step_prev = (
            v[keep] for v in (idx, ax, ay, rho, blo, bhi, lo, hi, nxt, step_last,
                              step_prev))
    return psi_out, gx_out, gy_out


@np.errstate(all="ignore")
def _step_lanes(curve: ConvexCurve, a: PhaseLanes, direction: int) -> PhaseLanes:
    """step (direction +1) or inverse_step (-1) on lanes, without checks."""
    ox, oy = curve.origin
    _, gx, gy = _tangency_root_lanes(curve, a.x - ox, a.y - oy, direction, a.exterior)
    return _phase_lanes(curve, 2.0 * (ox + gx) - a.x, 2.0 * (oy + gy) - a.y)


def phase_lanes(curve: ConvexCurve, x, y) -> PhaseLanes:
    """phase_point on arrays of world points, lane by lane with its bits; if
    it refuses a lane, phase_point raises its error on the first such lane."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a = _phase_lanes(curve, x, y)
    _raise_first(a.refused(), lambda i: phase_point(curve, x[i], y[i]))
    return a


def step_lanes(curve: ConvexCurve, a: PhaseLanes, direction: int) -> PhaseLanes:
    """Images of independent points at once: step (direction +1) or
    inverse_step (-1) on every lane, bit for bit.  If a lane fails, the
    scalar step raises its error on the first failing lane.

    For points that do not depend on one another, such as verify's samples;
    an orbit's points do, so orbit stays on the scalar step.
    """
    b = _step_lanes(curve, a, direction)
    _raise_first(b.refused(), lambda i: _reflect(curve, a.point(curve, i), direction))
    return b


@np.errstate(all="ignore")
def differential_fd_lanes(curve: ConvexCurve, p, phi, base_phi) -> np.ndarray:
    """Central-difference differentials of T in (p, phi) coordinates at
    lanes (p, phi) whose images T(A) have polar angles base_phi, which the
    stencil images' angles are unwrapped against: an (n, 2, 2) array.

    Step h = DIFFERENTIAL_FD_H in phi and h*max(1, p) in p.  All four stencil
    points of a lane must stay exterior; if one fails, the scalar step raises
    its error on the first failing one, lanes in order and within a lane the
    stencil in the order (p + h, p - h, phi + h, phi - h).  det of each
    matrix is 1 up to O(h^2) since T preserves dp ^ dphi.  The four stencil
    images of every lane are stepped in one call of the lane solve.
    """
    h = DIFFERENTIAL_FD_H
    hp = h * np.maximum(1.0, p)
    # the stencil point-major, so lane order is the scalar's stepping order
    sp = np.stack([p + hp, p - hp, p, p], axis=1).ravel()
    sphi = np.stack([phi, phi, phi + h, phi - h], axis=1).ravel()
    rho = np.sqrt(2.0 * sp)
    x, y = curve.origin[0] + rho * np.cos(sphi), curve.origin[1] + rho * np.sin(sphi)
    a = _phase_lanes(curve, x, y)
    q = _step_lanes(curve, a, 1)
    _raise_first(a.refused() | q.refused(),
                 lambda k: step(curve, phase_point(curve, x[k], y[k])))
    base_phi = np.repeat(base_phi, 4)
    dphi = (q.phi - base_phi + math.pi) % (2.0 * math.pi) - math.pi
    qp, qphi = q.p.reshape(-1, 4), (base_phi + dphi).reshape(-1, 4)
    out = np.empty((len(p), 2, 2))
    out[:, 0, 0] = (qp[:, 0] - qp[:, 1]) / (2.0 * hp)
    out[:, 1, 0] = (qphi[:, 0] - qphi[:, 1]) / (2.0 * hp)
    out[:, 0, 1] = (qp[:, 2] - qp[:, 3]) / (2.0 * h)
    out[:, 1, 1] = (qphi[:, 2] - qphi[:, 3]) / (2.0 * h)
    return out


def ellipse_invariant_deviation(curve: ConvexCurve, points) -> float:
    """Worst relative change of ((x - x0)/a)^2 + ((y - y0)/b)^2 along points of
    an ellipse's orbit; the map keeps each homothetic ellipse invariant."""
    x0, y0 = curve.origin
    q = [((p.x - x0) / curve.axis_a) ** 2 + ((p.y - y0) / curve.axis_b) ** 2 for p in points]
    return max(abs(v - q[0]) / q[0] for v in q)


# -- chord-chart stepping (hot paths for Jacobi machinery) --------------------

def chord_of(curve: ConvexCurve, a: PhasePoint):
    """Forward chord (phi_m, t) through an exterior point (A is the chord's tail)."""
    return _solve_from(curve, a, 1)[:2]


def _near_boundary_message(t) -> str:
    return (f"chord step needs t >= {MIN_CHORD_T:g} for a new t within 1e-4, "
            f"got t = {float(t):.3g}: the chord head is too close to the curve")


def chord_step_scalar(curve: ConvexCurve, phi_m: float, t: float, direction: int, head):
    """Next (+1) or previous (-1) chord of the orbit, on plain floats.

    ``head`` is (r, r', r'') at phi_m, which the caller holds.  The point
    map's tangency solve (_tangency_root) from the chord's head
    B = gamma(phi_m) + direction t gamma'(phi_m): it stops once converged,
    so its radius_scalar calls per step vary (measured in CHANGES.md).  The
    batch kernel runs its own fixed schedule, so the two agree to round-off,
    not bitwise (see chord_step_batch); t below MIN_CHORD_T is refused by
    both.
    """
    if not t >= MIN_CHORD_T:
        raise TangencyError(_near_boundary_message(t))
    r, r1, _ = head
    c, s = math.cos(phi_m), math.sin(phi_m)
    bx = r * c + direction * t * (r1 * c - r * s)
    by = r * s + direction * t * (r1 * s + r * c)
    return _tangency_root(curve, bx, by, direction)[:2]


def chord_step_batch(curve: ConvexCurve, t: np.ndarray, head):
    """Next chords of many orbits at once.

    ``head`` is (cos, sin, r, r', r'') at the chord's tangency angle phi_m.
    Returns (psi, t_new, radial), where radial is that tuple at psi from the
    kernel's last evaluation, ready to head the next step.

    From the chord's head B = gamma(phi_m) + t gamma'(phi_m) the wanted
    tangency is the sign change of g(psi) = cross(gamma'(psi), B - gamma(psi))
    in the half-turn after phi_b = arg B.  N_BISECT bisections narrow that
    bracket.  N_NEWTON Newton steps follow on the deflated function
    g / (psi - phi_m): g also vanishes at the incoming tangency phi_m, just
    outside the bracket, which makes the wanted root nearly double at small
    t.  Newton starts from the circle guess phi_b + (phi_b - phi_m), exact
    for a circle, or from the bracket midpoint when that guess falls
    outside; each iterate narrows the sign bracket and is clipped to it.
    That is N_BISECT + N_NEWTON + 1 = 13 radius calls per step.

    The schedule is fixed rather than convergence-driven, so every lane runs
    the same float operations whatever the other lanes hold: results are
    bitwise independent of batch composition, chunking and worker count.
    chord_step_scalar stops once converged instead, so the two agree to
    round-off, not bitwise.  8 + 4 is the shortest schedule that reaches the
    round-off floor of the chord chart on eccentric ellipses.

    Near the curve the head B lies within |B|^2 - r^2 = O(t^2) of it, so the
    relative error of t_new grows like 1e-16 / t^2.  Both kernels raise
    TangencyError unless every t is at least MIN_CHORD_T, the smallest t
    that keeps that error within 1e-4.

    The bisections read only the sign of g, so they ask radius for r and r'
    alone (second=False).  B and each (cos, sin) pair e are complex lanes,
    and one product conj(e) B gives (e . B) + i (e x B); with d = e . B - r,
    g is r' (e x B) - r d and g' is (r'' - r)(e x B) - 2 r' d.  The
    bisections take no trig call: every lane's bracket has width pi / 2^k at
    bisection k, so only its lower end is kept, and the midpoint's pair is
    the lower end's (first B / |B|) turned by a constant angle in one
    complex product.  Its last bits differ from cos(mid), sin(mid), which
    could flip a sign of g; none did on the lanes tried, which is measured,
    not proven.  CHANGES.md ("chord_step_batch measurements") holds the
    measured agreement with the scalar step, the schedules tried, the t_new
    error near the curve, the array-pass counts and the lanes tried.
    """
    if not np.all(t >= MIN_CHORD_T):
        raise TangencyError(_near_boundary_message(np.min(t)))
    c, s, r, r1, _ = head
    bx = r * c + t * (r1 * c - r * s)
    by = r * s + t * (r1 * s + r * c)
    phi_b = np.arctan2(by, bx)
    off = np.arctan2(t * r, r + t * r1)
    ref = phi_b - off     # phi_m without a 2 pi wrap
    b = np.empty(phi_b.shape, complex)
    b.real, b.imag = bx, by
    e = b.conj() / np.hypot(bx, by)   # conj(e) at lo = phi_b
    lo = phi_b
    for half, turn in _HALF_TURNS:
        mid = lo + half
        em = e * turn
        cm, sm = em.real.copy(), -em.imag
        r, r1 = curve.radius(mid, cs=(cm, sm), second=False)
        p = em * b
        take_lo = r1 * p.imag < r * (p.real - r)   # g < 0, as at lo
        e = np.where(take_lo, em, e)
        lo = np.where(take_lo, mid, lo)
    hi = lo + math.pi / 2 ** N_BISECT
    psi = phi_b + off
    psi = np.where((lo < psi) & (psi < hi), psi, lo + math.pi / 2 ** (N_BISECT + 1))
    e = np.empty_like(b)
    for _ in range(N_NEWTON):
        cm, sm = np.cos(psi), np.sin(psi)
        r, r1, r2 = curve.radius(psi, cs=(cm, sm))
        e.real = cm
        np.negative(sm, out=e.imag)
        p = e * b
        d = p.real - r
        g = r1 * p.imag - r * d
        gp = (r2 - r) * p.imag - 2.0 * r1 * d
        take_lo = g < 0.0
        lo = np.where(take_lo, psi, lo)
        hi = np.where(take_lo, hi, psi)
        # Newton on h = g / (psi - phi_m): h / h' = g / (g' - g / (psi - phi_m));
        # an exact root (g == 0, where g' may vanish too) stays put
        den = gp - g / (psi - ref)
        psi = np.minimum(np.maximum(psi - g / np.where(g == 0.0, 1.0, den), lo), hi)
    cm, sm = np.cos(psi), np.sin(psi)
    r, r1, r2 = curve.radius(psi, cs=(cm, sm))
    t_new = np.hypot(bx - r * cm, by - r * sm) / np.hypot(r1, r)
    return psi, t_new, (cm, sm, r, r1, r2)


def chord_tail_point(curve: ConvexCurve, phi_m: float, t: float) -> PhasePoint:
    """The phase point at the chord's tail M0 = gamma(phi_m) - t gamma'(phi_m)."""
    r, r1, _ = curve.radius_scalar(phi_m)
    c, s = math.cos(phi_m), math.sin(phi_m)
    return phase_point(curve,
                       curve.origin[0] + r * c - t * (r1 * c - r * s),
                       curve.origin[1] + r * s - t * (r1 * s + r * c))


# -- export -------------------------------------------------------------------

def orbit_chunks(points, *lead):
    """An orbit's CSV columns, serialize.CSV_BLOCK points a chunk, as the rows
    of a float array: the lead values, then n, x, y, p and phi."""
    for lo in range(0, len(points), serialize.CSV_BLOCK):
        yield np.array([(*lead, n, pt.x, pt.y, pt.p, pt.phi) for n, pt in
                        enumerate(points[lo:lo + serialize.CSV_BLOCK], lo)]).T


def write_orbit_csv(fh, points, footer_lines=()):
    """Write an orbit as CSV rows n,x,y,p,phi at full double precision."""
    fh.write("n,x,y,p,phi\n")
    serialize.write_g17_csv(fh, orbit_chunks(points))
    fh.writelines(f"# {line}\n" for line in footer_lines)
