"""Strictly convex closed plane curves given by a radial function r(phi).

Three kinds are supported: circles and axis-aligned ellipses (evaluated from
closed forms so equality cases keep maximal accuracy) and trigonometric
polynomials r(phi) = a0 + sum_k (c_k cos k phi + s_k sin k phi).  The radial
function is taken about the curve's ``origin``, a point in world coordinates;
boundary points are ``origin + r(phi) * e_phi``.

The package's one ray solve lives here: _ray_newton, a bracketed Newton in
the offset d of the boundary angle phi0 + d along rays phi0.  It has three
callers: radial_about (rays from an interior point, behind radius_about) and
generating's chart inversion and forward map.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InvalidCurveError, NotInteriorError
from .quadrature import TWO_PI, periodic_trapezoid, uniform_angles

CIRCLE = "circle"
ELLIPSE = "ellipse"
FOURIER = "fourier"

VALIDATION_GRID = 4096
CHI_MIN_DEFAULT = 1e-6
RAY_RESIDUAL_MAX = 1e-11    # radial_about's relative ray/boundary residual
RAY_TOL = 1e-12             # ray solve: Newton step in the offset accepted as converged
RAY_ROUNDOFF = 4e-16        # ray solve: ... or below its round-off floor, this times the scale
RAY_MAX_ITER = 50           # ray solve: radius calls before ConvergenceError
CENTROID_GRID = 2048        # trapezoid angles of area_centroid


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float


@dataclass(frozen=True)
class CurveValidation:
    ok: bool
    min_r: float
    min_chi: float
    phi_at_min_r: float
    phi_at_min_chi: float
    message: str = ""


@dataclass(frozen=True, eq=False)
class ConvexCurve:
    kind: str
    origin: tuple = (0.0, 0.0)
    radius_value: float = 0.0            # circle
    axis_a: float = 0.0                  # ellipse semi-axes
    axis_b: float = 0.0
    a0: float = 0.0                      # fourier mean term
    cos_coeffs: tuple = ()               # harmonic k = index + 1
    sin_coeffs: tuple = ()

    def __post_init__(self):
        # pad the trig coefficient lists to a common length once
        n = max(len(self.cos_coeffs), len(self.sin_coeffs))
        object.__setattr__(self, "cos_coeffs",
                           tuple(self.cos_coeffs) + (0.0,) * (n - len(self.cos_coeffs)))
        object.__setattr__(self, "sin_coeffs",
                           tuple(self.sin_coeffs) + (0.0,) * (n - len(self.sin_coeffs)))

    # -- radial function ---------------------------------------------------

    def radius(self, phi, cs=None, second=True):
        """Vectorized (r, r', r'') at angle(s) phi, or (r, r') when second is
        False.

        The ellipse and Fourier kinds cost one cos and one sin per lane, and
        _radial does the rest.  A caller that already holds the pair passes it
        as cs = (cos phi, sin phi) and pays no trig call; the result is then
        bitwise equal to radius(phi).  With second=False _radial skips r'' and
        its array passes; r and r' keep their bits.  All arithmetic is
        elementwise, so a lane's result does not depend on the other lanes of
        the call.
        """
        phi = np.asarray(phi, dtype=float)
        if self.kind == CIRCLE:
            r = np.full_like(phi, self.radius_value)
            z = np.zeros_like(phi)
            return (r, z, z) if second else (r, z)
        c, s = (np.cos(phi), np.sin(phi)) if cs is None else cs
        return self._radial(c, s, np.sqrt, second)

    def radius_scalar(self, phi: float):
        """Scalar (r, r', r'') on plain floats; hot path for orbit stepping.

        The same body as radius on one (math.cos, math.sin) pair, so
        radius_scalar(phi) equals radius(phi, cs=(math.cos(phi),
        math.sin(phi))) bit for bit, signed zeros included.
        """
        if self.kind == CIRCLE:
            return self.radius_value, 0.0, 0.0
        return self._radial(math.cos(phi), math.sin(phi), math.sqrt)

    def _radial(self, c, s, sqrt, second=True):
        """(r, r', r'') of the ellipse or Fourier kind from (cos phi, sin phi),
        or (r, r') with the same bits when second is False.

        Plain arithmetic only, so floats and numpy lanes round alike.  The
        ellipse works from cos^2, sin^2, 2 sin cos and cos^2 - sin^2; the
        Fourier kind steps cos k phi, sin k phi up by angle addition and skips
        the sums of all-zero harmonics.
        """
        if self.kind == ELLIPSE:
            a2, b2 = self.axis_a ** 2, self.axis_b ** 2
            ab = self.axis_a * self.axis_b
            cc, ss = c * c, s * s
            d = b2 * cc + a2 * ss
            dp = (a2 - b2) * (2.0 * s * c)
            sq = sqrt(d)
            q = ab / (d * sq)              # ab d^-3/2
            if not second:
                return ab / sq, -0.5 * dp * q
            dpp = 2.0 * (a2 - b2) * (cc - ss)
            return ab / sq, -0.5 * dp * q, 0.75 * dp * dp * q / d - 0.5 * dpp * q
        r1 = c - c                         # +0.0 in c's shape; r2 its own buffer
        r2 = c - c if second else None
        r = self.a0 + r1
        ck, sk = c, s
        for k, a, b in self._harmonics:
            if k > 1:
                ck, sk = ck * c - sk * s, sk * c + ck * s
            if a == 0.0 and b == 0.0:
                continue
            u = a * ck + b * sk
            r += u
            r1 += k * (b * ck - a * sk)
            if second:
                r2 -= (k * k) * u
        return (r, r1, r2) if second else (r, r1)

    @cached_property
    def _harmonics(self):
        """(k, c_k, s_k) for k = 1..K, built once for _radial's loop."""
        return tuple(zip(range(1, len(self.cos_coeffs) + 1), self.cos_coeffs, self.sin_coeffs))

    # -- geometry ----------------------------------------------------------

    def point(self, phi):
        """Boundary point(s) gamma(phi) in world coordinates: (x, y)."""
        phi = np.asarray(phi, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        r, _, _ = self.radius(phi, cs=(c, s))
        return self.origin[0] + r * c, self.origin[1] + r * s

    @cached_property
    def diameter(self) -> float:
        x, y = self.point(uniform_angles(1024))
        return float(np.hypot(x.max() - x.min(), y.max() - y.min()))


def chi(r, rp, rpp):
    """Curvature numerator r^2 + 2 r'^2 - r r'' in polar form, on floats or arrays."""
    return r * r + 2.0 * rp * rp - r * rpp


# -- constructors ----------------------------------------------------------

def circle(radius: float, origin=(0.0, 0.0)) -> ConvexCurve:
    return ConvexCurve(kind=CIRCLE, origin=tuple(origin), radius_value=float(radius))


def ellipse(a: float, b: float, origin=(0.0, 0.0)) -> ConvexCurve:
    return ConvexCurve(kind=ELLIPSE, origin=tuple(origin), axis_a=float(a), axis_b=float(b))


def fourier(a0: float, cos=(), sin=(), origin=(0.0, 0.0)) -> ConvexCurve:
    return ConvexCurve(kind=FOURIER, origin=tuple(origin), a0=float(a0),
                       cos_coeffs=tuple(float(c) for c in cos),
                       sin_coeffs=tuple(float(s) for s in sin))


# -- operations ---------------------------------------------------------------

def validate(curve: ConvexCurve) -> CurveValidation:
    """Check r > 0 and chi > CHI_MIN_DEFAULT (strict convexity) on
    VALIDATION_GRID uniform angles.

    The curvature numerator chi must stay strictly positive for everything
    downstream to make sense.  Non-finite parameters, and values that
    overflow on the grid, raise InvalidCurveError.
    """
    params = (*curve.origin, curve.radius_value, curve.axis_a, curve.axis_b, curve.a0,
              *curve.cos_coeffs, *curve.sin_coeffs)
    if not all(math.isfinite(v) for v in params):
        raise InvalidCurveError("curve parameters must be finite numbers")
    phi = uniform_angles(VALIDATION_GRID)
    try:
        with np.errstate(over="raise"):
            r, r1, r2 = curve.radius(phi)
            k = chi(r, r1, r2)
    except (OverflowError, FloatingPointError) as exc:
        raise InvalidCurveError(f"curve values overflow: {exc}") from exc
    i_r, i_chi = int(np.argmin(r)), int(np.argmin(k))
    ok = bool(r[i_r] > 0.0 and np.isfinite(r).all() and k[i_chi] > CHI_MIN_DEFAULT)
    msg = ""
    if not ok:
        if not (r[i_r] > 0.0 and np.isfinite(r).all()):
            msg = f"radial function not strictly positive: r({phi[i_r]:.6f}) = {r[i_r]:.6g}"
        else:
            msg = (f"curvature numerator below threshold: chi({phi[i_chi]:.6f}) = "
                   f"{k[i_chi]:.6g} <= {CHI_MIN_DEFAULT:g}")
    return CurveValidation(ok=ok, min_r=float(r[i_r]), min_chi=float(k[i_chi]),
                           phi_at_min_r=float(phi[i_r]), phi_at_min_chi=float(phi[i_chi]),
                           message=msg)


def require_valid(curve: ConvexCurve) -> ConvexCurve:
    v = validate(curve)
    if not v.ok:
        raise InvalidCurveError(v.message)
    return curve


def _ray_newton(curve: ConvexCurve, phi0, d, hi, newton_step):
    """Root d in (0, hi) of a residual monotone in the offset d along the rays
    phi0, and (r, r', r'') at phi0 + d, vectorized, one radius call an
    iteration.  newton_step(d, r, r', r'') gives the Newton step s (s < 0: the
    root lies above d; NaN: below) and its round-off floor.  An iterate outside
    the sign bracket, or not halving the step before last, bisects (rtsafe,
    Numerical Recipes 9.4; plain Newton cycles on the sigmoid head angle).  A
    lane whose step is below RAY_TOL or its floor takes it and freezes, so it
    has the same bits alone as in any batch."""
    lo, done = np.zeros_like(d), np.zeros(d.shape, dtype=bool)
    step_prev = step_last = hi
    for _ in range(RAY_MAX_ITER):
        radial = curve.radius(phi0 + d)
        if done.all():
            return d, radial
        step, floor = newton_step(d, *radial)
        above = step < 0.0
        lo, hi = np.where(above, d, lo), np.where(above, hi, d)
        newton, small = d - step, np.abs(step) < np.maximum(RAY_TOL, floor)
        take = small | ((lo < newton) & (newton < hi) & (2.0 * np.abs(step) <= step_prev))
        nxt = np.where(take, newton, 0.5 * (lo + hi))
        step_prev, step_last = step_last, np.abs(nxt - d)
        d = np.where(done, d, nxt)
        done |= small
    worst = float((hi - lo)[~done].max())
    raise ConvergenceError(f"Newton solve along the ray did not converge in {RAY_MAX_ITER} "
                           f"iterations (worst bracket {worst:.3g})", residual=worst)


def radial_about(curve: ConvexCurve, point, thetas):
    """Distance from an interior point x to the boundary along each ray angle.

    _ray_newton along the rays phi0 = theta - pi from phi = theta (d = pi),
    on the residual d - pi + beta: beta = atan2(v, u) is the angle from e_phi
    to gamma(phi) - x, with u = r - w . e_phi and v = w_x sin phi - w_y cos phi,
    w = x - origin.  gamma - origin and gamma - x lie in the open half-plane of
    the outward normal, so |beta| < pi and the residual, the lifted ray angle
    minus theta, rises strictly on (0, 2 pi) with slope cross(gamma - x,
    gamma') / |gamma - x|^2; the floor is its rounding, eps 2 pi / slope.
    Returns (rho, phi, cs, radial), the last two (cos phi, sin phi) and (r, r',
    r'') at phi for radius_about.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    px, py = float(point[0]), float(point[1])
    _check_interior(curve, px, py)
    wx, wy = px - curve.origin[0], py - curve.origin[1]
    phi0 = thetas - np.pi

    def newton_step(d, *radial):
        r, rp, _ = radial
        phi = phi0 + d
        c, s = np.cos(phi), np.sin(phi)
        u, v = r - (wx * c + wy * s), wx * s - wy * c
        slope = (u * r - v * rp) / (u * u + v * v)
        return (d - np.pi + np.arctan2(v, u)) / slope, RAY_ROUNDOFF * TWO_PI / slope

    d, radial = _ray_newton(curve, phi0, np.full_like(thetas, np.pi),
                            np.full_like(thetas, TWO_PI), newton_step)
    phi = phi0 + d
    c, s = np.cos(phi), np.sin(phi)
    gx, gy = curve.origin[0] + radial[0] * c, curve.origin[1] + radial[0] * s
    rho = np.hypot(gx - px, gy - py)
    resid = np.abs((gx - px) * np.sin(thetas) - (gy - py) * np.cos(thetas)) / rho
    if resid.max() > RAY_RESIDUAL_MAX:
        raise ConvergenceError("ray/boundary intersection did not converge",
                               residual=float(resid.max()))
    return rho, phi, (c, s), radial


def radius_about(curve: ConvexCurve, point, thetas):
    """(r, r', r'') about an interior point on ray angles from one radial_about
    solve and its final (r, r', r'') at phi.  With d = gamma - point, r_p' =
    r_p (d . gamma')/(d x gamma'); r_p'' comes from the curvature, which does
    not depend on the origin: chi_p = kappa (r_p^2 + r_p'^2)^(3/2)."""
    rho, _, (c, s), (r, r1, r2) = radial_about(curve, point, thetas)
    dx = curve.origin[0] + r * c - float(point[0])
    dy = curve.origin[1] + r * s - float(point[1])
    tx, ty = r1 * c - r * s, r1 * s + r * c
    rp = rho * (dx * tx + dy * ty) / (dx * ty - dy * tx)
    chi_p = chi(r, r1, r2) * ((rho * rho + rp * rp) / (r * r + r1 * r1)) ** 1.5
    return rho, rp, (rho * rho + 2.0 * rp * rp - chi_p) / rho


def _check_interior(curve: ConvexCurve, px: float, py: float):
    dx, dy = px - curve.origin[0], py - curve.origin[1]
    rho = math.hypot(dx, dy)
    if rho == 0.0:
        return
    r, _, _ = curve.radius_scalar(math.atan2(dy, dx))
    if rho >= r * (1.0 - 1e-12):
        raise NotInteriorError(
            f"point ({px:.6g}, {py:.6g}) is not strictly inside the curve")


# -- curve specification files -----------------------------------------------

_JSON_TYPES = {bool: "a boolean", str: "a string", list: "an array", dict: "an object",
               type(None): "null"}


def _number(value, name: str) -> float:
    """A JSON number: an int or a float, not a bool, a string or an array."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidCurveError(f"{name} must be a number, not "
                                f"{_JSON_TYPES.get(type(value), type(value).__name__)}")
    try:
        return float(value)
    except OverflowError:                   # an integer literal past 1.8e308
        raise InvalidCurveError(f"{name} is too large for a float") from None


def _numbers(value, name: str) -> list:
    """A JSON array of numbers."""
    if not isinstance(value, list):
        raise InvalidCurveError(f"{name} must be an array of numbers, not "
                                f"{_JSON_TYPES.get(type(value), type(value).__name__)}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(value)]


# each kind's own keys, all required but the Fourier kind's
_KIND_KEYS = {CIRCLE: ("radius",), ELLIPSE: ("a", "b"), FOURIER: ("a0", "cos", "sin")}


def curve_from_dict(spec: dict) -> ConvexCurve:
    """The curve of a parsed specification file: "kind", an optional "origin"
    and the kind's own keys, no others.  Every value must be a JSON number,
    or an array of them for "cos", "sin" and "origin"; a string or a boolean
    raises InvalidCurveError rather than being read as a number."""
    if not isinstance(spec, dict):
        raise InvalidCurveError(
            f"curve specification must be a JSON object, not {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _KIND_KEYS:
        raise InvalidCurveError(f"unknown curve kind: {kind!r}")
    for key in spec:
        if key not in ("kind", "origin") + _KIND_KEYS[kind]:
            raise InvalidCurveError(f"unknown key {key!r} for kind {kind!r}")
    for key in _KIND_KEYS[kind] if kind != FOURIER else ():
        if key not in spec:
            raise InvalidCurveError(f"missing key {key!r} for kind {kind!r}")
    origin = tuple(_numbers(spec.get("origin", [0.0, 0.0]), "origin"))
    if len(origin) != 2:
        raise InvalidCurveError("origin must be [x, y]")
    if kind == CIRCLE:
        return circle(_number(spec["radius"], "radius"), origin)
    if kind == ELLIPSE:
        return ellipse(_number(spec["a"], "a"), _number(spec["b"], "b"), origin)
    return fourier(_number(spec.get("a0", 0.0), "a0"), _numbers(spec.get("cos", []), "cos"),
                   _numbers(spec.get("sin", []), "sin"), origin)


def load_curve(path) -> ConvexCurve:
    """Load and validate a curve specification JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        # ValueError: bad JSON, bad UTF-8 or an integer of over 4300 digits;
        # RecursionError: arrays nested thousands deep
        except (ValueError, RecursionError) as exc:
            raise InvalidCurveError(f"curve file is not valid JSON: {exc}") from exc
    return require_valid(curve_from_dict(spec))


def curve_to_dict(curve: ConvexCurve) -> dict:
    out = {"kind": curve.kind}
    if curve.kind == CIRCLE:
        out["radius"] = curve.radius_value
    elif curve.kind == ELLIPSE:
        out["a"], out["b"] = curve.axis_a, curve.axis_b
    else:
        out["a0"] = curve.a0
        out["cos"] = list(curve.cos_coeffs)
        out["sin"] = list(curve.sin_coeffs)
    if curve.origin != (0.0, 0.0):
        out["origin"] = list(curve.origin)
    return out


def area_centroid(curve: ConvexCurve):
    """Centroid of the enclosed region (the Santalo point search starts here)."""
    phi = uniform_angles(CENTROID_GRID)
    r, _, _ = curve.radius(phi)
    area = 0.5 * periodic_trapezoid(r * r)
    cx = periodic_trapezoid(r ** 3 * np.cos(phi)) / 3.0
    cy = periodic_trapezoid(r ** 3 * np.sin(phi)) / 3.0
    return (curve.origin[0] + cx / area, curve.origin[1] + cy / area)
