"""Chord-step kernels against a 40-digit mpmath root.

The reference rebuilds the chord head B = gamma(phi_m) + d t gamma'(phi_m)
from closed-form r, r', r'' written here in mpmath, isolates the tangency
root of cross(gamma'(psi), B - gamma(psi)) on the half-turn after arg B
(before it for d = -1) by bisection and polishes it by Newton, all at 40
digits.  Nothing is shared with the package beyond the curve constructors.
Three routes are held to it: both chord-step kernels and the point map's
tangency() from the chord head (CCW for d = +1, CW for d = -1).  tangency()
is also held, down to the smallest t the chord kernels accept, to the root
from the exact double-precision point it was given.  The chart inversion
generating._chord_from_angles_arrays is held to mpmath's own 2-D Newton on the
two endpoint-angle equations, from the same closed-form r.
"""

import math

import numpy as np
import pytest

import outerbilliard as ob
from outerbilliard import dynamics, generating

mp = pytest.importorskip("mpmath").mp


def _circle(radius):
    def f(p):
        return mp.mpf(radius), mp.mpf(0), mp.mpf(0)
    return f


def _ellipse(a, b):
    a, b = mp.mpf(a), mp.mpf(b)

    def f(p):
        d = b * b * mp.cos(p) ** 2 + a * a * mp.sin(p) ** 2
        dp = (a * a - b * b) * mp.sin(2 * p)
        dpp = 2 * (a * a - b * b) * mp.cos(2 * p)
        return (a * b / mp.sqrt(d),
                -a * b * dp / (2 * d ** 1.5),
                3 * a * b * dp ** 2 / (4 * d ** 2.5) - a * b * dpp / (2 * d ** 1.5))
    return f


def _fourier_series(a0, cos, sin=()):
    sin = tuple(sin) + (0.0,) * (len(cos) - len(sin))

    def f(p):
        r, r1, r2 = mp.mpf(a0), mp.mpf(0), mp.mpf(0)
        for k, (a, b) in enumerate(zip(cos, sin), 1):
            a, b = mp.mpf(a), mp.mpf(b)
            ck, sk = mp.cos(k * p), mp.sin(k * p)
            r += a * ck + b * sk
            r1 += k * (b * ck - a * sk)
            r2 -= k * k * (a * ck + b * sk)
        return r, r1, r2
    return f


@mp.workdps(40)
def _reference(rfun, phi_m, t, d):
    """(psi, t_new) of the next (d = +1) or previous (d = -1) chord, 40 digits."""
    phi_m, t = mp.mpf(phi_m), mp.mpf(t)
    r, r1, _ = rfun(phi_m)
    c, s = mp.cos(phi_m), mp.sin(phi_m)
    return _tangency_reference(rfun, r * c + d * t * (r1 * c - r * s),
                               r * s + d * t * (r1 * s + r * c), d)


@mp.workdps(40)
def _tangency_reference(rfun, bx, by, d):
    """(psi, t) of the tangency from the point B on the half-turn after arg B
    (d = +1) or before it (d = -1), 40 digits."""
    bx, by = mp.mpf(bx), mp.mpf(by)

    def g_and_slope(p):
        r, r1, r2 = rfun(p)
        c, s = mp.cos(p), mp.sin(p)
        ex, ey = bx - r * c, by - r * s
        g = (r1 * c - r * s) * ey - (r1 * s + r * c) * ex
        gp = ((r2 - r) * c - 2 * r1 * s) * ey - ((r2 - r) * s + 2 * r1 * c) * ex
        return g, gp

    phi_b = mp.atan2(by, bx)
    lo, hi = (phi_b, phi_b + mp.pi) if d > 0 else (phi_b - mp.pi, phi_b)
    sign_lo = mp.sign(g_and_slope(lo)[0])
    for _ in range(24):
        mid = (lo + hi) / 2
        if mp.sign(g_and_slope(mid)[0]) == sign_lo:
            lo = mid
        else:
            hi = mid
    psi = (lo + hi) / 2
    for _ in range(8):
        g, gp = g_and_slope(psi)
        psi -= g / gp
    assert lo - mp.mpf("1e-20") <= psi <= hi + mp.mpf("1e-20")
    assert abs(g_and_slope(psi)[0]) < mp.mpf("1e-30")
    r, r1, _ = rfun(psi)
    t_new = mp.hypot(bx - r * mp.cos(psi), by - r * mp.sin(psi)) / mp.hypot(r, r1)
    return psi, t_new


CURVES = {
    "circle": (ob.circle(1.0), _circle(1.0)),
    "ellipse21": (ob.ellipse(2.0, 1.0), _ellipse(2.0, 1.0)),
    "wobbly": (ob.fourier(1.0, cos=[0.0, 0.0, 0.05]), _fourier_series(1.0, [0.0, 0.0, 0.05])),
    "ellipse51": (ob.ellipse(5.0, 1.0), _ellipse(5.0, 1.0)),
}

# the chord kernels are also held to a 10:1 ellipse, from t = 1e-3 on
KERNEL_CURVES = dict(CURVES, ellipse101=(ob.ellipse(10.0, 1.0), _ellipse(10.0, 1.0)))

# (curve, smallest t, budget on psi and on t_new / max(1, t)); on the 10:1
# ellipse the measured worst on these samples is 1.2e-11, for the scalar step
# and the point map, and 4.3e-12 for the batch step
BUDGETS = [(name, 1e-2, 5e-13) for name in ("circle", "ellipse21", "wobbly")] \
    + [(name, 1e-3, 5e-12) for name in ("circle", "ellipse21", "wobbly")] \
    + [("ellipse51", 1e-3, 1e-11), ("ellipse101", 1e-3, 3e-11)]


def _samples(t_min, seed, n=16, t_max=3.0):
    rng = np.random.default_rng(seed)
    phi = np.concatenate([[0.0, 0.5 * math.pi], rng.uniform(0.0, 2.0 * math.pi, n - 2)])
    t = np.concatenate([[t_min, t_max],
                        np.exp(rng.uniform(math.log(t_min), math.log(t_max), n - 2))])
    return phi, t


@pytest.mark.parametrize("name,t_min,budget", BUDGETS)
@pytest.mark.parametrize("direction", [1, -1])
def test_chord_kernels_match_mpmath_root(name, t_min, budget, direction):
    curve, rfun = KERNEL_CURVES[name]
    phi, t = _samples(t_min, seed=len(name) + int(-math.log10(t_min)))
    batch = []
    if direction > 0:     # the batch kernel steps forward only
        c, s = np.cos(phi), np.sin(phi)
        batch_head = (c, s) + curve.radius(phi, cs=(c, s))
        psi, t_new, _ = dynamics.chord_step_batch(curve, t, batch_head)
        batch = list(zip(psi.tolist(), t_new.tolist()))
    orientation = dynamics.CCW if direction > 0 else dynamics.CW
    for i in range(phi.size):
        psi_ref, t_ref = _reference(rfun, float(phi[i]), float(t[i]), direction)
        radial = curve.radius_scalar(float(phi[i]))
        scalar = dynamics.chord_step_scalar(curve, float(phi[i]), float(t[i]), direction, radial)
        # the point map from the chord head B = gamma + d t gamma'
        r, r1, _ = radial
        c, s = math.cos(phi[i]), math.sin(phi[i])
        head = ob.phase_point(curve, r * c + direction * t[i] * (r1 * c - r * s),
                              r * s + direction * t[i] * (r1 * s + r * c))
        point_map = ob.tangency(curve, head, orientation)
        for psi, t_new in batch[i:i + 1] + [scalar, (point_map.phi_m, point_map.t)]:
            psi_err = abs(math.remainder(float(psi - psi_ref), 2.0 * math.pi))
            t_err = abs(float(t_new - t_ref)) / max(1.0, float(t[i]))
            assert psi_err <= budget, (phi[i], t[i], psi_err)
            assert t_err <= budget, (phi[i], t[i], t_err)


# (budget on psi and on t / max(1, t) for t >= 1e-3, and c in the budget c / t
# below: there g' = O(t) turns round-off in g into an angle error of order
# 1e-16 / t; measured worst c 4.8e-16 on fourier8 and 5.3e-15 on ellipse51)
TANGENCY_BUDGETS = {"fourier8": (5e-12, 2e-15), "ellipse51": (1e-11, 2e-14)}


@pytest.mark.parametrize("name", sorted(TANGENCY_BUDGETS))
@pytest.mark.parametrize("direction", [1, -1])
def test_tangency_matches_mpmath_root(name, direction, fourier8):
    if name == "fourier8":
        curve = fourier8
        rfun = _fourier_series(curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    else:
        curve, rfun = CURVES[name]
    far, near = TANGENCY_BUDGETS[name]
    orientation = dynamics.CCW if direction > 0 else dynamics.CW
    phi, t = _samples(dynamics.MIN_CHORD_T, seed=len(name) + direction, n=24, t_max=30.0)
    for i in range(phi.size):
        # the tail of the chord tangent at phi[i] in this orientation
        r, r1, _ = curve.radius_scalar(float(phi[i]))
        c, s = math.cos(phi[i]), math.sin(phi[i])
        a = ob.phase_point(curve, r * c - direction * t[i] * (r1 * c - r * s),
                           r * s - direction * t[i] * (r1 * s + r * c))
        res = ob.tangency(curve, a, orientation)
        psi_ref, t_ref = _tangency_reference(rfun, a.x, a.y, direction)
        budget = far if t[i] >= 1e-3 else near / t[i]
        psi_err = abs(math.remainder(float(res.phi_m - psi_ref), 2.0 * math.pi))
        t_err = abs(float(res.t - t_ref)) / max(1.0, float(t[i]))
        assert psi_err <= budget, (phi[i], t[i], psi_err)
        assert t_err <= budget, (phi[i], t[i], t_err)


@pytest.mark.parametrize("name", sorted(CURVES) + ["fourier8"])
@pytest.mark.parametrize("direction", [1, -1])
def test_scalar_chord_step_near_the_curve_matches_mpmath_root(name, direction, fourier8):
    # the scalar chord step is the tangency solve from the chord head, so
    # below t = 1e-3 it keeps the tangency budget c / t (measured worst c
    # over 192 samples per curve: 1.2e-15 on the presets and fourier8, 5.6e-15
    # on ellipse51; 1.05e-15 and 6.8e-15 for the fixed 8 + 4 schedule)
    if name == "fourier8":
        curve = fourier8
        rfun = _fourier_series(curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    else:
        curve, rfun = CURVES[name]
    near = TANGENCY_BUDGETS["ellipse51" if name == "ellipse51" else "fourier8"][1]
    phi, t = _samples(dynamics.MIN_CHORD_T, seed=len(name) + 3 * direction, t_max=1e-3)
    for i in range(phi.size):
        psi_ref, t_ref = _reference(rfun, float(phi[i]), float(t[i]), direction)
        psi, t_new = dynamics.chord_step_scalar(curve, float(phi[i]), float(t[i]), direction,
                                                curve.radius_scalar(float(phi[i])))
        psi_err = abs(math.remainder(float(psi - psi_ref), 2.0 * math.pi))
        t_err = abs(float(t_new - t_ref))
        assert psi_err <= near / t[i], (phi[i], t[i], psi_err)
        assert t_err <= near / t[i], (phi[i], t[i], t_err)


@mp.workdps(40)
def _chart_reference(rfun, a0, a1, phi, t):
    """(phi, t) of the chord whose endpoint angles are the doubles (a0, a1), 40
    digits: mpmath's Newton on both angle equations from the chord (phi, t)
    that gave them."""
    a0, a1 = mp.mpf(a0), mp.mpf(a1)

    def residual(p, tt):
        r, r1, _ = rfun(p)
        return p - mp.atan2(tt * r, r - tt * r1) - a0, p + mp.atan2(tt * r, r + tt * r1) - a1

    root = mp.findroot(residual, (mp.mpf(phi), mp.mpf(t)))
    assert max(abs(v) for v in residual(root[0], root[1])) < mp.mpf("1e-30")
    return root[0], root[1]


CHART_CURVES = dict(KERNEL_CURVES, ellipse201=(ob.ellipse(20.0, 1.0), _ellipse(20.0, 1.0)))


@pytest.mark.parametrize("name", ["circle", "ellipse21", "ellipse101", "ellipse201", "fourier8"])
def test_chart_inversion_matches_mpmath_root(name, fourier8):
    # budget 1e-11 on |phi - phi_ref| and on |t - t_ref| / t, t log-uniform in
    # [1e-3, 30]; measured worst 1.9e-14 in phi (the 20:1 ellipse) and 1.7e-13
    # in t (the 10:1 ellipse), 4.1e-12 in t over 256 chords a curve.  That worst
    # is a long chord at a pointed end of the 20:1 ellipse: t reads r' at the
    # rounded phi, off by |r''| ulp(phi), and its relative error is t / r times that
    if name == "fourier8":
        curve = fourier8
        rfun = _fourier_series(curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    else:
        curve, rfun = CHART_CURVES[name]
    phi, t = _samples(1e-3, seed=len(name), n=64, t_max=30.0)
    a0, a1, _, _ = generating._angles_arrays(curve, phi, t)
    rphi, rt = generating._chord_from_angles_arrays(curve, a0, a1)
    for i in range(phi.size):
        phi_ref, t_ref = _chart_reference(rfun, a0[i], a1[i], phi[i], t[i])
        phi_err = abs(float(rphi[i] - phi_ref))
        t_err = abs(float((rt[i] - t_ref) / t_ref))
        assert phi_err <= 1e-11, (phi[i], t[i], phi_err)
        assert t_err <= 1e-11, (phi[i], t[i], t_err)
