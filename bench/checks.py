"""Output checks that share no code with the package.

Each check takes a job (see workloads.py) and the job's output -- the text
the CLI wrote, or a dict made from a library result -- and returns None when
the output is right, else a one-line reason.  The oracles are numpy-only:

* the exact rotation law of centred circles and ellipses: in the frame
  scaled to a unit circle each step turns a point at radius rho by
  2 acos(1/rho), which every step must meet within the c5 foliation bound
  (per step, not accumulated: near the boundary the package's orbits drift
  in phase far more than 1e-8 over a thousand steps);
* the defining geometry of the map for other curves: the midpoint of A and
  T(A) lies on the curve and the chord A -> T(A) runs along its tangent;
* the closed forms S = t r^2, S1 = -r0^2/2, S2 = r1^2/2 for twist tables;
* the rigidity bounds of the acceptance criteria c5-c7.
"""

import io
import json
import math

import numpy as np

from workloads import origin_of, radial

TWO_PI = 2.0 * math.pi
PI_SQ = math.pi ** 2

ROTATION_TOL = 1e-8      # c5 foliation bound, per step, relative to the radius
ON_CURVE_TOL = 1e-9      # midpoint distance from the curve, relative
TANGENT_TOL = 1e-6       # sine of the chord/tangent angle
EQUALITY_TOL = 1e-7      # |Q - 2pi| for circles and ellipses (c5)
DEFECT_MIN = 1e-6        # Q - 2pi < -1e-6 and bs < pi^2 - 1e-6 otherwise (c6)
TABLE_TOL = 1e-12        # relative error of the twist-table closed forms
HOPF_RESIDUAL_TOL = 1e-8


def _rows(text, ncols):
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, comments="#",
                      ndmin=2)
    if data.shape[1] != ncols:
        raise ValueError(f"expected rows of {ncols} columns")
    return data


def _centred_conic(spec):
    """Semi-axes of a centred circle or ellipse, else None."""
    if spec["kind"] == "circle":
        return spec["radius"], spec["radius"]
    if spec["kind"] == "ellipse":
        return spec["a"], spec["b"]
    return None


def _orbit_error(spec, xy):
    """Why the orbit xy (consecutive points, world frame) is wrong, or None."""
    if not np.isfinite(xy).all():
        return "non-finite orbit point"
    ox, oy = origin_of(spec)
    axes = _centred_conic(spec)
    if axes is not None:
        u = (xy[:, 0] - ox) / axes[0] + 1j * (xy[:, 1] - oy) / axes[1]
        rho = np.abs(u[:-1])
        exact = u[:-1] * np.exp(2j * np.arccos(1.0 / rho))
        dev = float((np.abs(u[1:] - exact) / rho).max())
        if dev > ROTATION_TOL:
            return f"a step leaves the exact rotation by {dev:.3g} > {ROTATION_TOL:g}"
        return None
    a, b = xy[:-1], xy[1:]
    mx, my = 0.5 * (a[:, 0] + b[:, 0]) - ox, 0.5 * (a[:, 1] + b[:, 1]) - oy
    phi = np.arctan2(my, mx)
    r, r1, _ = radial(spec, phi)
    off = float(np.abs(np.hypot(mx, my) - r).max() / r.max())
    if off > ON_CURVE_TOL:
        return f"step midpoint off the curve by {off:.3g} > {ON_CURVE_TOL:g}"
    tx, ty = r1 * np.cos(phi) - r * np.sin(phi), r1 * np.sin(phi) + r * np.cos(phi)
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    norm = np.hypot(dx, dy) * np.hypot(tx, ty)
    sin_angle = float(np.abs(dx * ty - dy * tx).max() / norm.min())
    if sin_angle > TANGENT_TOL or (dx * tx + dy * ty).min() <= 0.0:
        return f"step chord not along the forward tangent (sin {sin_angle:.3g})"
    return None


def _polar_error(spec, data):
    """Columns x, y, p, phi of orbit rows must agree with each other."""
    ox, oy = origin_of(spec)
    x, y, p, phi = data[:, -4], data[:, -3], data[:, -2], data[:, -1]
    dp = np.abs(p - 0.5 * ((x - ox) ** 2 + (y - oy) ** 2)) / p
    dphi = np.abs(np.angle(np.exp(1j * (phi - np.arctan2(y - oy, x - ox)))))
    if dp.max() > 1e-12 or dphi.max() > 1e-12:
        return "p or phi column inconsistent with x, y"
    return None


def check_orbit(job, text):
    data = _rows(text, 5)
    steps = int(job["argv"][job["argv"].index("--steps") + 1])
    if data.shape[0] != steps + 1 or not np.array_equal(data[:, 0], np.arange(steps + 1)):
        return f"expected {steps + 1} orbit rows numbered 0..{steps}"
    seed = [float(v) for v in job["argv"][job["argv"].index("--seed") + 1:][:2]]
    if data[0, 1] != seed[0] or data[0, 2] != seed[1]:
        return "orbit does not start at the seed"
    return _polar_error(job["curve"], data) or _orbit_error(job["curve"], data[:, 1:3])


def check_portrait(job, text):
    data = _rows(text, 6)
    steps = int(job["argv"][job["argv"].index("--steps") + 1])
    if data.shape[0] != 64 * (steps + 1):
        return f"expected 64 seeds of {steps + 1} rows"
    for j in range(64):
        block = data[j * (steps + 1):(j + 1) * (steps + 1)]
        if not (block[:, 0] == j + 1).all():
            return "portrait rows out of seed order"
        err = _orbit_error(job["curve"], block[:, 2:4])
        if err:
            return f"seed {j + 1}: {err}"
    return _polar_error(job["curve"], data)


def _rigidity_error(job, doc):
    q, defect = doc["q_value"], doc["q_defect"]
    if abs((q - TWO_PI) - defect) > 1e-12:
        return "q_defect is not q_value - 2pi"
    if not abs(doc["i_numeric"] - doc["i_closed"]) <= doc["i_numeric_error"]:
        return "i_numeric and i_closed disagree beyond i_numeric_error"
    if abs(doc["i_closed"] - math.pi * defect) > 1e-9 * max(1.0, abs(doc["i_closed"])):
        return "i_closed is not pi (Q - 2pi)"
    if _centred_conic(job["curve"]) is not None:
        if not (abs(defect) < EQUALITY_TOL and doc["equality_case"]):
            return f"|Q - 2pi| = {abs(defect):.3g} is not an equality case"
    else:
        if not defect < -DEFECT_MIN:
            return f"Q - 2pi = {defect:.3g} is not below -{DEFECT_MIN:g}"
        if not doc["bs_product"] < PI_SQ - DEFECT_MIN:
            return f"bs_product {doc['bs_product']:.10g} is not below pi^2 - {DEFECT_MIN:g}"
        if not doc["certifies_non_minimizing"]:
            return "non-ellipse report does not certify non-minimizing orbits"
    return None


def check_rigidity(job, text):
    return _rigidity_error(job, json.loads(text))


def _scan_error(job, scan):
    if _centred_conic(job["curve"]) is not None:
        if scan["found_count"] != 0:
            return f"conjugate points found on a centred conic ({scan['found_count']})"
    elif not scan["found_count"] > 0:
        return "no conjugate point found on a non-ellipse"
    return None


def check_rigidity_scan(job, text):
    doc = json.loads(text)
    scan = doc["conjugate_scan"]
    if scan["seeds"] != 64 * 64:
        return "scan did not cover 4096 seeds"
    return _rigidity_error(job, doc) or _scan_error(job, scan)


def check_conjugate_scan(job, text):
    doc = json.loads(text)
    rows = doc["rows"]
    if len(rows) != 64 * 64:
        return "scan did not report 4096 seeds"
    if doc["found_count"] != sum(r["n_conjugate"] is not None for r in rows):
        return "found_count disagrees with the rows"
    return _scan_error(job, doc)


def check_verify(job, text):
    doc = json.loads(text)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if not doc["all_passed"] or failed:
        return "verification failed: " + ", ".join(failed or ["all_passed is false"])
    return None


def check_twist(job, text):
    doc = json.loads(text)
    if not (doc["max_s12"] < 0.0 and doc["twist_negative"]):
        return f"twist condition fails: max S12 = {doc['max_s12']:.3g}"
    return None


def check_twist_csv(job, text):
    data = _rows(text, 9)
    if data.shape[0] != 256 * 256:
        return "expected a 256 x 256 derivative table"
    phi, t = data[:, 0], data[:, 1]
    r, r1, _ = radial(job["curve"], phi)
    r0sq = (r - t * r1) ** 2 + (t * r) ** 2
    r1sq = (r + t * r1) ** 2 + (t * r) ** 2
    for col, exact in ((2, t * r * r), (3, -0.5 * r0sq), (4, 0.5 * r1sq)):
        err = float(np.abs(data[:, col] - exact).max() / np.abs(exact).max())
        if err > TABLE_TOL:
            return f"column {col} departs from its closed form by {err:.3g}"
    if not (data[:, 6] < 0.0).all():
        return "S12 is not negative everywhere"
    return None


def check_hopf(job, doc):
    if doc["converged"]:
        if not (doc["minimizing"] and doc["bound_low"] < doc["omega"] < doc["bound_high"]):
            return "converged omega outside its bounds"
        if max(doc["relation_fwd_residual"], doc["relation_here_residual"]) > HOPF_RESIDUAL_TOL:
            return "evolution relations not met"
    elif doc["omega"] is not None or doc["minimizing"]:
        return "unconverged window reported an omega"
    if _centred_conic(job["curve"]) is not None and not doc["converged"]:
        return "Hopf window did not converge on a centred conic"
    return None


def check_radial_scan(job, doc):
    n = doc["n_conjugate"]
    if n is not None and not 2 <= n <= job["n_max"]:
        return f"conjugate index {n} outside 2..{job['n_max']}"
    if _centred_conic(job["curve"]) is not None and n is not None:
        return f"conjugate point at n = {n} on a centred conic"
    return None


CHECKS = {
    "orbit": check_orbit, "portrait": check_portrait, "rigidity": check_rigidity,
    "rigidity_scan": check_rigidity_scan, "conjugate_scan": check_conjugate_scan,
    "verify": check_verify, "twist": check_twist, "twist_csv": check_twist_csv,
    "hopf": check_hopf, "radial_scan": check_radial_scan,
}


def check(job, output):
    """None when the job's output is right, else why not."""
    try:
        return CHECKS[job["check"]](job, output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
