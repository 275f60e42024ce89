"""Seeded job lists for the three benchmark workloads.

Everything here depends only on numpy and the seed: curves are written as
curve-specification JSON files and every job is either a CLI argv or a call
to one public library function on such a file.  No code of the package is
used to build the inputs, so the inputs are the same for any version of it.

A job is a plain dict:

    name           unique within the workload, stable across seeds
    kind           "cli", "hopf_omega" or "radial_conjugate_scan"
    argv           CLI arguments (kind "cli"); "--out" is added by the runner
    curve          curve-specification dict the job runs on
    curve_file     its file name inside the work directory
    point          world-coordinate orbit seed (library jobs)
    n_max          conjugate-scan cap (radial_conjugate_scan)
    check          which output check applies (see checks.py)
    nominal_steps  seed-steps the job's arguments fix (seeds x steps)
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("scan", "orbit", "report")

# Sizes.  "full" is what the benchmark measures; "tiny" is the same mix at
# minimal cost, used by the benchmark's own test.  Step counts are scaled so
# that one full pass takes about PASS_SECONDS on a 2-core Xeon.
PASS_SECONDS = 4.0
SIZES = {
    "full": {"scan_steps": 40, "sim_steps": 500, "portrait_steps": 25,
             "rcs_n_max": 1000, "report_fourier": 3, "setup_repeats": 7},
    "tiny": {"scan_steps": 12, "sim_steps": 20, "portrait_steps": 2,
             "rcs_n_max": 50, "report_fourier": 1, "setup_repeats": 2},
}

SIM_T = (1e-3, 0.1, 1.0, 3.0)          # chord parameters of the simulate seeds
# Chord parameters of the library seeds.  Near the boundary the Hopf window
# converges fast and the single-seed scans find no conjugate point, so their
# cost hardly depends on the seed; at t ~ 0.1 it varies tenfold.
LIB_T = (0.02, 0.03)
FOURIER_AMPS = (0.06,) + tuple(0.08 / k ** 2 for k in range(2, 9))
CHI_MARGIN = 0.2                       # generated curves keep chi above this

# The verify command steps a fixed sample of seeds: 100 symplecticity
# stencils of 5 steps, 100 midpoint steps, 100 geometric plus 100
# generating-function steps, 50 steps and 50 inverse steps, and a 10-chord
# Jacobi window; plus 20 circle-law steps or a 300-step ellipse orbit.
VERIFY_STEPS = {"circle": 930, "ellipse": 1210, "fourier": 910}


# -- curves ------------------------------------------------------------------

def radial(spec, phi):
    """(r, r', r'') of a curve specification at angles phi (numpy only)."""
    phi = np.asarray(phi, dtype=float)
    kind = spec["kind"]
    if kind == "circle":
        z = np.zeros_like(phi)
        return z + spec["radius"], z, z
    if kind == "ellipse":
        a, b = spec["a"], spec["b"]
        c, s = np.cos(phi), np.sin(phi)
        d = b * b * c * c + a * a * s * s
        d1 = (a * a - b * b) * 2.0 * s * c
        d2 = 2.0 * (a * a - b * b) * (c * c - s * s)
        r = a * b * d ** -0.5
        r1 = -0.5 * a * b * d1 * d ** -1.5
        r2 = a * b * (0.75 * d1 * d1 * d ** -2.5 - 0.5 * d2 * d ** -1.5)
        return r, r1, r2
    r = np.full_like(phi, spec.get("a0", 0.0))
    r1 = np.zeros_like(phi)
    r2 = np.zeros_like(phi)
    for k, (ck, sk) in enumerate(_padded(spec), start=1):
        cos_k, sin_k = np.cos(k * phi), np.sin(k * phi)
        r = r + ck * cos_k + sk * sin_k
        r1 = r1 + k * (sk * cos_k - ck * sin_k)
        r2 = r2 - k * k * (ck * cos_k + sk * sin_k)
    return r, r1, r2


def _padded(spec):
    cos, sin = list(spec.get("cos", ())), list(spec.get("sin", ()))
    n = max(len(cos), len(sin))
    return zip(cos + [0.0] * (n - len(cos)), sin + [0.0] * (n - len(sin)))


def origin_of(spec):
    return tuple(spec.get("origin", (0.0, 0.0)))


def chord_tail(spec, phi, t):
    """World point gamma(phi) - t gamma'(phi): the tail of the chord (phi, t)."""
    r, r1, _ = radial(spec, phi)
    r, r1 = float(r), float(r1)
    c, s = math.cos(phi), math.sin(phi)
    ox, oy = origin_of(spec)
    return [ox + r * c - t * (r1 * c - r * s), oy + r * s - t * (r1 * s + r * c)]


CIRCLE = {"kind": "circle", "radius": 1.0}
ELLIPSE = {"kind": "ellipse", "a": 2.0, "b": 1.0}


def wobbly(rng):
    """1 + 0.05 cos 3(phi - alpha): the paper's non-ellipse, turned by a seeded
    angle.  Three-fold symmetry keeps its Santalo point at the origin."""
    alpha = float(rng.uniform(0.0, 2.0 * math.pi))
    return {"kind": "fourier", "a0": 1.0,
            "cos": [0.0, 0.0, 0.05 * math.cos(3.0 * alpha)],
            "sin": [0.0, 0.0, 0.05 * math.sin(3.0 * alpha)]}


def fourier8(rng):
    """An 8-harmonic curve with fixed amplitudes and seeded phases.

    The first harmonic moves the Santalo point about 0.06 off the radial
    origin, so a rigidity report re-origins it; fixed amplitudes keep the
    cost nearly the same for every seed.
    """
    while True:
        phases = rng.uniform(0.0, 2.0 * math.pi, len(FOURIER_AMPS))
        spec = {"kind": "fourier", "a0": 1.0,
                "cos": [a * math.cos(p) for a, p in zip(FOURIER_AMPS, phases)],
                "sin": [a * math.sin(p) for a, p in zip(FOURIER_AMPS, phases)],
                "origin": [float(v) for v in rng.uniform(-1.0, 1.0, 2)]}
        r, r1, r2 = radial(spec, np.arange(4096) * (2.0 * math.pi / 4096))
        if (r * r + 2.0 * r1 * r1 - r * r2).min() > CHI_MARGIN:
            return spec


# -- jobs --------------------------------------------------------------------

def _cli(name, spec, cfile, argv, check, nominal_steps=0):
    return {"name": name, "kind": "cli", "curve": spec, "curve_file": cfile,
            "argv": argv, "check": check, "nominal_steps": nominal_steps}


def scan_jobs(rng, size):
    """The headline experiment end to end: a non-ellipse finds conjugate
    points, the centred ellipse finds none."""
    steps = str(size["scan_steps"])
    wob = wobbly(rng)
    return [
        _cli("rigidity-scan/wobbly", wob, "wobbly.json",
             ["--cmd", "rigidity", "--conjugate-scan", "--steps", steps],
             "rigidity_scan", 64 * 64 * size["scan_steps"]),
        _cli("conjugate-scan/ellipse", ELLIPSE, "ellipse.json",
             ["--cmd", "conjugate-scan", "--phi-grid", "64", "--t-grid", "64",
              "--steps", steps],
             "conjugate_scan", 64 * 64 * size["scan_steps"]),
    ]


def orbit_jobs(rng, size):
    """The scalar map path: orbits, phase portraits, Hopf slopes and
    single-seed conjugate scans."""
    curves = [("circle", CIRCLE), ("ellipse", ELLIPSE), ("wobbly", wobbly(rng)),
              ("fourier8", fourier8(rng))]
    jobs = []
    for cname, spec in curves:
        cfile = cname + ".json"
        for t in SIM_T:
            x, y = chord_tail(spec, float(rng.uniform(0.0, 2.0 * math.pi)), t)
            jobs.append(_cli(f"simulate/{cname}/t={t:g}", spec, cfile,
                             ["--cmd", "simulate", "--seed", repr(x), repr(y),
                              "--steps", str(size["sim_steps"])],
                             "orbit", size["sim_steps"]))
        if cname != "fourier8":
            jobs.append(_cli(f"portrait/{cname}", spec, cfile,
                             ["--cmd", "portrait", "--steps", str(size["portrait_steps"])],
                             "portrait", 64 * size["portrait_steps"]))
        for i, t in enumerate(LIB_T):
            point = chord_tail(spec, float(rng.uniform(0.0, 2.0 * math.pi)), t)
            jobs.append({"name": f"hopf_omega/{cname}/{i}", "kind": "hopf_omega",
                         "curve": spec, "curve_file": cfile, "point": point,
                         "check": "hopf", "nominal_steps": 0})
            jobs.append({"name": f"radial_conjugate_scan/{cname}/{i}",
                         "kind": "radial_conjugate_scan", "curve": spec,
                         "curve_file": cfile, "point": point,
                         "n_max": size["rcs_n_max"], "check": "radial_scan",
                         "nominal_steps": size["rcs_n_max"]})
    return jobs


def report_jobs(rng, size):
    """Rigidity reports, verification and twist scans at default settings."""
    wob = wobbly(rng)
    curves = [("circle", CIRCLE), ("ellipse", ELLIPSE), ("wobbly", wob)]
    curves += [(f"fourier8-{i}", fourier8(rng)) for i in range(size["report_fourier"])]
    jobs = []
    for cname, spec in curves:
        cfile = cname + ".json"
        jobs.append(_cli(f"rigidity/{cname}", spec, cfile, ["--cmd", "rigidity"],
                         "rigidity"))
        jobs.append(_cli(f"verify/{cname}", spec, cfile, ["--cmd", "verify"],
                         "verify", VERIFY_STEPS[spec["kind"]]))
        jobs.append(_cli(f"twist-scan/{cname}", spec, cfile, ["--cmd", "twist-scan"],
                         "twist"))
    jobs.append(_cli("twist-scan-csv/wobbly", wob, "wobbly.json",
                     ["--cmd", "twist-scan", "--format", "csv"], "twist_csv"))
    return jobs


_BUILDERS = {"scan": scan_jobs, "orbit": orbit_jobs, "report": report_jobs}


def make_jobs(workload, seed, size="full"):
    """The workload's job list for a seed; same seed, same jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, SIZES[size])


def write_inputs(jobs, workdir):
    """Write every curve file the jobs use; returns their paths."""
    paths = {}
    for job in jobs:
        path = os.path.join(workdir, job["curve_file"])
        if path not in paths:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job["curve"], fh)
            paths[path] = job["curve"]
    return sorted(paths)
