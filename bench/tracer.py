"""Per-layer tracing by wrapping the package's entry points from outside.

Each entry point is replaced where its callers look it up: on the class for
curve methods, and in the importing module for names imported with
``from ... import``.  A wrapped call records its count, total time, self
time (total minus the time of wrapped calls nested inside it), the lanes it
was handed, and the calls and lanes of the wrapped entries it called
directly.  Exceptions that cross a wrapper are counted and re-raised.  The
package itself is not modified; ``uninstall`` puts every original back.
"""

import time
from collections import defaultdict

import numpy as np


def _lanes_arg1(args, kwargs):
    return np.size(args[1])


def _lanes_broadcast(args, kwargs):
    return np.broadcast(args[1], args[2]).size


def _rows_arg1(args, kwargs):
    return len(args[1])


class Stat:
    __slots__ = ("calls", "total", "self_time", "lanes", "exceptions",
                 "child_calls", "child_lanes", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.lanes = 0
        self.exceptions = 0
        self.child_calls = defaultdict(int)
        self.child_lanes = defaultdict(int)
        self.extra = defaultdict(float)


class _Frame:
    __slots__ = ("child_time", "child_calls", "child_lanes")

    def __init__(self):
        self.child_time = 0.0
        self.child_calls = defaultdict(int)
        self.child_lanes = defaultdict(int)


def _scan_post(stat, args, kwargs, result):
    # steps each seed needed for its verdict: a hit at found = n + 1 came
    # after n chord steps; a seed without one needed all n_max - 1 steps
    n_max = args[3]
    stat.extra["useful_lane_steps"] += float(np.where(result >= 0, result - 1, n_max - 1).sum())


def _nelder_mead_post(stat, args, kwargs, result):
    stat.extra["evals"] += result[2]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr, name, lanes=None, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stat.exceptions += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                n = lanes(args, kwargs) if lanes else 0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame.child_time
                stat.lanes += n
                for child, c in frame.child_calls.items():
                    stat.child_calls[child] += c
                for child, c in frame.child_lanes.items():
                    stat.child_lanes[child] += c
                if stack:
                    parent = stack[-1]
                    parent.child_time += dt
                    parent.child_calls[name] += 1
                    parent.child_lanes[name] += n
            if post:
                post(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, pkg):
        """Wrap every traced entry point of the imported package ``pkg``."""
        cli, curves, dynamics = pkg.cli, pkg.curves, pkg.dynamics
        generating, jacobi, rigidity = pkg.generating, pkg.jacobi, pkg.rigidity
        w = self.wrap
        w(curves.ConvexCurve, "radius", "curves.radius", _lanes_arg1)
        w(curves.ConvexCurve, "radius_scalar", "curves.radius_scalar")
        w(curves, "validate", "curves.validate")
        w(curves, "radial_about", "curves.radial_about")
        w(cli, "load_curve", "cli.load_curve")
        w(rigidity, "reorigin", "curves.reorigin")
        w(dynamics, "step", "dynamics.step")
        w(dynamics, "write_orbit_csv", "dynamics.write_orbit_csv", _rows_arg1)
        w(jacobi, "chord_step_batch", "dynamics.chord_step_batch", _lanes_arg1)
        w(jacobi, "chord_step_scalar", "dynamics.chord_step_scalar")
        for module in (generating, jacobi, rigidity):
            w(module, "_sderiv_arrays", "generating.sderiv", _lanes_broadcast)
        w(generating, "_chord_from_angles_arrays", "generating.chart_inversion")
        w(generating, "forward_map_batch", "generating.forward_map_batch")
        w(generating, "twist_scan", "generating.twist_scan")
        w(generating, "write_derivative_csv", "generating.write_derivative_csv")
        w(jacobi, "_scan_batch", "jacobi.scan", post=_scan_post)
        w(jacobi, "sderiv_scalar", "jacobi.sderiv_scalar")
        w(jacobi, "hopf_omega", "jacobi.hopf_omega")
        w(jacobi, "radial_conjugate_scan", "jacobi.radial_conjugate_scan")
        w(rigidity, "i_numeric", "rigidity.i_numeric")
        w(rigidity, "santalo_point", "rigidity.santalo_point")
        w(rigidity, "nelder_mead", "optimize.nelder_mead", post=_nelder_mead_post)
        w(rigidity, "gauss_panels", "quadrature.gauss_panels")
        w(pkg.verify, "run_verification", "verify.run_verification")
        w(pkg.serialize, "dumps", "serialize.dumps")

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(stats, passes):
    """Per-layer metrics from the stats of ``passes`` traced passes.

    Counts are per pass; times are per call, per lane or per lane-step.
    A layer the workload never reaches reports 0.
    """
    s = stats
    radius, scalar = s["curves.radius"], s["curves.radius_scalar"]
    batch, chord = s["dynamics.chord_step_batch"], s["dynamics.chord_step_scalar"]
    step, scan = s["dynamics.step"], s["jacobi.scan"]
    sderiv, fmap = s["generating.sderiv"], s["generating.forward_map_batch"]
    nm, rcs = s["optimize.nelder_mead"], s["jacobi.radial_conjugate_scan"]
    orbit_csv = s["dynamics.write_orbit_csv"]
    scan_lane_steps = scan.child_lanes["dynamics.chord_step_batch"]

    def ms_per_call(name):
        return _per(s[name].total, s[name].calls, 1e3)

    return {
        "curves.radius.lanes": ("count", radius.lanes / passes),
        "curves.radius.ns_per_lane": ("ns/lane", _per(radius.total, radius.lanes, 1e9)),
        "curves.radius_scalar.calls": ("count", scalar.calls / passes),
        "curves.radius_scalar.ns_per_call": ("ns/call", _per(scalar.total, scalar.calls, 1e9)),
        "curves.validate.ms_per_call": ("ms/call", ms_per_call("curves.validate")),
        "cli.load_curve.ms_per_call": ("ms/call", ms_per_call("cli.load_curve")),
        "curves.reorigin.ms_per_call": ("ms/call", ms_per_call("curves.reorigin")),
        "curves.radial_about.calls": ("count", s["curves.radial_about"].calls / passes),
        "dynamics.chord_step_batch.us_per_lane_step":
            ("us/lane-step", _per(batch.total, batch.lanes, 1e6)),
        "dynamics.chord_step_batch.radius_calls_per_call":
            ("calls/call", _per(batch.child_calls["curves.radius"], batch.calls)),
        "dynamics.chord_step_batch.lane_steps": ("count", batch.lanes / passes),
        "dynamics.step.us_per_call": ("us/call", _per(step.total, step.calls, 1e6)),
        "dynamics.step.radius_scalar_per_call":
            ("calls/call", _per(step.child_calls["curves.radius_scalar"], step.calls)),
        "dynamics.step.radius_calls_per_call":
            ("calls/call", _per(step.child_calls["curves.radius"], step.calls)),
        "dynamics.chord_step_scalar.us_per_call":
            ("us/call", _per(chord.total, chord.calls, 1e6)),
        "dynamics.chord_step_scalar.radius_scalar_per_call":
            ("calls/call", _per(chord.child_calls["curves.radius_scalar"], chord.calls)),
        "dynamics.write_orbit_csv.us_per_row":
            ("us/row", _per(orbit_csv.total, orbit_csv.lanes, 1e6)),
        "generating.sderiv.ns_per_lane":
            ("ns/lane", _per(sderiv.self_time, sderiv.lanes, 1e9)),
        "generating.forward_map_batch.ms_per_call":
            ("ms/call", ms_per_call("generating.forward_map_batch")),
        "generating.chart_inversions_per_map":
            ("calls/call", _per(fmap.child_calls["generating.chart_inversion"], fmap.calls)),
        "generating.twist_scan.ms_per_call": ("ms/call", ms_per_call("generating.twist_scan")),
        "generating.write_derivative_csv.ms_per_call":
            ("ms/call", ms_per_call("generating.write_derivative_csv")),
        "jacobi.scan.self_us_per_lane_step":
            ("us/lane-step", _per(scan.self_time, scan_lane_steps, 1e6)),
        "jacobi.scan.lane_steps": ("count", scan_lane_steps / passes),
        "jacobi.scan.useful_ratio":
            ("ratio", _per(scan.extra["useful_lane_steps"], scan_lane_steps)),
        "jacobi.sderiv_scalar.us_per_call":
            ("us/call", _per(s["jacobi.sderiv_scalar"].total, s["jacobi.sderiv_scalar"].calls, 1e6)),
        "jacobi.hopf_omega.ms_per_call": ("ms/call", ms_per_call("jacobi.hopf_omega")),
        "jacobi.radial_conjugate_scan.us_per_step":
            ("us/step", _per(rcs.total, rcs.child_calls["dynamics.chord_step_scalar"], 1e6)),
        "rigidity.i_numeric.ms_per_call": ("ms/call", ms_per_call("rigidity.i_numeric")),
        "rigidity.santalo_point.ms_per_call": ("ms/call", ms_per_call("rigidity.santalo_point")),
        "optimize.nelder_mead.evals_per_call": ("evals/call", _per(nm.extra["evals"], nm.calls)),
        "optimize.nelder_mead.ms_per_call": ("ms/call", ms_per_call("optimize.nelder_mead")),
        "quadrature.gauss_panels.calls": ("count", s["quadrature.gauss_panels"].calls / passes),
        "verify.run_verification.ms_per_call":
            ("ms/call", ms_per_call("verify.run_verification")),
        "serialize.dumps.ms_per_call": ("ms/call", ms_per_call("serialize.dumps")),
    }


def exceptions_by_layer(stats):
    return {name: st.exceptions for name, st in sorted(stats.items()) if st.exceptions}
