"""Runs one workload's passes in a fresh process and prints what it measured.

Usage: python3 worker.py SRC WORKDIR PASSES TRACE

Reads WORKDIR/jobs.json and WORKDIR/warmup.json, imports the package from
SRC, runs the warm-up jobs (the same mix at minimal size) untimed, and then
PASSES timed passes.  Job times are scaled to the
reference speed of calibrate.py.  With TRACE 1 half of the passes run
untraced and half traced, so the tracing overhead is measured in the same
process.  Prints one JSON object.  Started by run.py with the BLAS pinned to
one thread.
"""

import dataclasses
import hashlib
import json
import os
import re
import resource
import sys
import time

import calibrate
import checks
import tracer


def _output_name(job):
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", job["name"])


def read_output(job, output):
    """The text a CLI job wrote to its output file; library results as is."""
    if job["kind"] != "cli":
        return output
    with open(output, "r", encoding="utf-8") as fh:
        return fh.read()


class Runner:
    def __init__(self, pkg, workdir, jobs):
        self.pkg = pkg
        self.workdir = workdir
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.job_times = []
        self.probe = calibrate.SpeedProbe()

    def run_job(self, job):
        """Run one job; returns (output, error) with error None on success.

        A CLI job's output is the path of the file it wrote.
        """
        pkg = self.pkg
        cfile = os.path.join(self.workdir, job["curve_file"])
        out = os.path.join(self.workdir, "out", _output_name(job))
        try:
            if job["kind"] == "cli":
                rc = pkg.cli.main(job["argv"] + ["--curve", cfile, "--out", out])
                if rc != 0:
                    return None, f"exit code {rc}"
                return out, None
            curve = pkg.load_curve(cfile)
            point = pkg.dynamics.phase_point(curve, *job["point"])
            if job["kind"] == "hopf_omega":
                return dataclasses.asdict(pkg.jacobi.hopf_omega(curve, point)), None
            n = pkg.jacobi.radial_conjugate_scan(curve, point, job["n_max"])
            return {"n_conjugate": n}, None
        except (Exception, SystemExit) as exc:
            return None, f"raised {type(exc).__name__}: {exc}"

    def run_pass(self):
        """One pass over the job list; returns (time, raw time) of its jobs.

        Job times are scaled to the reference speed (see calibrate.py).
        Each output is checked right after its job, outside the timing.
        """
        total = raw_total = 0.0
        for job in self.jobs:
            (output, error), scaled, raw = self.probe.measure(lambda: self.run_job(job))
            self.job_times.append(scaled)
            total += scaled
            raw_total += raw
            self._verify(job, read_output(job, output) if error is None else None, error)
        return total, raw_total

    def _verify(self, job, output, error):
        self.attempted += 1
        if error is None:
            error = checks.check(job, output)
        if error is None:
            text = output if isinstance(output, str) else repr(sorted(output.items()))
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            if self.digests.setdefault(job["name"], digest) != digest:
                error = "output differs from the same job's earlier pass"
        if error is not None:
            self.failures.append(f"{job['name']}: {error}")


def main(argv):
    src, workdir, passes, trace = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    sys.path.insert(0, src)
    import outerbilliard
    import outerbilliard.cli  # noqa: F401  (not imported by the package itself)

    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(os.path.join(workdir, "warmup.json"), encoding="utf-8") as fh:
        warmup = json.load(fh)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    Runner(outerbilliard, workdir, warmup).run_pass()
    runner = Runner(outerbilliard, workdir, jobs)
    result = {}
    if trace:
        half = max(1, passes // 2)
        result["untraced_walls"] = [runner.run_pass()[0] for _ in range(half)]
        tr = tracer.Tracer()
        tr.install(outerbilliard)
        try:
            walls = [runner.run_pass() for _ in range(half)]
        finally:
            tr.uninstall()
        result["layers"] = tracer.layer_metrics(tr.stats, len(walls))
        result["exceptions"] = tracer.exceptions_by_layer(tr.stats)
    else:
        walls = [runner.run_pass() for _ in range(passes)]
        result["job_times"] = runner.job_times
    result.update(walls=[w for w, _ in walls], raw_walls=[r for _, r in walls],
                  attempted=runner.attempted, failures=runner.failures,
                  digests=runner.digests,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
