"""The outerbilliard benchmark: seeded workloads timed end to end, and a
separate traced run for per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {scan,orbit,report,all} --seed N \\
        --seconds S --trace {0,1}

Load model: closed loop, one caller running one job at a time, in a single
child process with the BLAS pinned to one thread and ``--workers 1``.  The
child runs one untimed warm-up pass over the same mix at minimal size and
then round(S / 4) timed passes: each pass is sized to take about 4 s here,
and a fixed count keeps the number of job samples, and so the percentile
behind job_tail_s, the same on every run.  Times are scaled to a reference
machine speed (see calibrate.py).  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of the
traced passes and the tracing overhead.  The line before it records the
machine, the libraries, the seed, failures and output digests.

Exit codes: 0 with a result line; 2 when the checkout holds no package to
measure; 1 when the harness itself fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
TAIL_BEYOND = 10
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONPATH", None)
    return env


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  Below 2 * TAIL_BEYOND
    samples that percentile would sit at or below the median, so the
    maximum stands in, at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure_setup(curve_paths, repeats):
    """Median time of a fresh interpreter importing the CLI and loading every
    curve, after one unmeasured run that warms the file cache.  Each time is
    scaled to the reference speed measured just before and after it."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC] + curve_paths
    times, raw = [], []
    probe = calibrate.SpeedProbe()
    for i in range(repeats + 1):
        proc, scaled, elapsed = probe.measure(
            lambda: subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                   text=True, timeout=60),
            in_process=False)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(scaled)
            raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def run_worker(workdir, passes, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), SRC, workdir,
           str(passes), str(trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise HarnessError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checkout's commit from .git, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": PINNED["OPENBLAS_NUM_THREADS"], "git_commit": git_commit(),
            "seed": seed}


def compare_digests(key, digests, record):
    """(changed, compared) against the stored digests; stores them if asked."""
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    ref = stored.get(key, {})
    compared = [name for name in digests if name in ref]
    changed = sum(digests[name] != ref[name] for name in compared)
    if record:
        stored[key] = digests
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return changed, len(compared)


def run_workload(name, seed, seconds, trace, size, record):
    jobs = workloads.make_jobs(name, seed, size)
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        curve_paths = workloads.write_inputs(jobs, workdir)
        warmup = workloads.make_jobs(name, seed, "tiny")
        for job in warmup:
            job["curve_file"] = "warmup-" + job["curve_file"]
        workloads.write_inputs(warmup, workdir)
        for fname, content in (("jobs.json", jobs), ("warmup.json", warmup)):
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        setup_s, setup_raw_s = measure_setup(curve_paths, workloads.SIZES[size]["setup_repeats"])
        passes = max(1, round(seconds / workloads.PASS_SECONDS))
        res = run_worker(workdir, passes, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = res["walls"]
    record_line = {"workload": name, "size": size, "trace": trace, "env": environment(seed),
                   "jobs_per_pass": len(jobs), "pass_walls_s": walls,
                   "raw_pass_walls_s": res["raw_walls"],
                   "fail_ratio": len(res["failures"]) / res["attempted"],
                   "failures": res["failures"][:10]}
    changed, compared = compare_digests(f"{name}/{size}/{seed}", res["digests"], record)
    record_line.update(outputs_changed=changed, outputs_compared=compared)

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in res["layers"].items()}
        overhead = statistics.median(walls) - statistics.median(res["untraced_walls"])
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        record_line["exceptions_by_layer"] = res["exceptions"]
    else:
        wall_s = statistics.median(walls)
        tail_s, tail_pct, n = tail(res["job_times"])
        nominal = sum(job["nominal_steps"] for job in jobs)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "job_p50_s": {"value": statistics.median(res["job_times"]), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "seed_steps_per_s": {"value": nominal / wall_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        record_line["job_tail"] = {"percentile": tail_pct, "samples": n}
        record_line["nominal_seed_steps_per_pass"] = nominal
        record_line["raw_setup_s"] = setup_raw_s
    print("bench-record " + json.dumps(record_line))
    failed = len(res["failures"])
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny runs the same mix at minimal cost (the benchmark's test)")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the reference")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "outerbilliard", "__init__.py")):
        print(f"error: no package to measure under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.size,
                                  args.record_digests)
            print(json.dumps(result), flush=True)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
