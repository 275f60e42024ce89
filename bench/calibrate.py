"""Machine-speed calibration for timings on a shared, noisy machine.

The 2-core machine the benchmark was built on runs in phases: the same
pass takes 1.0x to 1.5x its fastest time, and a phase lasts from a fraction
of a second to over a minute, so whole runs land in a fast or a slow phase.
To take that out, a fixed reference computation -- a scalar math loop, which
tracked the package's job times more closely than numpy-based references
did -- is timed while each measured job runs (every INTERVAL_S, from a
timer signal) and in a short burst between jobs.  A job's time, less the time of the samples taken
inside it, is scaled by REFERENCE_S over the median reference time of the
samples taken during it and next to it.  Reported times are therefore
seconds at the speed at which the reference computation takes REFERENCE_S.
The package's code never enters the reference, so a change to the package
moves them as it moves the raw times.  Raw times stay in the record line.
"""

import math
import signal
import statistics
import time

REFERENCE_S = 0.33e-3     # the reference computation's typical time there
BURST = 8                 # reference runs between two jobs
INTERVAL_S = 0.02         # reference runs inside a job, one per interval


def reference_time():
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.cos(i) * math.sqrt(i + 1.0)
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference timings taken next to and during measured jobs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0          # wall time the samples inside jobs took

    def burst(self):
        self.samples.extend(reference_time() for _ in range(BURST))

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def measure(self, fn, in_process=True):
        """Run fn() between two bursts, sampling while it runs.

        Returns (fn's result, scaled seconds, raw seconds).  When fn runs in
        this process the samples delay it, so the raw time excludes them;
        when fn only waits for another process they run beside it instead.
        """
        if not self.samples:
            self.burst()
        first, spent = len(self.samples) - BURST, self.spent
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - (self.spent - spent) if in_process else elapsed
        self.burst()
        scaled = raw * REFERENCE_S / statistics.median(self.samples[first:])
        del self.samples[:-BURST]
        return result, scaled, raw
