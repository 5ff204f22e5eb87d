"""A fixed pure-Python kernel that tells how fast the host runs Python right now.

On a shared host the speed of one core can change by a factor of about 1.8
for seconds or minutes at a time, as other tenants load the machine.  That
moves every wall-clock timing far more than the bounds of BENCHMARK.json
allow.  So while the benchmark times something, a ``Probe`` runs this
kernel from a SIGALRM handler every PROBE_EVERY_S, and each timing is
reported in reference seconds:

    reference seconds = wall seconds * REF_S / mean kernel CPU seconds around it

The kernel is benchmark code, never library code, so a change to p1dyn
moves the timing and not the kernel.  The probe costs a few percent of
the time it watches.  The detail record keeps the wall seconds as well.
"""

from __future__ import annotations

import math
import resource
import signal
from bisect import bisect_left, bisect_right
from statistics import fmean, median
from time import perf_counter

# a fixed scale, about the kernel's time on an unloaded core of the 2-core
# host the benchmark was tuned on (Python 3.11): reference seconds compare
# runs and commits on one host, not hosts
REF_S = 0.0015
PROBE_EVERY_S = 0.1
# kernel samples this close to a timed interval also describe its speed
WINDOW_S = 0.3


def _kernel() -> int:
    # gcd, small-int dict keys and big-int products, like the orbit walks
    acc, seen = 1, {}
    for i in range(1, 4000):
        x = (i * 2654435761) % 1000003
        g = math.gcd(x, i)
        seen[(x, g)] = i
        acc = (acc * x + g) % (1 << 127)
    return acc


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _time_kernel() -> float:
    # CPU seconds, not wall: a probe that waits for a core held by pool
    # workers must not read that wait as a slow core
    start = _cpu()
    _kernel()
    return _cpu() - start


def measure() -> float:
    """Median kernel seconds of five runs, for a process too short to probe."""
    return median(_time_kernel() for _ in range(5))


class Probe:
    """Samples the kernel on a wall-clock timer while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, so the samples
    interleave with the code being timed.  Timers are not inherited by
    forked processes, so pool workers are never interrupted.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample started, ascending
        self.samples: list[float] = []  # kernel seconds
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.times.append(perf_counter())
            self.samples.append(_time_kernel())
        finally:
            self._busy = False

    def __enter__(self) -> Probe:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over the samples within WINDOW_S of [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample near the interval: take one now
            self._tick(None, None)
            return self.samples[-1]
        return fmean(self.samples[lo:hi])

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]."""
        return (end - start) * REF_S / self.kernel_s(start, end)
