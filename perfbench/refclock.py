"""Reference seconds: durations corrected for the machine's speed.

The benchmark runs on a shared machine whose speed swings by up to a
factor of two over seconds to minutes, process CPU time included (see
METRICS.md).  A fixed pure-Python loop of rational arithmetic and dict
stores, the kind of work axetlab does, is timed every INTERVAL seconds
by a SIGALRM handler in the benchmark's one thread.  A duration the benchmark
reports is its wall time, less the handler's own time, converted into
reference seconds: each stretch of it is scaled by REF_SECONDS over the
loop time measured around that moment.  A change to axetlab moves
reference seconds as it moves wall seconds; a change in machine speed
slows the loop as much as the program and cancels out.
"""

import bisect
import math
import signal
import statistics
import time

INTERVAL = 0.05  # seconds between reference passes
# One reference pass at the machine's fast speed (2-core Intel Xeon,
# Python 3.11.7); it turns loop-time ratios into seconds.
REF_SECONDS = 0.00072
SMOOTH = 2  # a loop time is the median of the samples this many either side


_TABLE = {}


def reference_pass():
    """Sums small fractions, kept reduced as two plain ints, and stores
    each numerator in a dict: Fraction's work without allocating objects
    that the garbage collector tracks, so passes do not shift when the
    program's collections run (nor, with them, its peak memory)."""
    n, d = 0, 1
    for i in range(1, 2200):
        p, q = i % 17 + 1, i % 13 + 2
        n, d = n * q + p * d, d * q
        g = math.gcd(n, d)
        n //= g
        d //= g
        _TABLE[i % 679] = n
    return n


class RefClock:
    """A program clock that stops while the reference loop runs, and the
    loop times sampled on it.  Use now() for timestamps between start()
    and stop(), and seconds() after stop()."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.paused = 0.0  # wall seconds spent in reference passes
        self.samples = []  # (program time, loop seconds)
        self.running = False
        self._cumulative = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_pass()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.paused, t1 - t0))
        self.paused += t1 - t0

    def start(self):
        reference_pass()  # warm-up
        self._sample()
        self.running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False
            self._sample()

    def now(self):
        """Wall time less the time spent in reference passes."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:  # no pass ran in between
                return t - paused

    def seconds(self, p0, p1):
        """Reference seconds between program times p0 and p1."""
        if self._cumulative is None:
            self._prepare()
        return REF_SECONDS * (self._ticks(p1) - self._ticks(p0))

    def _prepare(self):
        times = [t for t, _ in self.samples]
        loops = [s for _, s in self.samples]
        self._times = times
        self._loops = [statistics.median(loops[max(0, i - SMOOTH):
                                               i + SMOOTH + 1])
                       for i in range(len(loops))]
        self._cumulative = [0.0]
        for i in range(1, len(times)):
            self._cumulative.append(self._cumulative[-1] + (
                times[i] - times[i - 1]) / self._loops[i - 1])

    def _ticks(self, p):
        """Reference passes' worth of time from the first sample to p."""
        i = max(0, bisect.bisect_right(self._times, p) - 1)
        return self._cumulative[i] + (p - self._times[i]) / self._loops[i]
