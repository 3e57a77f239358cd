"""The reference kernel that speed-normalises every time the benchmark reports.

The machine this benchmark was built on (2 vCPUs, shared) changes speed by
up to 2x within a minute, and process CPU time follows the same swings. A
fixed pure-Python Fraction/int workload, timed next to the operations,
swings with them, so

    normalised time = raw time * NOMINAL_KERNEL_S / kernel time measured next to it

stays put while the raw time moves. The kernel is sampled on a timer
inside the operations (see `Sampler`): over eight repeats of one 7-10 s
datum verification, the spread of raw times was 0.30, of times normalised
by kernels run before and after it 0.19, and of times normalised by
samples taken during it 0.09. The kernel does what enrlat's hot
loops do (small Fractions reduced mod 2, tuple-keyed dicts) and never calls
enrlat. Of the candidates tried, this one tracked both an fqf-style
workload and E8 enumeration best: over twelve batches the spread of the
normalised medians was 0.06 against 0.12-0.52 raw.
"""

import bisect
import signal
import time
from fractions import Fraction

# Median time of kernel() on the reference machine (2 vCPUs, CPython 3.11).
NOMINAL_KERNEL_S = 0.00235


def kernel():
    """One fixed unit of work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        x = Fraction(i * 7 % 97, 36 + i % 11)
        acc = (acc + x * x) % 2
        table[(i % 31, i % 7)] = x
    return acc, len(table)


class Sampler:
    """Kernel samples on a wall-clock timer, taken inside the operations.

    A SIGALRM handler runs the kernel every `interval` seconds, wherever
    the main thread is, and records (time, kernel seconds). Its own time is
    kept in `stolen`, and `clock()` excludes it, so an operation timed with
    `clock()` does not include the samples taken during it. The speed
    factor of an interval is the mean of NOMINAL_KERNEL_S / kernel time
    over the samples inside it widened by `window` seconds on each side
    (smoothing the jitter of single samples), or over the nearest sample
    on each side when none fell there. The clock is CLOCK_MONOTONIC
    (`time.monotonic`), which all processes on Linux share, so a span may
    start at a reading taken in the parent process.
    """

    interval = 0.1
    window = 0.3

    def __init__(self):
        self.times = []
        self.kernels = []
        self.stolen = 0.0

    def _handler(self, signum, frame):
        self.sample()

    def sample(self):
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self.times.append(t0 - self.stolen)
        self.kernels.append(t1 - t0)
        self.stolen += time.monotonic() - t0

    def clock(self):
        return time.monotonic() - self.stolen

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start, end):
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, end + self.window)
        picked = self.kernels[lo:hi]
        if not picked:
            picked = self.kernels[max(lo - 1, 0):lo + 1]
        return sum(NOMINAL_KERNEL_S / k for k in picked) / len(picked)
