"""Reference-speed time: timings corrected for the machine's changing speed.

On a VM that shares its host, the speed of a vCPU drifts: a fixed
pure-Python loop on a 2-vCPU, 2.1 GHz Xeon VM ran 25-60% slower in some
spells of a few seconds than in others.  Wall and CPU time drift alike, so the cause is
contention on the host, not descheduling.  An uncorrected time would
measure that drift more than the program.

So the benchmark times a fixed reference kernel (exact rational arithmetic
with no `symlie` code, like the package's own inner loops) on either side
of every operation (at most every GAP_S) and, from a SIGPROF handler in the same thread, every GAP_S
of the process's CPU time while an in-process operation runs.  The
handler's time is taken out of the operation's latency.  Child processes
(CLI commands, set-up probes) run on the same single CPU as the benchmark
(run.py pins it), so the samples on either side of a child describe its
speed.  Every time metric is reported in *reference seconds*:

    reference seconds = raw seconds * REF_S / (kernel time near the operation)

where "near" is the median of the kernel samples taken from PAD seconds
before the operation started to PAD seconds after it ended.  On a machine
where the kernel takes REF_S, reference seconds equal raw seconds.  A
change to `symlie` moves the operation's raw time and not the kernel's,
so it moves the corrected time by the same share.  The kernel runs with
the garbage collector off, so a larger heap left by the program does not
slow it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0015     # the kernel's time at the reference speed
GAP_S = 0.1        # take a sample when the last one is older than this
PAD_S = 0.5        # samples this close to an operation describe its speed
TERMS = 560        # the kernel's size; about REF_S on a 2.1 GHz Xeon vCPU
RUNS = 2           # a sample is the fastest of this many back-to-back runs


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, TERMS):
        s += Fraction(1, i)
    return s


class RefClock:
    """Samples of the reference kernel over time, and the correction they give."""

    def __init__(self):
        self.at: list = []      # midpoint of each sample, perf_counter seconds
        self.took: list = []    # its duration
        self.spent = 0.0        # seconds spent in samples taken by the timer
        self.busy = False
        kernel()                # warm up

    def sample(self) -> float:
        """Time the kernel RUNS times back to back and keep the fastest, which
        is not slowed by a cold cache or an interrupt; returns the seconds
        the sample took."""
        enabled = gc.isenabled()
        gc.disable()
        self.busy = True
        try:
            start = time.perf_counter()
            runs = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - t0)
            end = time.perf_counter()
        finally:
            self.busy = False
            if enabled:
                gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(min(runs))
        return end - start

    def start(self) -> None:
        """Also sample every GAP_S of this process's CPU time, from a timer."""
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, GAP_S, GAP_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if not self.busy:
            self.spent += self.sample()

    def tick(self) -> float:
        """Sample when the last sample is older than GAP_S; returns the seconds spent."""
        if self.at and time.perf_counter() - self.at[-1] < GAP_S:
            return 0.0
        return self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the kernel's median time in [t0 - PAD_S, t1 + PAD_S],
        or over the nearest sample when none falls inside."""
        lo = bisect.bisect_left(self.at, t0 - PAD_S)
        hi = bisect.bisect_right(self.at, t1 + PAD_S)
        if lo < hi:
            return REF_S / statistics.median(self.took[lo:hi])
        near = min(range(len(self.at)), key=lambda i: abs(self.at[i] - (t0 + t1) / 2))
        return REF_S / self.took[near]

    def overall(self) -> float:
        """REF_S over the median of every sample: the run's mean correction."""
        return REF_S / statistics.median(self.took)
