"""Order statistics for the benchmark's timings, and the interpreter-speed
sampler that scales them to a reference speed.

The benchmark host shares its cores with other machines' work, and its speed
drifts with their load: a fixed pure-Python loop of about 50 ms took from
44 ms to 105 ms within one minute, in phases lasting from seconds to minutes.
Unscaled, the medians of ten 30-second runs spread by 10 to 26 percent
between their quartiles.  So while a run measures, an interval timer runs a
small fixed reference kernel every ``Speedometer.PERIOD_S``; the kernel's
trimmed mean time over a round, against ``Speedometer.REFERENCE_S``, is the
speed at which that round ran, and the round's times are divided by it.  The
kernel's own time is taken out of every timing it interrupts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

TAIL_MIN_BEYOND = 10   # a tail percentile needs this many samples above it


def percentile(values, q: int):
    """Nearest-rank q-th percentile, or None when fewer than
    TAIL_MIN_BEYOND samples lie beyond it."""
    ordered = sorted(values)
    rank = _rank(q, len(ordered))
    if len(ordered) - rank < TAIL_MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples_for(q: int) -> int:
    """Smallest sample count for which `percentile(values, q)` is reported."""
    n = 1
    while n - _rank(q, n) < TAIL_MIN_BEYOND:
        n += 1
    return n


def _rank(q: int, n: int) -> int:
    return max(1, -(-q * n // 100))


# ---------------------------------------------------------------------------
# interpreter speed

_KERNEL_ELEMENTS = tuple((a, b, c) for a in range(4) for b in range(4) for c in range(4))


def reference_kernel() -> int:
    """A fixed slice of the kind of work zdbench does: close pairs of elements
    of (Z/4)^3 under a tuple-encoded addition, keying a dict by the closures."""
    def add(x, y):
        return ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4, (x[2] + y[2]) % 4)

    seen = {}
    for g in _KERNEL_ELEMENTS[1:9]:
        for h in _KERNEL_ELEMENTS[9:13]:
            closed = {(0, 0, 0), g, h}
            frontier = [g, h]
            while frontier:
                fresh = []
                for a in frontier:
                    for b in list(closed):
                        s = add(a, b)
                        if s not in closed:
                            closed.add(s)
                            fresh.append(s)
                frontier = fresh
            seen[frozenset(closed)] = len(closed)
    return len(seen)


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of `values` without the lowest and the highest `cut` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


class Speedometer:
    """Samples the reference kernel's time while the benchmark measures.

    Inside ``with speedometer:`` a SIGALRM interval timer runs the kernel
    every PERIOD_S.  ``clock()`` is ``perf_counter()`` minus the time the
    kernel has taken, so timings read with it leave the kernel out.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 0.001    # the kernel's time at the reference speed

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        spent = self.spent
        return time.perf_counter() - spent

    def sample(self) -> float:
        """Run the kernel once with the garbage collector off; its time."""
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            reference_kernel()
            took = time.perf_counter() - begin
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        self.spent += time.perf_counter() - start
        return took

    def slowdown(self, since: int = 0, at_least: int = 5) -> float:
        """Trimmed mean kernel time over the samples from `since` on, against
        the reference; tops the samples up to `at_least` first.  A mean, not
        a median, because a round's time adds up the speed of every phase
        it ran through."""
        while len(self.samples) - since < at_least:
            self.sample()
        return trimmed_mean(self.samples[since:]) / self.REFERENCE_S

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
