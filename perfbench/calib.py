"""A fixed reference computation, timed at regular intervals while a sweep runs.

The benchmark's host is shared, and its speed drifts by tens of per cent
over seconds to minutes, for the sweep and for any other computation alike.
So the end-to-end time of a sweep is reported relative to this reference:
every ``INTERVAL_S`` of wall time a timer signal runs one ``reference()``
chunk in the sweep's own thread and records how long it took.  The sweep's
wall time, less the time spent in those chunks, divided by their (trimmed)
mean duration, is the sweep's time in reference chunks.  The drift slows both
alike and cancels in the ratio; a faster program lowers it.

Set-up time is calibrated the same way, against a block of chunks timed
just before it.

The reference is exact rational and integer arithmetic written here, without
zetatower, so no change to the program changes it.  It runs with the garbage
collector off, so that a collection of the sweep's objects is never charged
to the reference.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
TRIM = 0.02
# Set-up time is reported in seconds as reference chunks times this nominal
# chunk duration (about its duration on a quiet 2-vCPU x86-64 host under
# Python 3.11), so that it drifts with the host no more than the sweep does.
REFERENCE_S = 0.0005
BLOCK = 40


def reference() -> int:
    """About half a millisecond of Fraction and big-integer arithmetic."""
    x, acc = Fraction(1), 0
    for i in range(1, 60):
        x = x * Fraction(3 * i + 1, 2 * i + 3) + Fraction(1, i)
        acc += x.numerator * 7919 % (x.denominator + 1)
    for i in range(400):
        acc = (acc * 31 + i * i) % 1000003
    return acc


def block_mean_s() -> float:
    """Trimmed mean duration of ``BLOCK`` reference chunks run back to back."""
    block = Sampler()
    for _ in range(BLOCK):
        block.sample()
    return block.mean_s()


class Sampler:
    """Context manager: run ``reference()`` every ``INTERVAL_S`` of wall time.

    ``samples`` holds each chunk's duration; ``busy_s`` and ``busy_cpu_s`` the
    wall and CPU time spent in ``sample()``, to subtract from the interval
    being measured.
    """

    def __init__(self):
        self.samples: list = []
        self.busy_s = 0.0
        self.busy_cpu_s = 0.0
        self._previous = None
        self._running = False

    def sample(self, signum=None, frame=None):
        """Time one reference chunk; also the SIGALRM handler."""
        if self._running:  # a signal that arrived while the reference ran
            return
        self._running = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
            self.busy_cpu_s += time.process_time() - cpu0
            self.busy_s += time.perf_counter() - wall0
            self._running = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean chunk duration without the fastest and slowest ``TRIM`` of them.

        A chunk that the host preempts takes up to ten times the usual time;
        the few that do would otherwise move the mean by several per cent.
        """
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept)
