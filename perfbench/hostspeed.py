"""Host-speed sampling: timings scaled to a fixed reference speed.

On a shared virtual machine the speed of a vCPU swings by up to 2x on a
scale of seconds to minutes, as neighbours come and go. A fixed loop run
next to the program measures that swing, and scaling each timing by it
turns wall seconds into seconds at one reference speed.

While a ``HostSpeed`` is entered, SIGALRM fires every ``PERIOD_S`` and
its handler times one ``reference_loop`` (a few tenths of a millisecond
of pure-Python integer and dict work, independent of gkmcohom, with no
container allocation and so no garbage collection). ``scaled(start, wall)``
then takes the time spent in the handler out of an interval and
multiplies the rest by the mean of REFERENCE_S / loop time over the
samples in that interval, i.e. it integrates the host's speed over the
interval. An interval with no sample inside uses the NEIGHBOURS samples
on either side; the set-up interpreters run while sampling is paused, so
they are scaled by the samples just before and just after them.

A change to the program moves the scaled time as it moves the wall time;
the host's speed, which the program does not control, mostly cancels.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.02
# one sample is noisy; the host's speed changes over seconds, not 0.1 s
NEIGHBOURS = 3
# the reference loop at full speed on the 2-vCPU host of the baseline
REFERENCE_S = 3.0e-4


def reference_loop() -> None:
    acc, table = 1, {}
    for i in range(1500):
        acc = (acc * 1103515245 + i) % 2305843009213693951
        table[i & 63] = acc


class HostSpeed:
    """Context manager that samples the host's speed while entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        self.lengths.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """No sampling inside: for intervals that run in another process,
        which the samples would compete with instead of interrupt."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def scaled(self, start: float, wall: float) -> float:
        """Seconds at reference speed of the interval [start, start + wall)."""
        if not self.lengths:
            raise RuntimeError("no host-speed sample was taken")
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, start + wall)
        busy = sum(self.lengths[i:j])
        window = self.lengths[i:j] if j > i else self.lengths[max(i - NEIGHBOURS, 0):i + NEIGHBOURS]
        speed = sum(REFERENCE_S / length for length in window) / len(window)
        return (wall - busy) * speed
