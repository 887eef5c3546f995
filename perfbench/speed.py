"""Host-speed reference, sampled all through an end-to-end run.

The benchmark shares a small machine with other tenants, whose load moves
this process's speed by tens of percent within a minute.  Every
:data:`INTERVAL_SECONDS` of wall time a ``SIGALRM`` handler runs a fixed
pure-Python kernel (heap pushes and pops, dict updates: the interpreter
work the simulator does) and records how long it took.  The mean of those
samples over a run, against :data:`REFERENCE_SECONDS`, is the run's
*speed factor*; end-to-end times divided by it are seconds at reference
speed.

The handler's own time is excluded from every measurement: :meth:`now`
is the wall clock minus the time spent in the handler so far.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import timeit

#: Seconds between samples (about 3% of the run goes to the kernel).
INTERVAL_SECONDS = 0.05
#: The kernel's duration at reference speed (a quiet 2-core x86 box).
REFERENCE_SECONDS = 0.0015


def kernel() -> float:
    """A fixed slice of heap/dict/float work; returns a checksum."""
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 64] = table.get(i % 64, 0.0) + i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return sum(table.values())


class Sampler:
    """Samples :func:`kernel` on a wall-clock timer while running."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def now(self) -> float:
        """Wall-clock seconds, less the time the sampler has taken."""
        return timeit.default_timer() - self.spent

    def _fire(self, signum, frame) -> None:
        start = timeit.default_timer()
        kernel()
        elapsed = timeit.default_timer() - start
        self.samples.append(elapsed)
        self.spent += timeit.default_timer() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Mean kernel time over the reference time (>1: a slow host)."""
        return self.factor_since(0)

    def factor_since(self, first: int) -> float:
        """The factor over samples ``first`` onwards (all, if none since;
        reference speed if the run was too short for one sample)."""
        recent = self.samples[first:] or self.samples or [REFERENCE_SECONDS]
        return statistics.fmean(recent) / REFERENCE_SECONDS
