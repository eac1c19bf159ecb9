"""Host-speed sampling: take other tenants' share of the CPU out of a timing.

The benchmark runs on a share of a host whose other tenants slow it down
by up to ~1.8x, in phases lasting from a fraction of a second to
minutes.  A :class:`Sampler` cuts the measured program time into short
intervals and, at the end of each, times a fixed probe: a small
event loop of the benchmark's own, so no change to the program moves it.
How long the probe took says how fast the host ran just then.

An interval's *quiet time* is its length times ``REFERENCE_PROBE_S /
probe``: the time it would have taken on a host that runs the probe in
exactly :data:`REFERENCE_PROBE_S`, which is what the 2 GHz Xeon VM the
benchmark was written on does when no other tenant is busy.  The
reference is a fixed number, not the fastest probe of a run, because a
run can pass without a single quiet moment.  The probes' own time is not
part of any interval.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Sequence, Tuple

#: Seconds between probes while a timed section runs.
PERIOD_S = 0.02
#: Event-loop steps per probe.
PROBE_STEPS = 150
#: The probe's time on the reference host.
REFERENCE_PROBE_S = 1e-4


class _Job:
    __slots__ = ("size", "done")

    def __init__(self, size: float):
        self.size = size
        self.done = 0.0

    def step(self, now: float) -> float:
        self.done += self.size
        return now + 1.5 * self.size


def probe() -> int:
    """A fixed slice of interpreter work like the simulator's: heap, objects, dict."""
    jobs = [_Job(1.0 + k % 7) for k in range(32)]
    heap = [(0.25 * k, k) for k in range(32)]
    heapq.heapify(heap)
    seen = {}
    for __ in range(PROBE_STEPS):
        now, k = heapq.heappop(heap)
        seen[k] = seen.get(k, 0) + 1
        heapq.heappush(heap, (jobs[k].step(now), k))
    return len(seen)


Interval = Tuple[float, float]  # (seconds of program work, seconds of the probe after it)


class Sampler:
    """Cuts timed sections into intervals, each ended by a timed probe.

    A ``SIGALRM`` timer ends an interval every :data:`PERIOD_S` while a
    section is open; closing the section ends the last one.  A signal
    arriving during a long call into C is handled when the call returns,
    so that interval is longer, not lost.
    """

    def __init__(self):
        self.intervals: List[Interval] = []
        self._mark = None
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def open(self) -> None:
        self._mark = time.perf_counter()

    def close(self) -> None:
        self._sample()
        self._mark = None

    def take(self) -> List[Interval]:
        """The intervals recorded so far; starts a fresh list."""
        taken, self.intervals = self.intervals, []
        return taken

    def _tick(self, signum, frame) -> None:
        if self._mark is not None and not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
            self.intervals.append((start - self._mark, end - start))
            self._mark = end
        finally:
            self._busy = False


def raw_time(intervals: Sequence[Interval]) -> float:
    return sum(seconds for seconds, __ in intervals)


def quiet_time(intervals: Sequence[Interval]) -> float:
    """The intervals' time on the reference host."""
    return sum(seconds * REFERENCE_PROBE_S / p for seconds, p in intervals)
