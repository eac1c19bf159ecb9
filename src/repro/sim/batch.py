"""Vectorized seed-batch engine: S seeds as structure-of-arrays lanes.

Every experiment in this repo is really a *distribution over seeds* —
the paper's central claim is that performance-faulty components need
statistical characterization — and the scalar path pays a full Python
event loop per seed.  This module runs S independent single-server
timelines ("lanes") in one process as numpy structure-of-arrays state,
advancing all lanes together with a fused "next event across all lanes"
loop: each Python-level iteration retires one event *per active lane*
via masked numpy ops, so the interpreter cost is paid per event *depth*
(max events on any one lane), not per event *count* (sum over lanes).

Exactness contract (the house style: speedups are certified, not
trusted):

* A lane mirrors :class:`~repro.sim.resources.RateServer`'s accrual
  arithmetic operation for operation — ``remaining -= (t - last) * rate``
  with a ``< 0 -> 0.0`` clamp, completion timers armed at
  ``t + remaining / rate``, and the ``> 1e-9`` float-residue recheck on
  fire.  numpy float64 elementwise ops are IEEE-754 identical to Python
  float scalar ops, so lane results compare ``==`` against the scalar
  engine, not ``approx`` (see ``tests/sim/test_batch.py`` and
  ``tests/experiments/test_batch_equivalence.py``).
* Per-lane randomness stays on ``random.Random`` streams derived via
  :func:`~repro.sim.random.derive_seed` — Mersenne Twister draws cannot
  be reproduced by numpy's generators, and the draws are O(episodes),
  not O(events), so keeping them scalar costs nothing.  Only the hot
  event-advance kernel is vectorized.
* Event ties are resolved **edge, then start, then timer** at equal
  times.  Under continuous fault distributions ties between an edge and
  a completion are measure-zero; programs built from discrete schedules
  that need a different tie order are outside the batch regime and
  should raise :class:`BatchInfeasible` at construction.

:class:`BatchInfeasible` is the escape hatch mirroring
:class:`~repro.core.hybrid.HybridInfeasible`: feasibility is checked,
never assumed, and callers fall back to the scalar engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import StreamingMoments

__all__ = [
    "BatchInfeasible",
    "LaneProgram",
    "BatchMoments",
    "BatchAvailability",
    "BatchResult",
    "SeedBatchRunner",
]

#: Same residue threshold as ``repro.sim.resources._EPSILON``: a fired
#: completion timer re-arms instead of completing while more than this
#: much work remains (floating-point accrual residue).
_EPSILON = 1e-9


class BatchInfeasible(RuntimeError):
    """The workload is outside the seed-batch engine's exact regime.

    Raised when a lane program cannot be advanced with the guarantee of
    bit-for-bit agreement with the scalar engine (or cannot be advanced
    at all, e.g. a lane frozen at rate 0 with no future edge).  Callers
    catch it and fall back to the scalar per-seed path — mirroring
    :class:`~repro.core.hybrid.HybridInfeasible`.
    """


@dataclass
class LaneProgram:
    """One seed's timeline, reduced to the batch engine's primitives.

    A lane is a single FIFO rate server processing ``works`` back to
    back: job 0 is submitted at ``start``; each later job is submitted
    the instant its predecessor completes (a closed generator loop, like
    :func:`~repro.storage.workload.sequential_scan`).  ``edges`` yields
    the server's piecewise-constant rate schedule as ``(time, rate)``
    pairs in nondecreasing time order — typically a lazily-evaluated
    generator replaying a fault injector's RNG stream — and may be
    infinite: the runner pulls edges only while the lane is live.
    ``rate`` is the rate in force before the first edge.

    ``arrivals`` switches the lane from closed-loop to *open* arrivals:
    ``arrivals[j]`` is job ``j``'s submission instant (so
    ``arrivals[0] == start``), and each job enters service at
    ``max(arrival, predecessor completion)`` — exactly
    :meth:`RateServer.submit <repro.sim.resources.RateServer.submit>`
    on a server that may be busy or idle.  Response times are measured
    from the arrival, as the scalar engine measures them.
    """

    start: float
    works: Sequence[float]
    edges: Iterator[Tuple[float, float]] = field(default_factory=lambda: iter(()))
    rate: float = 1.0
    arrivals: Optional[Sequence[float]] = None

    def validate(self) -> None:
        """Reject programs the exact kernel cannot honor."""
        if not (math.isfinite(self.start) and self.start >= 0.0):
            raise BatchInfeasible(f"lane start must be finite and >= 0, got {self.start}")
        if not self.works:
            raise BatchInfeasible("lane has no jobs")
        for w in self.works:
            if not (math.isfinite(w) and w > 0.0):
                raise BatchInfeasible(f"job size must be finite and > 0, got {w}")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise BatchInfeasible(f"initial rate must be finite and >= 0, got {self.rate}")
        if self.arrivals is not None:
            if len(self.arrivals) != len(self.works):
                raise BatchInfeasible(
                    f"arrivals/works length mismatch: {len(self.arrivals)} vs {len(self.works)}"
                )
            if float(self.arrivals[0]) != float(self.start):
                raise BatchInfeasible(
                    f"arrivals[0] must equal start, got {self.arrivals[0]} vs {self.start}"
                )
            prev = -math.inf
            for a in self.arrivals:
                if not (math.isfinite(a) and a >= prev):
                    raise BatchInfeasible(
                        f"arrivals must be finite and nondecreasing; got {a} after {prev}"
                    )
                prev = a


class BatchMoments:
    """Per-lane Welford moments, batched: the vectorized counterpart of
    :class:`~repro.sim.metrics.StreamingMoments`.

    ``push`` folds one observation into every lane selected by ``mask``
    using the same op sequence as the scalar ``push`` (count increment,
    ``delta / count``, ``delta * (x - mean)``), so each lane's running
    ``(count, mean, m2, min, max)`` is bit-identical to a scalar
    recorder fed the same per-lane stream.  ``fold`` combines all lanes
    into one :class:`StreamingMoments` scorecard via
    :meth:`StreamingMoments.merge` (Chan's parallel combine — exact for
    count/min/max, float-rounding-stable for mean/variance).
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self, lanes: int):
        self.count = np.zeros(lanes, dtype=np.int64)
        self.mean = np.zeros(lanes, dtype=np.float64)
        self._m2 = np.zeros(lanes, dtype=np.float64)
        self.minimum = np.full(lanes, np.inf, dtype=np.float64)
        self.maximum = np.full(lanes, -np.inf, dtype=np.float64)

    def push(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Fold ``values[i]`` into lane ``i`` wherever ``mask[i]``."""
        if not mask.any():
            return
        count = self.count + mask
        delta = values - self.mean
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = self.mean + delta / count
        # Welford uses the *updated* mean in the m2 increment.
        m2 = self._m2 + delta * (values - mean)
        self.count = count
        self.mean = np.where(mask, mean, self.mean)
        self._m2 = np.where(mask, m2, self._m2)
        self.minimum = np.where(mask & (values < self.minimum), values, self.minimum)
        self.maximum = np.where(mask & (values > self.maximum), values, self.maximum)

    def lane(self, i: int) -> StreamingMoments:
        """Lane ``i``'s moments as a scalar :class:`StreamingMoments`."""
        out = StreamingMoments()
        out.count = int(self.count[i])
        if out.count:
            out.mean = float(self.mean[i])
            out._m2 = float(self._m2[i])
            out.minimum = float(self.minimum[i])
            out.maximum = float(self.maximum[i])
        return out

    def fold(self) -> StreamingMoments:
        """All lanes merged into one scorecard (Chan combine, in lane order)."""
        out = StreamingMoments()
        for i in range(len(self.count)):
            if self.count[i]:
                out.merge(self.lane(i))
        return out


class BatchAvailability:
    """Per-lane Gray & Reuter availability counters, batched.

    The counting counterpart of
    :class:`~repro.sim.metrics.AvailabilityMeter`: offered / within-SLO
    / unserved tallies are integers, so lane counts and the folded
    aggregate are exact (``==`` against a scalar meter fed the same
    stream).  Quantile curves are not tracked here; fold response times
    through :class:`BatchMoments` instead.
    """

    __slots__ = ("slo", "offered", "within_slo", "unserved")

    def __init__(self, lanes: int, slo: float):
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        self.slo = slo
        self.offered = np.zeros(lanes, dtype=np.int64)
        self.within_slo = np.zeros(lanes, dtype=np.int64)
        self.unserved = np.zeros(lanes, dtype=np.int64)

    def push(self, response_times: np.ndarray, mask: np.ndarray) -> None:
        """Record one served request per masked lane."""
        self.offered += mask
        self.within_slo += mask & (response_times <= self.slo)

    def record_unserved(self, mask: np.ndarray) -> None:
        """Record one never-served request per masked lane."""
        self.offered += mask
        self.unserved += mask

    def record_unserved_many(self, counts: np.ndarray) -> None:
        """Record ``counts[i]`` never-served requests on lane ``i``.

        The bulk form of :meth:`record_unserved`, used by the runner's
        horizon cut: every job a truncated lane never completed counts
        against availability, as the scalar harness's post-horizon
        ``meter.record(None)`` loop does.
        """
        self.offered += counts
        self.unserved += counts

    def availability(self) -> float:
        """Fraction of all offered load (every lane) served within SLO."""
        offered = int(self.offered.sum())
        if offered == 0:
            return 1.0
        return int(self.within_slo.sum()) / offered


@dataclass
class BatchResult:
    """Outcome of one :meth:`SeedBatchRunner.run`.

    ``finish[i]`` is the absolute time lane ``i``'s last job completed;
    ``start[i]`` its first submission time, so
    ``finish - start`` is each lane's makespan.  ``jobs_completed`` /
    ``work_completed`` match the scalar server's counters exactly;
    ``latency`` holds per-lane response-time moments (response time =
    completion - submission, as :class:`~repro.sim.resources.JobStats`
    defines it); ``availability`` is populated when the runner was given
    an SLO.
    """

    start: np.ndarray
    finish: np.ndarray
    jobs_completed: np.ndarray
    work_completed: np.ndarray
    events: int
    latency: BatchMoments
    availability: Optional[BatchAvailability] = None

    @property
    def makespan(self) -> np.ndarray:
        """Per-lane wall time from first submission to last completion."""
        return self.finish - self.start


class SeedBatchRunner:
    """Advance S independent lanes with one fused next-event loop.

    Each iteration computes every lane's next event time
    ``min(edge, start, timer)`` and retires exactly one event per active
    lane with masked numpy ops.  The only per-lane Python work is
    pulling the next ``(time, rate)`` pair from a lane's edge iterator
    after an edge fires — O(total episodes), off the hot path.

    ``max_events`` bounds the per-lane event depth as a runaway guard
    (e.g. an edge stream oscillating forever below the job's horizon);
    exceeding it raises :class:`BatchInfeasible` rather than spinning.

    ``horizon`` mirrors the scalar harness's ``sim.run(until=horizon)``:
    events at exactly the horizon still fire, but a lane whose next
    event lies strictly beyond it is cut there (``finish = horizon``)
    and its unfinished jobs are tallied as unserved on the availability
    counters.  The cut also covers lanes frozen at rate 0 with no
    future edge — with a horizon they are truncated like the scalar
    run, instead of raising :class:`BatchInfeasible`.
    """

    def __init__(
        self,
        lanes: Sequence[LaneProgram],
        slo: Optional[float] = None,
        max_events: int = 10_000_000,
        horizon: Optional[float] = None,
    ):
        if not lanes:
            raise BatchInfeasible("no lanes to run")
        for lane in lanes:
            lane.validate()
        if horizon is not None and not (math.isfinite(horizon) and horizon > 0.0):
            raise BatchInfeasible(f"horizon must be finite and > 0, got {horizon}")
        self._programs = list(lanes)
        self._slo = slo
        self._max_events = max_events
        self._horizon = horizon

    def run(self) -> BatchResult:
        """Run every lane to completion; returns the batched result."""
        programs = self._programs
        n = len(programs)
        max_jobs = max(len(p.works) for p in programs)

        # Structure-of-arrays lane state (float64 throughout: the ops
        # below are elementwise and IEEE-identical to the scalar engine).
        works = np.zeros((n, max_jobs), dtype=np.float64)
        n_jobs = np.zeros(n, dtype=np.int64)
        for i, p in enumerate(programs):
            n_jobs[i] = len(p.works)
            works[i, : len(p.works)] = [float(w) for w in p.works]

        starts = [float(p.start) for p in programs]
        rates = [float(p.rate) for p in programs]
        edge_times = [math.inf] * n
        edge_rates = [0.0] * n
        edges: List[Optional[Iterator[Tuple[float, float]]]] = [iter(p.edges) for p in programs]
        # Fast-forward edges at or before each lane's first submission:
        # the server is idle, so they are pure rate updates with nothing
        # to accrue.  The scalar engine does the same work inside
        # ``run(until=start)`` (every event with time <= start fires
        # before the workload submits), and it matches the kernel's
        # edge-before-start tie rule — so consuming them here in plain
        # Python saves fused iterations without touching the arithmetic.
        for i in range(n):
            it = edges[i]
            start = starts[i]
            prev = -math.inf
            while True:
                try:
                    when, new_rate = next(it)
                except StopIteration:
                    edges[i] = None
                    break
                when = float(when)
                if not (when >= prev and math.isfinite(when)):
                    raise BatchInfeasible(
                        f"edge stream must be nondecreasing and finite; got t={when} after {prev}"
                    )
                prev = when
                if when <= start:
                    if new_rate < 0.0:
                        raise BatchInfeasible("edge set a negative rate")
                    rates[i] = float(new_rate)
                    continue
                edge_times[i] = when
                edge_rates[i] = float(new_rate)
                break

        # Open-arrival lanes: per-job submission instants, padded with
        # +inf so the gather below is in-bounds past each lane's end.
        has_arr = np.zeros(n, dtype=bool)
        arrivals = np.full((n, max_jobs), np.inf, dtype=np.float64)
        for i, p in enumerate(programs):
            if p.arrivals is not None:
                has_arr[i] = True
                arrivals[i, : len(p.arrivals)] = [float(a) for a in p.arrivals]
        any_arr = bool(has_arr.any())

        lane_starts = np.array(starts)
        start_t = lane_starts.copy()  # inf while no submission is pending
        rate = np.array(rates)
        remaining = np.zeros(n)
        t_last = np.zeros(n)
        submit_t = np.zeros(n)
        timer = np.full(n, np.inf)
        edge_t = np.array(edge_times)
        edge_r = np.array(edge_rates)
        job_ptr = np.zeros(n, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        busy = np.zeros(n, dtype=bool)

        finish = np.zeros(n)
        jobs_completed = np.zeros(n, dtype=np.int64)
        work_completed = np.zeros(n)
        latency = BatchMoments(n)
        availability = BatchAvailability(n, self._slo) if self._slo is not None else None

        lane_ids = np.arange(n)
        horizon = self._horizon
        t = np.empty(n)
        events = 0
        # Masked-out lanes (done, or idle at rate 0) produce inf/nan in
        # the speculative elementwise ops below; every such value is
        # discarded by its mask, so the IEEE flags are noise here.  One
        # errstate frame wraps the whole loop: entering/exiting the
        # context per iteration is measurable against 60-lane arrays.
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(self._max_events):
                if done.all():
                    break
                np.minimum(edge_t, timer, out=t)
                np.minimum(t, start_t, out=t)
                active = ~done
                if horizon is not None:
                    # sim.run(until=horizon): events at the horizon fire,
                    # the first event strictly past it never does.  Frozen
                    # lanes (next event +inf) are cut by the same test.
                    over = active & (t > horizon)
                    if over.any():
                        np.copyto(finish, horizon, where=over)
                        np.logical_or(done, over, out=done)
                        np.copyto(timer, np.inf, where=over)
                        np.copyto(edge_t, np.inf, where=over)
                        np.copyto(start_t, np.inf, where=over)
                        active = ~done
                        if done.all():
                            break
                stalled = active & ~np.isfinite(t)
                if stalled.any():
                    raise BatchInfeasible(
                        f"{int(stalled.sum())} lane(s) frozen with no future event "
                        "(rate 0 and edge stream exhausted)"
                    )
                events += 1

                # Tie order: edge, then start, then timer (module docstring).
                is_edge = active & (edge_t == t)
                is_start = active & ~is_edge & (start_t == t)
                is_timer = active & ~is_edge & ~is_start & (timer == t)

                # State updates below are in-place masked stores
                # (np.copyto / ufunc where=): the values match the
                # rebinding np.where forms exactly, without allocating a
                # fresh lane-width array per update.
                if is_edge.any():
                    # RateServer.set_rate: _accrue() then re-arm the timer.
                    # Idle lanes (parked open-arrival lanes, or lanes not
                    # yet started) take the rate change with no accrual,
                    # as set_rate on an idle server does.
                    accrue = is_edge & busy
                    dec = (t - t_last) * rate
                    new_rem = np.maximum(remaining - dec, 0.0)
                    np.copyto(remaining, new_rem, where=accrue)
                    np.copyto(t_last, t, where=accrue)
                    np.copyto(rate, edge_r, where=is_edge)
                    if (rate < 0.0)[is_edge].any():
                        raise BatchInfeasible("edge set a negative rate")
                    live = accrue & (rate > 0.0)
                    eta = t + remaining / rate
                    np.copyto(timer, np.inf, where=accrue)
                    np.copyto(timer, eta, where=live)
                    for i in np.flatnonzero(is_edge).tolist():
                        # edge_t[i] still holds the edge just applied, so
                        # it doubles as the monotonicity floor.
                        self._pull_edge(i, edges, edge_t, edge_r, edge_t[i])

                if is_start.any():
                    # RateServer.submit on an idle server: _start_next now.
                    # The gather indexes job_ptr (0 on first start; the
                    # parked job's slot when an open-arrival lane wakes).
                    nxt = works[lane_ids, np.minimum(job_ptr, max_jobs - 1)]
                    np.copyto(remaining, nxt, where=is_start)
                    np.copyto(t_last, t, where=is_start)
                    np.copyto(submit_t, t, where=is_start)
                    live = is_start & (rate > 0.0)
                    eta = t + remaining / rate
                    np.copyto(timer, eta, where=live)
                    np.logical_or(busy, is_start, out=busy)
                    np.copyto(start_t, np.inf, where=is_start)

                if is_timer.any():
                    # RateServer._complete: accrue, residue recheck, complete.
                    dec = (t - t_last) * rate
                    new_rem = np.maximum(remaining - dec, 0.0)
                    np.copyto(remaining, new_rem, where=is_timer)
                    np.copyto(t_last, t, where=is_timer)
                    residue = is_timer & (remaining > _EPSILON)
                    complete = is_timer & ~residue
                    # Rate is > 0 wherever a timer was armed, so the
                    # re-arm division is well-defined on residue lanes.
                    np.copyto(timer, t + remaining / rate, where=residue)
                    if complete.any():
                        response = t - submit_t
                        latency.push(response, complete)
                        if availability is not None:
                            availability.push(response, complete)
                        size = works[lane_ids, np.minimum(job_ptr, max_jobs - 1)]
                        np.add(work_completed, size, out=work_completed, where=complete)
                        jobs_completed += complete
                        job_ptr += complete
                        job_idx = np.minimum(job_ptr, max_jobs - 1)
                        pending = complete & (job_ptr < n_jobs)
                        if any_arr:
                            # Open-arrival lanes start the next job only if
                            # it has arrived; otherwise the lane parks idle
                            # until the arrival (a future is_start event).
                            arr = arrivals[lane_ids, job_idx]
                            park = pending & has_arr & (arr > t)
                            more = pending & ~park
                        else:
                            park = None
                            more = pending
                        if more.any():
                            nxt = works[lane_ids, job_idx]
                            np.copyto(remaining, nxt, where=more)
                            np.copyto(submit_t, t, where=more)
                            if any_arr:
                                # A queued open-arrival job was submitted at
                                # its arrival; responses measure from there.
                                np.copyto(submit_t, arr, where=more & has_arr)
                            live = more & (rate > 0.0)
                            eta = t + remaining / rate
                            np.copyto(timer, np.inf, where=more)
                            np.copyto(timer, eta, where=live)
                        if park is not None and park.any():
                            np.copyto(start_t, arr, where=park)
                            np.copyto(timer, np.inf, where=park)
                            busy &= ~park
                        ended = complete & ~pending
                        if ended.any():
                            np.copyto(finish, t, where=ended)
                            np.logical_or(done, ended, out=done)
                            np.copyto(timer, np.inf, where=ended)
                            np.copyto(edge_t, np.inf, where=ended)
                            busy &= ~ended
            else:
                raise BatchInfeasible(
                    f"exceeded max_events={self._max_events} fused iterations "
                    f"with {int((~done).sum())} lane(s) still live"
                )

        if availability is not None:
            # Jobs a horizon-cut lane never completed are offered-but-
            # unserved, matching the scalar harness's post-run tally.
            leftover = n_jobs - jobs_completed
            if leftover.any():
                availability.record_unserved_many(leftover)

        return BatchResult(
            start=lane_starts,
            finish=finish,
            jobs_completed=jobs_completed,
            work_completed=work_completed,
            events=events,
            latency=latency,
            availability=availability,
        )

    @staticmethod
    def _pull_edge(
        i: int,
        edges: List[Optional[Iterator[Tuple[float, float]]]],
        edge_t: np.ndarray,
        edge_r: np.ndarray,
        after: float,
    ) -> None:
        """Load lane ``i``'s next edge, or park it at +inf when exhausted."""
        it = edges[i]
        if it is None:
            edge_t[i] = np.inf
            return
        try:
            when, new_rate = next(it)
        except StopIteration:
            edges[i] = None
            edge_t[i] = np.inf
            return
        when = float(when)
        if not (math.isfinite(when) and when >= after):
            raise BatchInfeasible(
                f"edge stream must be nondecreasing and finite; got t={when} after {after}"
            )
        edge_t[i] = when
        edge_r[i] = new_rate
