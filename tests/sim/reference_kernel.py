"""Reference kernel: the event-per-job ``RateServer`` and ``DegradableServer``.

These are the discrete kernel's servers as they were before a job became
its own event: every submission allocated a ``JobStats``, a ``_Job``
record and a separate ``Event``, every completion re-entered the heap
through ``Event.succeed``, the completion timer was a ``Callback``, and
``DegradableServer.stop`` failed the jobs it tracked in an ``_inflight``
dict.  ``tests/sim/test_kernel_differential.py`` runs random tie-heavy
scenarios on these and on the library's servers and requires the same
``(time, label)`` log from both.  The code is kept as it was, apart from
the class names, and runs on the current ``Simulator``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional

from repro.faults.model import ComponentStopped, DegradableMixin, register_component
from repro.faults.spec import PerformanceSpec
from repro.sim.engine import Callback, Event, SimulationError, Simulator
from repro.sim.resources import JobStats

#: Tolerance for floating-point work accounting.
_EPSILON = 1e-9


@dataclass(slots=True)
class _Job:
    size: float
    remaining: float
    event: Event
    stats: JobStats


class ReferenceRateServer:
    """FIFO server with a time-varying service rate.

    Jobs carry a *size* in work units; the server drains the head job at
    ``rate`` units per unit time.  :meth:`set_rate` may be called at any
    instant -- including while a job is in service -- and the in-flight
    job's completion is rescheduled so that precisely its remaining work is
    served at the new rate.  A rate of ``0`` models a stalled component
    (thermal recalibration, bus reset, GC pause): the job is frozen until
    the rate becomes positive again.

    This is the mechanism by which *performance faults* act on simulated
    components, and the mechanism by which adaptive policies observe them
    (through job response times).
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "server"):
        if rate < 0:
            raise SimulationError(f"rate must be >= 0, got {rate}")
        self.sim = sim
        self.name = name
        self._rate = float(rate)
        self._queue: Deque[_Job] = deque()
        self._current: Optional[_Job] = None
        self._last_update = sim.now
        #: Cancellable completion timer for the in-flight job (None while
        #: idle or frozen at rate 0).  Exactly one live timer exists at a
        #: time; a rate change cancels and re-arms it instead of leaving a
        #: stale ghost entry in the heap.
        self._timer: Optional[Callback] = None
        self._drain_waiters: list = []
        # Metrics.
        self.jobs_completed = 0
        self.work_completed = 0.0
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0

    # -- public surface ------------------------------------------------------

    @property
    def rate(self) -> float:
        """Current service rate in work units per unit time."""
        return self._rate

    @property
    def queue_length(self) -> int:
        """Jobs waiting behind the one in service."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a job is in service (even at rate 0)."""
        return self._current is not None

    def submit(self, size: float, tag: Any = None) -> Event:
        """Enqueue ``size`` units of work; event fires with :class:`JobStats`."""
        if size <= 0:
            raise SimulationError(f"job size must be > 0, got {size}")
        sim = self.sim
        stats = JobStats(size=size, submitted_at=sim._now, tag=tag)
        job = _Job(size=size, remaining=float(size), event=Event(sim), stats=stats)
        self._queue.append(job)
        if self._current is None:
            self._start_next()
        return job.event

    def set_rate(self, rate: float) -> None:
        """Change the service rate, rescaling any in-flight job."""
        if rate < 0:
            raise SimulationError(f"rate must be >= 0, got {rate}")
        self._accrue()
        self._rate = float(rate)
        if self._current is not None:
            self._schedule_completion()

    def completion_eta(self) -> Optional[float]:
        """Absolute time the in-service job completes at the current rate.

        ``None`` while idle or frozen at rate 0 (no completion is
        scheduled).  The value can lag the actual completion by float
        residue (see :meth:`_complete`), so callers comparing it against
        deadlines should leave an epsilon of slack.
        """
        if self._current is None or self._rate <= 0:
            return None
        remaining = self._current.remaining
        remaining -= (self.sim.now - self._last_update) * self._rate
        if remaining < 0:
            remaining = 0.0
        return self.sim.now + remaining / self._rate

    def drain(self) -> Event:
        """Event that fires when the server next becomes idle.

        Fires immediately if the server is already idle.  Waiters are
        woken event-driven at the idle transition -- there is no polling
        process behind this (the old implementation spun on zero-length
        timeouts in a corner case).
        """
        event = self.sim.event()
        if self._current is None and not self._queue:
            event.succeed(None)
        else:
            self._drain_waiters.append(event)
        return event

    # -- internals -----------------------------------------------------------

    # The internals below run once or more per job: they read the clock
    # as ``sim._now`` rather than through the ``now`` property.

    def _accrue(self) -> None:
        """Charge elapsed work against the in-flight job."""
        now = self.sim._now
        job = self._current
        if job is not None and self._rate > 0:
            job.remaining -= (now - self._last_update) * self._rate
            if job.remaining < 0:
                job.remaining = 0.0
        self._last_update = now

    def _start_next(self) -> None:
        now = self.sim._now
        job = self._queue.popleft()
        job.stats.started_at = now
        self._current = job
        self._last_update = now
        if self._busy_since is None:
            self._busy_since = now
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        timer = self._timer
        if timer is not None:
            timer.cancel()
            self._timer = None
        if self._rate <= 0:
            return  # frozen: completion rescheduled when rate rises
        eta = self._current.remaining / self._rate
        self._timer = Callback(self.sim, eta, self._complete, ())

    def _complete(self) -> None:
        self._timer = None
        self._accrue()
        job = self._current
        if job.remaining > _EPSILON:
            # Floating-point residue from accrual: finish it off.
            self._schedule_completion()
            return
        self._current = None
        now = self.sim._now
        job.stats.completed_at = now
        self.jobs_completed += 1
        self.work_completed += job.size
        job.event.succeed(job.stats)
        if self._queue:
            self._start_next()
        else:
            if self._busy_since is not None:
                self.busy_time += now - self._busy_since
                self._busy_since = None
            if self._drain_waiters:
                waiters = self._drain_waiters
                self._drain_waiters = []
                for waiter in waiters:
                    waiter.succeed(None)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy since t=0 (or over ``elapsed``)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        span = elapsed if elapsed is not None else self.sim.now
        if span <= 0:
            return 0.0
        return min(1.0, busy / span)


class ReferenceDegradableServer(DegradableMixin):
    """A FIFO work server with the full fail-stutter fault surface.

    ``submit(size)`` behaves like :meth:`RateServer.submit` while the
    component is alive.  After :meth:`stop` (fail-stop), submission raises
    :class:`ComponentStopped` immediately -- the detectable-halt semantics
    of Schneider's definition -- and any queued jobs are failed with the
    same exception so waiters learn of the failure.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nominal_rate: float,
        spec: Optional[PerformanceSpec] = None,
    ):
        self.sim = sim
        self._server = ReferenceRateServer(sim, nominal_rate, name=name)
        self._init_degradable(name, nominal_rate)
        #: Unsettled submissions, in submission order (a dict for O(1)
        #: removal; the order is the order :meth:`stop` fails them in).
        self._inflight: dict[Event, None] = {}
        self.attach_spec(spec if spec is not None else PerformanceSpec(nominal_rate))
        register_component(sim, self)

    # -- DegradableMixin hooks -------------------------------------------------

    def _apply_rate(self, rate: float) -> None:
        self._server.set_rate(rate)

    def _now(self) -> float:
        return self.sim.now

    # -- work surface -------------------------------------------------------------

    def submit(self, size: float, tag: Any = None) -> Event:
        """Enqueue ``size`` units of work; event fires with JobStats.

        Raises :class:`ComponentStopped` if the component has fail-stopped.
        """
        if self.stopped:
            raise ComponentStopped(self.name)
        event = self._server.submit(size, tag=tag)
        self._inflight[event] = None
        event.callbacks.append(self._forget)
        # Completion telemetry is pay-for-what-you-use: the callback is
        # only attached when a bus is bound AND someone listens to us.
        telemetry = self._telemetry
        if (
            telemetry is not None
            and telemetry.active
            and telemetry.wants(self.name)
        ):
            event.callbacks.append(self._report_completion)
        return event

    def _report_completion(self, event: Event) -> None:
        """Publish (work, duration) for one finished job on the bus."""
        if not event._ok:
            return
        stats = event._value
        self._telemetry.completion(self.name, stats.size, stats.service_time)

    def _forget(self, event: Event) -> None:
        """Drop a settled job from the in-flight set (idempotent)."""
        self._inflight.pop(event, None)

    def stop(self, cause: str = "fail-stop") -> None:
        """Fail-stop: halt, fail all in-flight work detectably."""
        already = self.stopped
        super().stop(cause)
        if already:
            return
        # Fail queued/in-service jobs so waiters detect the failure rather
        # than hanging forever on a rate-0 server.
        for event in list(self._inflight):
            if not event.triggered:
                event.fail(ComponentStopped(self.name))
                # Pre-defuse: waiters still receive the exception, but a
                # fire-and-forget write does not crash the simulation.
                event._defused = True
        self._inflight.clear()

    def drain(self) -> Event:
        """Event firing when the server next goes idle."""
        return self._server.drain()

    # -- passthrough metrics -------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Jobs waiting behind the one in service."""
        return self._server.queue_length

    @property
    def busy(self) -> bool:
        """True while a job is in service."""
        return self._server.busy

    @property
    def backlog(self) -> int:
        """Jobs queued plus the one in service, read in one step.

        Routing reads this per candidate per pick, so it looks at the
        wrapped server's state directly instead of adding
        :attr:`queue_length` and :attr:`busy`.
        """
        server = self._server
        return len(server._queue) + (server._current is not None)

    def completion_eta(self) -> Optional[float]:
        """When the in-service job completes (None if idle or frozen)."""
        return self._server.completion_eta()

    @property
    def jobs_completed(self) -> int:
        """Total jobs served."""
        return self._server.jobs_completed

    @property
    def work_completed(self) -> float:
        """Total work units served."""
        return self._server.work_completed

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy fraction (see :meth:`RateServer.utilization`)."""
        return self._server.utilization(elapsed)

    def __repr__(self) -> str:
        return (
            f"<ReferenceDegradableServer {self.name} rate={self.effective_rate:.3g}"
            f"/{self.nominal_rate:.3g} state={self.state.value}>"
        )
