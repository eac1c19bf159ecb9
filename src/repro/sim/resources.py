"""Shared resources for simulated components.

Three primitives cover every component model in the library:

* :class:`Resource` -- a counted FIFO semaphore (SCSI bus ownership, switch
  ports, memory frames).
* :class:`Store` -- a producer/consumer buffer (task queues, switch buffer
  pools).
* :class:`RateServer` -- a FIFO work server whose service *rate* can change
  at any instant.  This is the primitive that makes performance faults
  first-class: a fault injector calls :meth:`RateServer.set_rate` and any
  in-flight job's completion is transparently rescheduled so that exactly
  the remaining work is served at the new rate.  Work is conserved across
  arbitrarily many rate changes (see the property tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional

from .engine import Event, SimulationError, Simulator, Timeout

__all__ = ["Resource", "Store", "RateServer", "JobStats"]

#: Tolerance for floating-point work accounting.
_EPSILON = 1e-9

_INF = float("inf")
_PENDING = Event._PENDING


class Resource:
    """A counted FIFO semaphore.

    ``capacity`` slots; :meth:`request` returns an event that succeeds when
    a slot is granted (immediately if one is free), and :meth:`release`
    frees a slot, granting it to the oldest waiter.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Total number of grants ever issued (for tests/metrics).
        self.grants = 0

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for a slot; the returned event fires when it is granted."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grants += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free a held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            waiter = self._waiters.popleft()
            self.grants += 1
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put`` blocks (returns a pending event) when the store is full;
    ``get`` blocks when it is empty.  Items are handed to getters in FIFO
    order, which keeps pull-based schedulers fair.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the event fires once it is accepted."""
        event = self.sim.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(item)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(item)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event fires with it."""
        event = self.sim.event()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter, pending = self._putters.popleft()
                self._items.append(pending)
                putter.succeed(pending)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event


@dataclass(slots=True)
class JobStats:
    """Completion record returned by :meth:`RateServer.submit` events.

    ``slots=True`` because one of these is allocated per submitted job:
    it drops the per-instance ``__dict__`` (about 40% smaller, measurably
    faster to allocate — see TUTORIAL §8).
    """

    size: float
    submitted_at: float
    started_at: float = 0.0
    completed_at: float = 0.0
    tag: Any = None

    @property
    def wait_time(self) -> float:
        """Time spent queued before service began."""
        return self.started_at - self.submitted_at

    @property
    def service_time(self) -> float:
        """Time spent in service (includes slowdowns mid-service)."""
        return self.completed_at - self.started_at

    @property
    def response_time(self) -> float:
        """Queueing delay plus service time."""
        return self.completed_at - self.submitted_at


class _Job(Event):
    """One submitted job, which is also the event its submitter waits on.

    :meth:`RateServer.submit` returns it; it succeeds with its
    :class:`JobStats` when the last unit of work is served, so a
    submission allocates the job and its stats and nothing else.
    """

    __slots__ = ("size", "remaining", "stats")

    def __init__(self, sim: Simulator, size: float, stats: JobStats):
        # Event.__init__ inlined: one of these is built per submission.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.size = size
        self.remaining = float(size)
        self.stats = stats


class RateServer:
    """FIFO server with a time-varying service rate.

    Jobs carry a *size* in work units; the server drains the head job at
    ``rate`` units per unit time.  :meth:`set_rate` may be called at any
    instant -- including while a job is in service -- and the in-flight
    job's completion is rescheduled so that precisely its remaining work is
    served at the new rate.  A rate of ``0`` models a stalled component
    (thermal recalibration, bus reset, GC pause): the job is frozen until
    the rate becomes positive again.

    :meth:`submit` returns the job itself, an :class:`Event` that succeeds
    with the job's :class:`JobStats`.  A finished job is *delivered in
    place*: when nothing else is due at its completion instant, its
    callbacks run at the end of the completion step (after the next job
    has started and drain waiters are enqueued) instead of from a heap
    entry of their own -- the order an enqueued delivery would give,
    since that entry would have been the very next one processed.  When
    something else is due at that instant, :meth:`Event.succeed`
    enqueues the job and it takes its turn.  Sizes must be finite and
    ``> 0``, rates finite and ``>= 0``; a rejected call changes nothing.

    This is the mechanism by which *performance faults* act on simulated
    components, and the mechanism by which adaptive policies observe them
    (through job response times).
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "server"):
        if not 0 <= rate < _INF:  # also rejects NaN
            raise SimulationError(f"rate must be finite and >= 0, got {rate}")
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
        self._timer: Optional[Timeout] = None
        #: Every completion timer's callback list: the timer calls
        #: :meth:`_complete` directly, with no trampoline.
        self._armed = [self._complete]
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
        """Enqueue ``size`` units of work; event fires with :class:`JobStats`.

        The returned event is the job itself.  An idle server starts it
        at once.
        """
        if not 0 < size < _INF:  # also rejects NaN
            raise SimulationError(f"job size must be finite and > 0, got {size}")
        sim = self.sim
        now = sim._now
        job = _Job(sim, size, JobStats(size=size, submitted_at=now, tag=tag))
        if self._current is not None:
            self._queue.append(job)
            return job
        # Idle: the queue is empty and no timer is armed.
        job.stats.started_at = now
        self._current = job
        self._last_update = now
        self._busy_since = now
        if self._rate > 0:
            timer = self._timer = Timeout(sim, job.remaining / self._rate)
            timer.callbacks = self._armed
        return job

    def set_rate(self, rate: float) -> None:
        """Change the service rate, rescaling any in-flight job."""
        if not 0 <= rate < _INF:  # also rejects NaN
            raise SimulationError(f"rate must be finite and >= 0, got {rate}")
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
        timer = self._timer = Timeout(self.sim, self._current.remaining / self._rate)
        timer.callbacks = self._armed

    def _complete(self, _timer: Event) -> None:
        self._timer = None
        sim = self.sim
        now = sim._now
        # _accrue() inlined: a timer is only armed for a job in service
        # at a positive rate.
        job = self._current
        job.remaining -= (now - self._last_update) * self._rate
        if job.remaining < 0:
            job.remaining = 0.0
        self._last_update = now
        if job.remaining > _EPSILON:
            # Floating-point residue from accrual: finish it off.
            self._schedule_completion()
            return
        self._current = None
        stats = job.stats
        stats.completed_at = now
        self.jobs_completed += 1
        self.work_completed += job.size
        heap = sim._queue
        if heap and heap[0][0] <= now:
            # Something else is due at this instant and goes first: the
            # job takes its turn on the heap.
            job.succeed(stats)
            deliver = None
        else:
            # The job's heap entry would be the very next one processed:
            # deliver it in place, below, once this step's other work is
            # done.  Later entries lose one sequence number each, which
            # keeps their relative order.
            if job._value is not _PENDING:
                raise SimulationError(f"{job!r} already triggered")
            job._ok = True
            job._value = stats
            deliver = job.callbacks
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
        if deliver is not None:
            job.callbacks = None
            for callback in deliver:
                callback(job)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy since t=0 (or over ``elapsed``)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        span = elapsed if elapsed is not None else self.sim.now
        if span <= 0:
            return 0.0
        return min(1.0, busy / span)
