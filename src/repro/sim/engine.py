"""Discrete-event simulation engine.

This module is the substrate on which every simulated component in the
library runs.  It provides a small, deterministic, generator-based
discrete-event kernel in the style of SimPy:

* :class:`Simulator` -- the event loop and virtual clock.
* :class:`Event` -- a one-shot occurrence that carries a value or an error.
* :class:`Timeout` -- an event that fires after a virtual delay.
* :class:`Callback` -- a cancellable timer that calls a plain function.
* :class:`Process` -- a generator coroutine driven by the events it yields.
* :class:`AllOf` / :class:`AnyOf` -- event combinators.

Determinism matters here: the fail-stutter experiments compare policies
against each other under identical fault schedules, so two runs with the
same seed must produce byte-identical traces.  The engine guarantees a
total order on event execution via a monotonically increasing sequence
number used as the final heap tie-breaker.

Performance matters too: every experiment and ablation runs on this
loop, so the hot path (:meth:`Simulator.run`, :meth:`Process._resume`)
avoids attribute lookups and re-wrapping.  Cancellation is *lazy*: a
cancelled :class:`Timeout`/:class:`Callback` stays in the heap and is
skipped for free when popped (its ``callbacks`` slot is ``None``),
rather than paying O(n) heap surgery up front.
:meth:`Simulator.call_series` runs a whole grid of calls (an arrival
stream) on one self-re-arming heap entry, ordered exactly as the
equivalent loop of :meth:`Simulator.call_at` calls, so the heap every
other event works on stays small.

A delay, time or ``until`` that is NaN raises :class:`SimulationError`:
a NaN heap key would otherwise end :meth:`Simulator.run` early as if the
queue had drained.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable as _CallableT, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StopSimulation",
    "Simulator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Scheduling priority for process start-up: a process created at time
#: t starts before every normal-priority event due at t.
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the engine (double trigger, bad yield, ...)."""


class StopSimulation(Exception):
    """Internal control-flow exception used by :meth:`Simulator.run`."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, becomes *triggered* once it has a value (or
    error) and is sitting in the simulator's queue, and becomes *processed*
    after its callbacks have run.  Processes wait on events by yielding
    them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with this event when it is processed.  Set to
        #: ``None`` after processing (appending then is an error) and on
        #: cancellation (so the scheduler skips the entry for free).
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception object if it failed)."""
        if self._value is Event._PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        _heappush(sim._queue, (sim._now, PRIORITY_NORMAL, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        When a failed event is processed and nothing has *defused* it (no
        waiting process took responsibility for the error), the exception
        propagates out of :meth:`Simulator.run` -- errors never pass
        silently.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, PRIORITY_NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future.

    Supports :meth:`cancel`: a cancelled timeout never runs its callbacks
    and is skipped lazily when the scheduler pops it off the heap.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # Inlined Event.__init__ plus enqueue: timeouts are the single
        # most-constructed object in a simulation, so skip the redundant
        # pending-state stores and the two call frames.
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._cancelled = False
        self._ok = True
        self._value = value
        sim._seq += 1
        _heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, sim._seq, self))

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Revoke the timeout before it fires.

        The heap entry is left in place and skipped for free when popped
        (lazy deletion).  Cancelling twice is a no-op; cancelling after
        the timeout already fired is an error.  Do not cancel a timeout a
        process is currently waiting on -- that process would never be
        resumed; cancellation is for fire-and-forget timers.
        """
        if self._cancelled:
            return
        if self.callbacks is None:
            raise SimulationError(f"cannot cancel already-fired {self!r}")
        self._cancelled = True
        self.callbacks = None


def _run_callback(timer: "Callback") -> None:
    """The one event callback every :class:`Callback` carries."""
    timer._fn(*timer._args)


class Callback(Timeout):
    """A lightweight cancellable timer that invokes ``fn(*args)``.

    Created via :meth:`Simulator.call_later` / :meth:`Simulator.call_at`.
    Unlike wrapping the call in a :class:`Process`, this costs one heap
    entry and no generator frame -- it is the fast path for components
    (e.g. :class:`~repro.sim.resources.RateServer`) that need to arm and
    re-arm completion timers at high frequency.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator", delay: float, fn: _CallableT, args: tuple):
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # Timeout's set-up inlined, with a module-level runner instead of
        # a bound method: one allocation less per timer.
        self.sim = sim
        self.callbacks = [_run_callback]
        self._defused = False
        self.delay = delay
        self._cancelled = False
        self._ok = True
        self._value = None
        self._fn = fn
        self._args = args
        sim._seq += 1
        _heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, sim._seq, self))


class _Series(Event):
    """Internal: the one live heap entry of :meth:`Simulator.call_series`.

    It holds call ``i``'s key and, just before running call ``i``,
    re-arms itself with call ``i + 1``'s, so the heap carries one entry
    for the whole series instead of one per call.
    """

    __slots__ = ("_fn", "_count", "_spacing", "_base", "_index", "_armed")

    def __init__(self, sim: "Simulator", count: int, spacing: float, fn: _CallableT):
        self.sim = sim
        self._defused = False
        self._ok = True
        self._value = None
        self._fn = fn
        self._count = count
        self._spacing = spacing
        self._base = sim._seq
        self._index = 0
        self._armed = [self._fire]
        sim._seq += count  # the sequence numbers the call_at loop consumed
        # call_at(i * spacing)'s key is (i * spacing, PRIORITY_NORMAL,
        # base + i + 1): created at t = 0, its delay is the time itself.
        self.callbacks = self._armed
        _heappush(sim._queue, (0 * spacing, PRIORITY_NORMAL, self._base + 1, self))

    def _fire(self, _event: Event) -> None:
        i = self._index
        j = i + 1
        if j < self._count:
            # Re-arm with call i + 1's key first: if fn raises, the rest
            # of the series stays live.
            self._index = j
            self.callbacks = self._armed
            _heappush(self.sim._queue,
                      (j * self._spacing, PRIORITY_NORMAL, self._base + j + 1, self))
        self._fn(i)


class _Initialize(Event):
    """Internal: kick-starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._enqueue(self, PRIORITY_URGENT, 0.0)


class Process(Event):
    """A generator coroutine running inside the simulation.

    The generator yields :class:`Event` instances (including other
    processes); each yield suspends the process until the event is
    processed.  The process itself is an event that succeeds with the
    generator's return value, so processes compose: ``result = yield
    sim.process(child())``.

    If a yielded event fails, the exception is re-raised *inside* the
    generator at the yield point, so processes handle downstream errors
    with ordinary ``try/except``.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        _Initialize(sim, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process yielded non-event {next_event!r}; yield Event/Timeout/Process"
                )
                try:
                    generator.throw(error)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as exc:
                    self.fail(exc)
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Not yet processed: park until it fires.
                callbacks.append(self._resume)
                return
            # Already processed: feed its outcome straight back in.
            event = next_event


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> list:
        return [ev._value for ev in self.events]


class AllOf(_Condition):
    """Succeeds with the list of all values once every event succeeds.

    Fails with the first failing event's exception (remaining events are
    left to run; their failures are defused through this condition).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds with the value of the first event to succeed.

    Fails if the first event to trigger fails.  Later events are ignored
    (and their failures defused).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)


class Simulator:
    """The discrete-event loop and virtual clock.

    Typical use::

        sim = Simulator()

        def writer():
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(writer())
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """Create a pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a :class:`Process`."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first event in ``events``."""
        return AnyOf(self, events)

    def call_later(self, delay: float, fn: _CallableT, *args: Any) -> Callback:
        """Call ``fn(*args)`` after ``delay``; returns a cancellable timer.

        This is the lightweight fast path for fire-and-forget callbacks:
        no generator frame, no urgent kick-start event -- one heap entry.
        Use :meth:`schedule` instead when you need the call's return
        value as an event.
        """
        return Callback(self, delay, fn, args)

    def call_at(self, when: float, fn: _CallableT, *args: Any) -> Callback:
        """Call ``fn(*args)`` at absolute virtual time ``when``."""
        delay = when - self._now
        if not delay >= 0:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        return Callback(self, delay, fn, args)

    def call_series(self, count: int, spacing: float, fn: _CallableT) -> None:
        """Call ``fn(i)`` at virtual time ``i * spacing`` for each ``i < count``.

        Runs exactly as ``for i in range(count): call_at(i * spacing, fn,
        i)`` would -- same sequence numbers (all ``count`` are reserved
        now), same heap keys, so ties with every other event order as
        with the loop -- but keeps one live heap entry for the whole
        series, which re-arms with call ``i + 1`` just before call ``i``
        runs.  Like the loop, a series whose first call (at t = 0) is in
        the past raises :class:`SimulationError` and schedules nothing.
        """
        if not (isinstance(count, int) and count >= 0):
            raise SimulationError(f"count must be an int >= 0, got {count!r}")
        if not 0 <= spacing < float("inf"):  # also rejects NaN
            raise SimulationError(f"spacing must be finite and >= 0, got {spacing}")
        if count:
            if self._now > 0:
                raise SimulationError(
                    f"call_series(...) starts at 0, in the past (now={self._now})"
                )
            _Series(self, count, spacing, fn)

    def schedule(self, delay: float, fn: _CallableT, *args: Any) -> Event:
        """Call ``fn(*args)`` after ``delay``; returns the firing event.

        The event succeeds with the call's return value (or fails with
        its exception, which surfaces out of :meth:`run` unless a waiter
        defuses it).  Implemented on the :class:`Callback` fast path
        rather than spawning a generator process per call.
        """
        event = Event(self)

        def runner():
            try:
                event.succeed(fn(*args))
            except BaseException as exc:
                event.fail(exc)

        Callback(self, delay, runner, ())
        return event

    # -- the loop -----------------------------------------------------------

    def _enqueue(self, event: Event, priority: int, delay: float) -> None:
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        _heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none.

        Defunct (cancelled) entries at the head of the heap are dropped
        here so the reported time is that of an event that will really
        run.
        """
        queue = self._queue
        while queue:
            if queue[0][3].callbacks is None:
                heapq.heappop(queue)
                continue
            return queue[0][0]
        return float("inf")

    def step(self) -> None:
        """Process exactly one live event.  Raises IndexError if queue empty.

        Cancelled entries are skipped without advancing the clock.  A
        :class:`~repro.sim.resources.RateServer` completion step also runs
        its job's callbacks when nothing else is due at that instant: the
        job is delivered in place instead of taking a heap entry of its
        own.
        """
        queue = self._queue
        while True:
            when, _prio, _seq, event = heapq.heappop(queue)
            callbacks = event.callbacks
            if callbacks is None:
                continue  # defunct (cancelled) entry: lazy skip
            if when < self._now:
                raise SimulationError("time went backwards; corrupted queue")
            self._now = when
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # Nothing took responsibility for the failure: surface it.
                raise event._value
            return

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that virtual time, inclusive of events at it), or an
        :class:`Event` (run until it is processed, returning its value or
        raising its exception).
        """
        stop_at = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value

            def _stop(ev: Event) -> None:
                raise StopSimulation(ev)

            until.callbacks.append(_stop)
        elif isinstance(until, (int, float)) and not isinstance(until, bool):
            if not until >= self._now:  # also rejects NaN
                raise SimulationError(f"until={until} is in the past (now={self._now})")
            stop_at = float(until)
        else:
            raise SimulationError(f"bad until={until!r}")

        # Hot loop: step() inlined with the heap, pop and clock bound to
        # locals.  Keep in sync with step() above.
        queue = self._queue
        pop = _heappop
        try:
            while queue and queue[0][0] <= stop_at:
                when, _prio, _seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # defunct (cancelled) entry: lazy skip
                if when < self._now:
                    raise SimulationError("time went backwards; corrupted queue")
                self._now = when
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            ev: Event = stop.value
            if not ev._ok:
                ev._defused = True
                raise ev._value
            return ev._value

        if isinstance(until, Event):
            raise SimulationError("simulation queue drained before `until` event fired")
        if stop_at != float("inf"):
            self._now = max(self._now, stop_at)
        return None
