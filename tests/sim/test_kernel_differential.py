"""Differential test: the discrete kernel against its event-per-job reference.

A job is its own event and, when nothing else is due at its completion
instant, is delivered in place instead of through a heap entry of its
own; ``DegradableServer.stop`` reads the server's queue instead of an
``_inflight`` dict.  Both changes claim to reorder nothing.  These tests
run the same scripted scenario on the library's servers and on the
reference copies in :mod:`tests.sim.reference_kernel` and require the
same ``(time, label)`` log.  The scenarios are built to produce ties:
dyadic sizes and rates put completions exactly on the arrival grid, and
rate changes, fail-stops, zero-delay timers, drain waiters, processes
that yield on jobs and callbacks that submit more work all land on those
instants too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ComponentStopped, DegradableServer
from repro.sim import Simulator, engine
from repro.sim.resources import _Job

from .reference_kernel import ReferenceDegradableServer

GRID = 0.25
RATES = (1.0, 2.0)
SIZES = (0.5, 1.0)
FACTORS = (0.0, 0.5, 2.0)
MODES = ("callback", "process", "resubmit", "timer0", "drain", "forget")

_times = st.integers(0, 12).map(lambda k: k * GRID)
_server = st.integers(0, 2)
_ops = st.one_of(
    st.tuples(st.just("submit"), _times, _server, st.sampled_from(SIZES),
              st.sampled_from(MODES)),
    st.tuples(st.just("slow"), _times, _server, st.sampled_from(FACTORS)),
    st.tuples(st.just("clear"), _times, _server),
    st.tuples(st.just("stop"), _times, _server),
    st.tuples(st.just("drain"), _times, _server),
    st.tuples(st.just("timer0"), _times),
)
_scenarios = st.tuples(
    st.lists(st.sampled_from(RATES), min_size=1, max_size=3),
    st.lists(_ops, min_size=1, max_size=30),
)


def _outcome(event):
    if event._ok:
        stats = event._value
        return f"ok@{stats.started_at}"
    return type(event._value).__name__


def run_script(server_cls, rates, ops):
    """Run one scenario; returns its ``(time, label)`` log and end state."""
    sim = Simulator()
    servers = [server_cls(sim, f"s{k}", rate) for k, rate in enumerate(rates)]
    log = []

    def note(label):
        log.append((sim.now, label))

    def watch(job, label):
        job.callbacks.append(lambda ev: note(f"{label}:{_outcome(ev)}"))

    def watch_drain(server, label):
        server.drain().callbacks.append(lambda ev: note(f"{label}:drained"))

    def submit(server, size, label):
        """Submit, logging a refusal by a fail-stopped server; the job or None."""
        try:
            return server.submit(size)
        except ComponentStopped:
            note(f"{label}:refused")
            return None

    def waiter(server, size, label):
        # A process that yields on its job, then on a second one.
        for step in ("a", "b"):
            job = submit(server, size, f"{label}{step}")
            if job is None:
                return
            try:
                stats = yield job
            except ComponentStopped:
                note(f"{label}{step}:stopped")
                return
            note(f"{label}{step}:ok@{stats.started_at}")

    def apply(index, op):
        kind, label = op[0], f"op{index}"
        if kind == "timer0":
            sim.call_later(0, note, f"{label}:zero")
            return
        server = servers[op[2] % len(servers)]
        if kind == "slow":
            server.set_slowdown("fault", op[3])
            note(f"{label}:slow")
        elif kind == "clear":
            server.clear_slowdown("fault")
            note(f"{label}:clear")
        elif kind == "stop":
            server.stop()
            note(f"{label}:stop")
        elif kind == "drain":
            watch_drain(server, label)
        else:
            size, mode = op[3], op[4]
            if mode == "process":
                sim.process(waiter(server, size, label))
                return
            job = submit(server, size, label)
            if job is None or mode == "forget":
                return
            watch(job, label)
            if mode == "timer0":
                job.callbacks.append(
                    lambda ev: sim.call_later(0, note, f"{label}:after")
                )
            elif mode == "drain":
                watch_drain(server, label)
            elif mode == "resubmit":
                nxt = servers[(op[2] + 1) % len(servers)]

                def resubmit(ev):
                    follow = submit(nxt, size, f"{label}+")
                    if follow is not None:
                        watch(follow, f"{label}+")

                job.callbacks.append(resubmit)

    for index, op in enumerate(ops):
        sim.call_at(op[1], apply, index, op)
    sim.run()
    state = [
        (s.jobs_completed, s.work_completed, s.queue_length, s.busy,
         s.utilization(), s.stopped)
        for s in servers
    ]
    return log, state, sim.now


@settings(max_examples=300, deadline=None)
@given(_scenarios)
def test_kernel_matches_event_per_job_reference(scenario):
    rates, ops = scenario
    assert run_script(DegradableServer, rates, ops) == run_script(
        ReferenceDegradableServer, rates, ops
    )


@pytest.fixture
def job_pushes(monkeypatch):
    """Times at which a finished job was pushed onto the heap."""
    pushes = []
    push = engine._heappush

    def spy(heap, entry):
        if isinstance(entry[3], _Job):
            pushes.append(entry[0])
        push(heap, entry)

    monkeypatch.setattr(engine, "_heappush", spy)
    return pushes


def _tie(timer_at):
    """Job op0 completes at t = 1 with drain waiter op1 pending; op2 arms
    a zero-delay timer at ``timer_at``.  Armed at t = 1, that timer is
    due at op0's completion instant, behind op0's completion timer."""
    return [
        ("submit", 0.0, 0, 1.0, "callback"),
        ("drain", 0.0, 0),
        ("timer0", timer_at),
    ]


def test_tie_takes_the_enqueue_branch(job_pushes):
    """Something else is due at the completion instant: the job waits its
    turn on the heap, behind the zero-delay timer and ahead of the drain
    waiter its completion woke."""
    log, __, __ = run_script(DegradableServer, [1.0], _tie(1.0))
    assert log == [(1.0, "op2:zero"), (1.0, "op0:ok@0.0"), (1.0, "op1:drained")]
    assert job_pushes == [1.0]
    assert log == run_script(ReferenceDegradableServer, [1.0], _tie(1.0))[0]


def test_lone_completion_is_delivered_in_place(job_pushes):
    log, __, __ = run_script(DegradableServer, [1.0], _tie(0.5))
    assert log == [(0.5, "op2:zero"), (1.0, "op0:ok@0.0"), (1.0, "op1:drained")]
    assert job_pushes == []
    assert log == run_script(ReferenceDegradableServer, [1.0], _tie(0.5))[0]
