"""Unit and property tests for the formal fail-stutter model."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FailStutterAutomaton,
    FsEvent,
    FsState,
    check_trace,
    trace_of,
)
from repro.faults import (
    DegradableServer,
    Exponential,
    TransientStutter,
    Uniform,
)
from repro.sim import Simulator


class TestAutomaton:
    def test_starts_ok_and_accepting(self):
        automaton = FailStutterAutomaton()
        assert automaton.state is FsState.OK
        assert automaton.accepting

    def test_degrade_recover_roundtrip(self):
        automaton = FailStutterAutomaton()
        assert automaton.step(FsEvent.DEGRADE)
        assert automaton.state is FsState.DEGRADED
        assert not automaton.accepting  # dangling episode
        assert automaton.step(FsEvent.RECOVER)
        assert automaton.state is FsState.OK
        assert automaton.accepting

    def test_nested_episodes_balance(self):
        automaton = FailStutterAutomaton()
        automaton.step(FsEvent.DEGRADE)
        automaton.step(FsEvent.DEGRADE)
        automaton.step(FsEvent.RECOVER)
        assert automaton.state is FsState.DEGRADED  # one still open
        automaton.step(FsEvent.RECOVER)
        assert automaton.state is FsState.OK

    def test_recover_without_degrade_illegal(self):
        automaton = FailStutterAutomaton()
        assert not automaton.step(FsEvent.RECOVER)

    def test_stop_is_absorbing(self):
        automaton = FailStutterAutomaton()
        automaton.step(FsEvent.STOP)
        assert automaton.state is FsState.STOPPED
        assert automaton.accepting
        assert not automaton.step(FsEvent.DEGRADE)
        assert not automaton.step(FsEvent.STOP)

    def test_stop_closes_open_episodes(self):
        automaton = FailStutterAutomaton()
        automaton.step(FsEvent.DEGRADE)
        automaton.step(FsEvent.STOP)
        assert automaton.accepting


class TestCheckTrace:
    def test_legal_trace_clean(self):
        trace = [
            (0.0, FsEvent.DEGRADE),
            (2.0, FsEvent.RECOVER),
            (5.0, FsEvent.DEGRADE),
            (6.0, FsEvent.RECOVER),
            (9.0, FsEvent.STOP),
        ]
        assert check_trace(trace) == []

    def test_unbalanced_recover_flagged(self):
        violations = check_trace([(0.0, FsEvent.RECOVER)])
        assert len(violations) == 1
        assert "illegal" in violations[0].reason

    def test_event_after_stop_flagged(self):
        violations = check_trace([(0.0, FsEvent.STOP), (1.0, FsEvent.DEGRADE)])
        assert len(violations) == 1
        assert "after STOP" in violations[0].reason

    def test_time_regression_flagged(self):
        violations = check_trace(
            [(5.0, FsEvent.DEGRADE), (3.0, FsEvent.RECOVER)]
        )
        assert any("nondecreasing" in v.reason for v in violations)

    def test_empty_trace_is_conformant(self):
        assert check_trace([]) == []


class TestTraceOfRealComponents:
    def test_injected_component_produces_conformant_trace(self):
        sim = Simulator()
        server = DegradableServer(sim, "x", 10.0)
        TransientStutter(Exponential(3.0), Uniform(0.5, 2.0), Uniform(0.1, 0.9)).attach(
            sim, server, random.Random(4)
        )
        sim.run(until=60.0)
        trace = trace_of(server)
        assert trace, "injector should have produced episodes"
        assert check_trace(trace) == []

    def test_fail_stop_ends_the_trace(self):
        sim = Simulator()
        server = DegradableServer(sim, "x", 10.0)
        TransientStutter(Exponential(2.0), Uniform(0.5, 1.0), Uniform(0.1, 0.5)).attach(
            sim, server, random.Random(7)
        )
        sim.call_later(20.0, server.stop)
        sim.run(until=60.0)
        trace = trace_of(server)
        assert check_trace(trace) == []
        assert trace[-1][1] is FsEvent.STOP
        assert trace[-1][0] == 20.0

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_any_random_schedule_is_conformant(self, seed, with_death):
        """DESIGN.md invariant: every DegradableMixin history satisfies
        the formal model, whatever the fault schedule."""
        sim = Simulator()
        server = DegradableServer(sim, "x", 10.0)
        rng = random.Random(seed)
        TransientStutter(Exponential(2.0), Exponential(1.0), Uniform(0.0, 1.0)).attach(
            sim, server, rng
        )
        TransientStutter(Exponential(3.0), Exponential(2.0), Uniform(0.0, 1.0)).attach(
            sim, server, rng
        )
        if with_death:
            sim.call_later(rng.uniform(1.0, 30.0), server.stop)
        sim.run(until=40.0)
        assert check_trace(trace_of(server)) == []
