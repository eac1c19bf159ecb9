"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AnyOf,
    SimulationError,
    Simulator,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(3.5)

        sim.process(proc())
        sim.run()
        assert sim.now == 3.5

    def test_run_until_time_stops_there(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_time_processes_events_at_boundary(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(4.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=4.0)
        assert fired == [4.0]

    def test_run_until_past_time_raises(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def proc(delay, label):
            yield sim.timeout(delay)
            order.append(label)

        sim.process(proc(3.0, "c"))
        sim.process(proc(1.0, "a"))
        sim.process(proc(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_creation_order(self):
        sim = Simulator()
        order = []

        def proc(label):
            yield sim.timeout(1.0)
            order.append(label)

        for label in "abcde":
            sim.process(proc(label))
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_timeout_fires_after_current(self):
        sim = Simulator()
        order = []

        def proc():
            order.append("before")
            yield sim.timeout(0)
            order.append("after")

        sim.process(proc())
        sim.run()
        assert order == ["before", "after"]


class TestEvents:
    def test_manual_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        results = []

        def waiter():
            value = yield ev
            results.append(value)

        sim.process(waiter())

        def trigger():
            yield sim.timeout(2.0)
            ev.succeed("payload")

        sim.process(trigger())
        sim.run()
        assert results == ["payload"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_failed_event_raises_in_waiter(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_propagates_from_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            sim.run()

    def test_yield_already_processed_event_continues_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        results = []

        def waiter():
            value = yield ev
            results.append((sim.now, value))

        sim.process(waiter())
        sim.run()
        assert results == [(0.0, "early")]


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        value = sim.run(until=p)
        assert value == 42

    def test_processes_compose(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result + "!"

        p = sim.process(parent())
        assert sim.run(until=p) == "child-result!"
        assert sim.now == 2.0

    def test_exception_in_child_propagates_to_parent(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise KeyError("lost")

        def parent():
            try:
                yield sim.process(child())
            except KeyError:
                return "handled"

        p = sim.process(parent())
        assert sim.run(until=p) == "handled"

    def test_unhandled_process_exception_raises_from_run(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def proc():
            yield 17

        sim.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_run_until_event_returns_its_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return "done"

        p = sim.process(proc())
        assert sim.run(until=p) == "done"
        assert sim.now == 5.0

    def test_run_until_never_firing_event_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError, match="drained"):
            sim.run(until=ev)


class TestCombinators:
    def test_all_of_collects_values(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of(
                [sim.timeout(1.0, "a"), sim.timeout(3.0, "b"), sim.timeout(2.0, "c")]
            )
            return values

        p = sim.process(proc())
        assert sim.run(until=p) == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_any_of_returns_first(self):
        sim = Simulator()

        def proc():
            value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return value

        p = sim.process(proc())
        assert sim.run(until=p) == "fast"
        assert sim.now == 1.0

    def test_all_of_empty_succeeds_immediately(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of([])
            return values

        p = sim.process(proc())
        assert sim.run(until=p) == []
        assert sim.now == 0.0

    def test_all_of_fails_on_first_failure(self):
        sim = Simulator()
        bad = sim.event()

        def failer():
            yield sim.timeout(1.0)
            bad.fail(ValueError("broken"))

        sim.process(failer())

        def proc():
            try:
                yield sim.all_of([sim.timeout(10.0), bad])
            except ValueError:
                return "caught"

        p = sim.process(proc())
        assert sim.run(until=p) == "caught"

    def test_any_of_with_already_fired_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("pre")
        sim.run()

        def proc():
            value = yield AnyOf(sim, [ev, sim.timeout(10.0)])
            return value

        p = sim.process(proc())
        assert sim.run(until=p) == "pre"
        assert sim.now == 0.0


class TestSchedule:
    def test_schedule_runs_callable_at_delay(self):
        sim = Simulator()
        calls = []
        sim.schedule(2.5, calls.append, "hit")
        sim.run()
        assert calls == ["hit"]
        assert sim.now == 2.5

    def test_schedule_event_carries_return(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: "result")
        assert sim.run(until=ev) == "result"

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(7.0)
        assert sim.peek() == 7.0


class TestCallbackTimers:
    def test_call_later_fires_in_time_order(self):
        sim = Simulator()
        calls = []
        sim.call_later(2.0, calls.append, "b")
        sim.call_later(1.0, calls.append, "a")
        sim.call_later(3.0, calls.append, "c")
        sim.run()
        assert calls == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_call_at_fires_at_absolute_time(self):
        sim = Simulator()
        calls = []

        def proc():
            yield sim.timeout(1.0)
            sim.call_at(4.0, lambda: calls.append(sim.now))

        sim.process(proc())
        sim.run()
        assert calls == [4.0]

    def test_call_at_in_past_rejected(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(2.0)
            sim.call_at(1.0, lambda: None)

        p = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_cancelled_callback_never_runs(self):
        sim = Simulator()
        calls = []
        keep = sim.call_later(1.0, calls.append, "keep")
        drop = sim.call_later(1.0, calls.append, "drop")
        drop.cancel()
        sim.run()
        assert calls == ["keep"]
        assert drop.cancelled and not keep.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.call_later(1.0, lambda: None)
        timer.cancel()
        timer.cancel()  # no-op, no error
        sim.run()

    def test_cancel_after_fired_is_error(self):
        sim = Simulator()
        timer = sim.call_later(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            timer.cancel()

    def test_timeout_cancel_skipped_lazily(self):
        sim = Simulator()
        doomed = sim.timeout(5.0)
        sim.call_later(1.0, lambda: None)
        doomed.cancel()
        sim.run()
        # The cancelled timeout neither fires nor advances the clock.
        assert sim.now == 1.0

    def test_peek_skips_defunct_entries(self):
        sim = Simulator()
        doomed = sim.timeout(1.0)
        sim.timeout(2.0)
        doomed.cancel()
        assert sim.peek() == 2.0

    def test_step_skips_defunct_entries_without_advancing_clock(self):
        sim = Simulator()
        doomed = sim.call_later(1.0, lambda: None)
        calls = []
        sim.call_later(2.0, calls.append, "live")
        doomed.cancel()
        sim.step()  # skips the defunct entry and processes the live one
        assert sim.now == 2.0 and calls == ["live"]

    def test_schedule_failure_surfaces_from_run(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("kaboom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()

    def test_schedule_failure_caught_by_waiter(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("kaboom")

        ev = sim.schedule(1.0, boom)

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        p = sim.process(proc())
        assert sim.run(until=p) == "kaboom"
