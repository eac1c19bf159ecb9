"""Edge-case coverage for the simulation kernel."""

import math

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
)
from repro.sim.engine import PRIORITY_NORMAL


class TestConditionEdgeCases:
    def test_all_of_with_already_triggered_failure(self):
        """A failure is defused by a condition attached before it runs;
        with no witness at all it must surface (errors never pass
        silently)."""
        sim = Simulator()
        bad = sim.event()
        bad.fail(ValueError("pre-broken"))  # triggered, not yet processed

        def proc():
            try:
                yield AllOf(sim, [bad, sim.timeout(1.0)])
            except ValueError:
                return "caught"

        p = sim.process(proc())
        assert sim.run(until=p) == "caught"

    def test_unwitnessed_failure_surfaces(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(ValueError("pre-broken"))
        with pytest.raises(ValueError, match="pre-broken"):
            sim.run()

    def test_any_of_failure_first_propagates(self):
        sim = Simulator()
        bad = sim.event()

        def failer():
            yield sim.timeout(0.5)
            bad.fail(KeyError("fast failure"))

        sim.process(failer())

        def proc():
            try:
                yield AnyOf(sim, [bad, sim.timeout(10.0)])
            except KeyError:
                return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 0.5

    def test_nested_conditions(self):
        sim = Simulator()

        def proc():
            inner = sim.all_of([sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
            value = yield sim.any_of([inner, sim.timeout(10.0, "slow")])
            return value

        p = sim.process(proc())
        assert sim.run(until=p) == ["a", "b"]
        assert sim.now == 2.0

    def test_condition_over_mixed_simulators_rejected(self):
        sim_a, sim_b = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim_a, [sim_a.timeout(1.0), sim_b.timeout(1.0)])


class TestInterruptEdgeCases:
    def test_interrupt_process_waiting_on_condition(self):
        sim = Simulator()
        caught = []

        def victim():
            try:
                yield sim.all_of([sim.timeout(50.0), sim.timeout(60.0)])
            except Interrupt as intr:
                caught.append(intr.cause)

        p = sim.process(victim())
        sim.schedule(1.0, p.interrupt, "cut")
        sim.run()
        assert caught == ["cut"]

    def test_interrupt_then_wait_again_on_same_event(self):
        sim = Simulator()
        shared = sim.event()
        values = []

        def victim():
            try:
                yield shared
            except Interrupt:
                value = yield shared  # re-arm on the same event
                values.append(value)

        p = sim.process(victim())
        sim.schedule(1.0, p.interrupt)
        sim.schedule(2.0, shared.succeed, "late")
        sim.run()
        assert values == ["late"]

    def test_double_interrupt_same_instant(self):
        sim = Simulator()
        hits = []

        def victim():
            for __ in range(2):
                try:
                    yield sim.timeout(100.0)
                except Interrupt as intr:
                    hits.append(intr.cause)

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(1.0)
            p.interrupt("first")
            # Second interrupt arrives while the first is still queued;
            # the victim is not waiting yet, so this must be rejected.
            with pytest.raises(SimulationError):
                p.interrupt("second")

        sim.process(attacker())
        sim.run()
        assert hits == ["first"]


class TestResourceStoreStress:
    def test_resource_heavy_contention_conserves_grants(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)
        completions = []

        def user(idx):
            req = resource.request()
            yield req
            yield sim.timeout(1.0)
            resource.release()
            completions.append(idx)

        for i in range(30):
            sim.process(user(i))
        sim.run()
        assert sorted(completions) == list(range(30))
        assert resource.in_use == 0
        assert sim.now == pytest.approx(10.0)  # 30 users / 3 slots / 1s

    def test_store_interleaved_producers_consumers(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        consumed = []

        def producer():
            for i in range(10):
                yield store.put(i)
                yield sim.timeout(0.1)

        def consumer():
            for __ in range(10):
                item = yield store.get()
                consumed.append(item)
                yield sim.timeout(0.3)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert consumed == list(range(10))

    def test_two_consumers_split_stream(self):
        sim = Simulator()
        store = Store(sim)
        got = {"a": [], "b": []}

        def consumer(name):
            while True:
                item = yield store.get()
                if item is None:
                    return
                got[name].append(item)
                yield sim.timeout(1.0)

        sim.process(consumer("a"))
        sim.process(consumer("b"))

        def producer():
            for i in range(8):
                store.put(i)
                yield sim.timeout(0.4)
            store.put(None)
            store.put(None)

        sim.process(producer())
        sim.run()
        assert sorted(got["a"] + got["b"]) == list(range(8))
        assert got["a"] and got["b"]  # both actually participated


class TestRunSemantics:
    def test_run_to_time_is_resumable(self):
        sim = Simulator()
        marks = []

        def proc():
            for __ in range(3):
                yield sim.timeout(2.0)
                marks.append(sim.now)

        sim.process(proc())
        sim.run(until=3.0)
        assert marks == [2.0]
        sim.run(until=10.0)
        assert marks == [2.0, 4.0, 6.0]

    def test_run_until_event_leaves_rest_of_queue_intact(self):
        sim = Simulator()
        later = []

        def background():
            yield sim.timeout(5.0)
            later.append(sim.now)

        sim.process(background())

        def quick():
            yield sim.timeout(1.0)
            return "quick"

        p = sim.process(quick())
        assert sim.run(until=p) == "quick"
        assert later == []  # background not yet run
        sim.run()
        assert later == [5.0]


class TestNaNAndBoolArguments:
    """A NaN heap key or a bool ``until`` must fail loudly, not quietly."""

    NAN = float("nan")

    def test_nan_delay_rejected_everywhere(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(self.NAN)
        with pytest.raises(SimulationError):
            sim.call_later(self.NAN, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(self.NAN, lambda: None)
        with pytest.raises(SimulationError):
            sim._enqueue(sim.event(), PRIORITY_NORMAL, self.NAN)
        with pytest.raises(SimulationError):
            sim.call_series(3, self.NAN, lambda i: None)
        assert sim._queue == [] and sim._seq == 0

    def test_nan_timer_no_longer_cuts_the_run_short(self):
        """Timers at 3, 1, 2, NaN, 0.5, 4, 1.5: the NaN one is refused and
        every other one runs, in time order, to t=4."""
        sim = Simulator()
        fired = []
        for delay in (3, 1, 2, self.NAN, 0.5, 4, 1.5):
            if math.isnan(delay):
                with pytest.raises(SimulationError):
                    sim.call_later(delay, fired.append, delay)
            else:
                sim.call_later(delay, fired.append, delay)
        sim.run()
        assert fired == [0.5, 1, 1.5, 2, 3, 4]
        assert sim.now == 4.0

    @pytest.mark.parametrize("count, spacing", [
        (-1, 1.0), (2.0, 1.0), ("3", 1.0), (3, -1.0), (3, float("inf")),
    ])
    def test_call_series_arguments_validated(self, count, spacing):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_series(count, spacing, lambda i: None)
        assert sim._queue == [] and sim._seq == 0

    @pytest.mark.parametrize("until", [True, False])
    def test_bool_until_rejected(self, until):
        sim = Simulator()
        fired = []
        sim.call_later(0.5, fired.append, "early")
        with pytest.raises(SimulationError, match="bad until"):
            sim.run(until=until)
        assert fired == [] and sim.now == 0.0

    def test_nan_until_rejected(self):
        sim = Simulator()
        sim.call_later(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=self.NAN)
        assert sim.now == 0.0
