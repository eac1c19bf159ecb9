"""Unit tests for the fault injector library."""

import random

import pytest

from repro.faults import (
    DegradableServer,
    Fixed,
    IntermittentOffline,
    InterferenceLoad,
    PerformanceFault,
    PeriodicBackground,
    StaticSkew,
    TransientStutter,
    Uniform,
)
from repro.sim import Simulator


def make_target(rate=10.0, name="disk0"):
    sim = Simulator()
    return sim, DegradableServer(sim, name, rate)


class TestStaticSkew:
    def test_applies_at_time_zero(self):
        sim, target = make_target()
        StaticSkew(0.5).attach(sim, target)
        sim.run()
        assert target.effective_rate == 5.0

    def test_applies_at_delay(self):
        sim, target = make_target()
        StaticSkew(0.5, at=3.0).attach(sim, target)
        rates = []

        def probe():
            yield sim.timeout(2.0)
            rates.append(target.effective_rate)
            yield sim.timeout(2.0)
            rates.append(target.effective_rate)

        sim.process(probe())
        sim.run()
        assert rates == [10.0, 5.0]

    def test_cancel_before_application(self):
        sim, target = make_target()
        handle = StaticSkew(0.5, at=5.0).attach(sim, target)
        sim.schedule(1.0, handle.cancel)
        sim.run()
        assert target.effective_rate == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticSkew(-0.5)
        with pytest.raises(ValueError):
            StaticSkew(0.5, at=-1.0)


class TestTransientStutter:
    def test_episodes_alternate(self):
        sim, target = make_target()
        injector = TransientStutter(
            interarrival=Fixed(10.0), duration=Fixed(2.0), factor=Fixed(0.25)
        )
        injector.attach(sim, target, random.Random(0))
        sim.run(until=25.0)
        episodes = [f for f in target.fault_log if isinstance(f, PerformanceFault)]
        # Episodes at [10, 12) and [22, 24).
        assert [(e.start, e.end) for e in episodes] == [(10.0, 12.0), (22.0, 24.0)]
        assert all(e.factor == 0.25 for e in episodes)

    def test_stops_after_target_fail_stop(self):
        sim, target = make_target()
        TransientStutter(Fixed(1.0), Fixed(1.0), Fixed(0.5)).attach(
            sim, target, random.Random(0)
        )
        sim.schedule(0.5, target.stop)
        sim.run(until=10.0)
        episodes = [f for f in target.fault_log if isinstance(f, PerformanceFault)]
        assert episodes == []

    def test_cancel_stops_new_episodes(self):
        sim, target = make_target()
        handle = TransientStutter(Fixed(2.0), Fixed(1.0), Fixed(0.5)).attach(
            sim, target, random.Random(0)
        )
        sim.schedule(3.5, handle.cancel)  # during first episode [2,3); wait... episode at [2,3)
        sim.run(until=20.0)
        episodes = [f for f in target.fault_log if isinstance(f, PerformanceFault)]
        assert len(episodes) == 1


class TestPeriodicBackground:
    def test_gc_pause_pattern(self):
        """GC every 10s for 1s: episodes at [9,10), [19,20), ..."""
        sim, target = make_target()
        PeriodicBackground(period=10.0, duration=1.0, factor=0.0).attach(sim, target)
        sim.run(until=35.0)
        episodes = [f for f in target.fault_log if isinstance(f, PerformanceFault)]
        assert [(e.start, e.end) for e in episodes] == [(9.0, 10.0), (19.0, 20.0), (29.0, 30.0)]

    def test_phase_offsets_schedule(self):
        sim, target = make_target()
        PeriodicBackground(period=10.0, duration=1.0, phase=5.0).attach(sim, target)
        sim.run(until=20.0)
        episodes = [f for f in target.fault_log if isinstance(f, PerformanceFault)]
        assert episodes[0].start == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicBackground(period=0.0, duration=0.0)
        with pytest.raises(ValueError):
            PeriodicBackground(period=5.0, duration=5.0)
        with pytest.raises(ValueError):
            PeriodicBackground(period=5.0, duration=1.0, factor=-1.0)
        with pytest.raises(ValueError):
            PeriodicBackground(period=5.0, duration=1.0, phase=-1.0)


class TestIntermittentOffline:
    def test_stall_is_full(self):
        sim, target = make_target()
        IntermittentOffline(Fixed(5.0), Fixed(2.0)).attach(sim, target, random.Random(0))
        rates = []

        def probe():
            yield sim.timeout(6.0)  # inside first stall [5, 7)
            rates.append(target.effective_rate)

        sim.process(probe())
        sim.run(until=8.0)
        assert rates == [0.0]


class TestInterferenceLoad:
    def test_share_reduces_rate(self):
        sim, target = make_target()
        InterferenceLoad(share=0.5, at=2.0, duration=3.0).attach(sim, target)
        rates = []

        def probe():
            yield sim.timeout(3.0)
            rates.append(target.effective_rate)
            yield sim.timeout(4.0)
            rates.append(target.effective_rate)

        sim.process(probe())
        sim.run()
        assert rates == [5.0, 10.0]

    def test_permanent_hog(self):
        sim, target = make_target()
        InterferenceLoad(share=0.9).attach(sim, target)
        sim.run()
        assert target.effective_rate == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceLoad(share=1.0)
        with pytest.raises(ValueError):
            InterferenceLoad(share=0.5, at=-1.0)
        with pytest.raises(ValueError):
            InterferenceLoad(share=0.5, duration=0.0)


class TestInjectorHandle:
    def test_cancel_without_restore_keeps_applied_factors(self):
        sim, target = make_target()
        handle = StaticSkew(0.5).attach(sim, target)
        sim.run(until=1.0)
        handle.cancel(restore=False)
        assert target.effective_rate == 5.0

    def test_unique_sources_per_injector(self):
        a, b = StaticSkew(0.5), StaticSkew(0.5)
        assert a.source != b.source


class TestAttachAll:
    def test_independent_processes_per_target(self):
        sim = Simulator()
        disks = [DegradableServer(sim, f"disk{i}", 10.0) for i in range(3)]
        injector = TransientStutter(Uniform(1.0, 5.0), Fixed(1.0), Fixed(0.5))
        handles = injector.attach_all(sim, disks, random.Random(0))
        assert len(handles) == 3
        sim.run(until=20.0)
        starts = [
            [f.start for f in d.fault_log if isinstance(f, PerformanceFault)] for d in disks
        ]
        # Episodes drawn from one shared stream: schedules must differ.
        assert len({tuple(s) for s in starts}) > 1


class TestInjectorAnnouncements:
    """Attach/cancel publish ``injector-event`` records on the bus.

    The hybrid engine's fluid segments must never span an un-announced
    rate change; these records are how an injector warns listeners that
    it is about to start (attach) or stop (cancel) acting on a target.
    """

    def make_watched_target(self, rate=10.0, name="disk0"):
        from repro.core.system import System

        system = System()
        target = DegradableServer(system, name, rate)
        records = []
        system.telemetry.subscribe_all(records.append)
        return system, target, records

    def events(self, records):
        from repro.sim.trace import INJECTOR_EVENT

        return [r for r in records if r.kind == INJECTOR_EVENT]

    def test_attach_is_announced(self):
        system, target, records = self.make_watched_target()
        injector = StaticSkew(0.5)
        injector.attach(system, target)
        events = self.events(records)
        assert len(events) == 1
        assert events[0].subject == "disk0"
        assert events[0].detail["action"] == "attach"
        assert events[0].detail["source"] == injector.source

    def test_cancel_announces_before_restoring(self):
        system, target, records = self.make_watched_target()
        handle = StaticSkew(0.5).attach(system, target)
        system.run(until=1.0)
        assert target.effective_rate == 5.0
        records.clear()
        handle.cancel(restore=True)
        kinds = [r.kind for r in records]
        events = self.events(records)
        assert len(events) == 1
        assert events[0].detail["action"] == "cancel"
        assert events[0].detail["restore"] is True
        # The announcement precedes the clear_slowdown state-change, so
        # a fluid listener interrupts before the rate actually moves.
        assert kinds.index(events[0].kind) < len(kinds) - 1
        assert target.effective_rate == 10.0

    def test_silent_without_listeners(self):
        # No bus subscriber: the announcement short-circuits on wants().
        from repro.core.system import System

        system = System()
        target = DegradableServer(system, "disk0", 10.0)
        StaticSkew(0.5).attach(system, target)  # must not raise
