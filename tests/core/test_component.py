"""Unit tests for the Component protocol, registry, and telemetry bus."""

import pytest

from repro.core import (
    SUBSTRATES,
    TELEMETRY_KINDS,
    Component,
    CompositeComponent,
    System,
    ThresholdDetector,
)
from repro.faults import (
    ComponentState,
    DegradableServer,
    PerformanceSpec,
    StaticSkew,
)
from repro.sim import Simulator
from repro.sim.trace import (COMPLETION, INJECTOR_EVENT, SPEC_VIOLATION,
                             STATE_CHANGE)

SPEC = PerformanceSpec(nominal_rate=10.0, tolerance=0.2)


class TestTelemetryBus:
    def test_idle_bus_drops_records(self):
        sim = System()
        assert sim.telemetry.wants("x") is False
        assert sim.telemetry.emit(COMPLETION, "x", (1.0, 1.0)) is None

    def test_subscriber_receives_only_its_subject(self):
        sim = System()
        seen = []
        sim.telemetry.subscribe("a", seen.append)
        assert sim.telemetry.wants("a") and not sim.telemetry.wants("b")
        sim.telemetry.completion("a", 2.0, 1.0)
        sim.telemetry.completion("b", 2.0, 1.0)
        assert len(seen) == 1
        assert seen[0].kind == COMPLETION
        assert seen[0].subject == "a"
        assert seen[0].detail == (2.0, 1.0)

    def test_tap_receives_everything(self):
        sim = System()
        seen = []
        sim.telemetry.subscribe_all(seen.append)
        sim.telemetry.completion("a", 1.0, 1.0)
        sim.telemetry.spec_violation("b", observed=1.0, threshold=8.0)
        assert [r.kind for r in seen] == [COMPLETION, SPEC_VIOLATION]
        assert seen[1].detail["threshold"] == 8.0

    def test_observer_receives_work_and_duration(self):
        sim = System()
        seen = []
        sim.telemetry.observe("a", lambda work, duration: seen.append(
            (work, duration)))
        assert sim.telemetry.wants("a") and not sim.telemetry.wants("b")
        sim.telemetry.completion("a", 2.0, 1.0)
        sim.telemetry.completion("b", 9.0, 9.0)
        sim.telemetry.completion("a", 3.0, 0.5)
        assert seen == [(2.0, 1.0), (3.0, 0.5)]

    def test_observers_alone_build_no_record(self, monkeypatch):
        import repro.core.component as component_module

        built = []

        def counting_record(*args):
            built.append(args)
            raise AssertionError("a record was built for nobody")

        monkeypatch.setattr(component_module, "TraceRecord", counting_record)
        sim = System()
        seen = []
        sim.telemetry.observe("a", lambda work, duration: seen.append(work))
        sim.telemetry.completion("a", 2.0, 1.0)
        assert sim.telemetry.emit(STATE_CHANGE, "a", {"state": "ok"}) is None
        assert seen == [2.0] and built == []

    def test_subscriber_still_receives_completion_records(self):
        sim = System()
        observed, records = [], []
        sim.telemetry.observe("a", lambda work, duration: observed.append(work))
        sim.telemetry.subscribe("a", records.append)
        sim.telemetry.completion("a", 2.0, 1.0)
        assert observed == [2.0]
        assert [(r.kind, r.subject, r.detail) for r in records] == [
            (COMPLETION, "a", (2.0, 1.0))]

    def test_tap_sees_the_violation_before_the_completion_that_tripped_it(self):
        sim = System()
        DegradableServer(sim, "s0", SPEC.nominal_rate, spec=SPEC)
        binding = sim.watch("s0")
        seen = []
        sim.telemetry.subscribe_all(seen.append)
        # Three completions at a third of the spec rate: the third trips
        # the detector (min_samples=3).
        for __ in range(3):
            sim.telemetry.completion("s0", 1.0, 0.3)
        assert binding.faulty and binding.violations == 1
        kinds = [r.kind for r in seen]
        assert kinds == [COMPLETION, COMPLETION, SPEC_VIOLATION, COMPLETION]
        assert seen[2].detail["source"] == "detector"

    def test_kinds_are_the_public_tuple(self):
        assert set(TELEMETRY_KINDS) == {COMPLETION, SPEC_VIOLATION, STATE_CHANGE,
                                        INJECTOR_EVENT}


class TestComponentRegistry:
    def test_device_self_registers_at_construction(self):
        sim = System()
        server = DegradableServer(sim, "s0", 10.0, spec=SPEC)
        assert sim.components.get("s0") is server
        assert "s0" in sim.components
        assert len(sim.components) == 1
        assert sim.components.names() == ["s0"]
        assert list(sim.components) == [server]
        assert isinstance(server, Component)

    def test_plain_simulator_pays_nothing(self):
        sim = Simulator()
        server = DegradableServer(sim, "s0", 10.0)
        assert not hasattr(sim, "components")
        assert server._telemetry is None

    def test_duplicate_name_rejected(self):
        sim = System()
        DegradableServer(sim, "s0", 10.0)
        with pytest.raises(ValueError, match="already registered"):
            DegradableServer(sim, "s0", 10.0)

    def test_unknown_name_lists_known(self):
        sim = System()
        DegradableServer(sim, "s0", 10.0)
        with pytest.raises(KeyError, match="s0"):
            sim.components.get("nope")

    def test_protocol_enforced_structurally(self):
        sim = System()
        with pytest.raises(TypeError, match="Component"):
            sim.components.register(object())

    def test_by_substrate(self):
        sim = System()
        DegradableServer(sim, "s0", 10.0)
        assert sim.components.by_substrate("core") == [sim.components.get("s0")]
        assert sim.components.by_substrate("storage") == []
        with pytest.raises(ValueError):
            sim.components.by_substrate("quantum")

    def test_substrate_vocabulary(self):
        assert set(SUBSTRATES) == {"storage", "network", "processor", "cluster", "core"}

    def test_inject_by_name(self):
        sim = System()
        server = DegradableServer(sim, "s0", 10.0)
        handle = sim.inject("s0", StaticSkew(0.5))
        sim.run()
        assert server.effective_rate == 5.0
        handle.cancel()
        assert server.effective_rate == 10.0


class TestDetectorBinding:
    def test_watch_flags_degraded_component(self):
        sim = System()
        server = DegradableServer(sim, "s0", SPEC.nominal_rate, spec=SPEC)
        binding = sim.watch("s0")
        assert isinstance(binding.detector, ThresholdDetector)
        violations = []
        sim.telemetry.subscribe_all(
            lambda r: violations.append(r) if r.kind == SPEC_VIOLATION else None
        )
        server.set_slowdown("fault", 0.3)

        def load():
            for __ in range(12):
                yield server.submit(1.0)

        sim.run(until=sim.process(load()))
        assert binding.faulty
        assert binding.violations >= 1
        assert any(r.subject == "s0" for r in violations)

    def test_healthy_component_not_flagged(self):
        sim = System()
        server = DegradableServer(sim, "s0", SPEC.nominal_rate, spec=SPEC)
        binding = sim.watch("s0")

        def load():
            for __ in range(12):
                yield server.submit(1.0)

        sim.run(until=sim.process(load()))
        assert not binding.faulty
        assert binding.violations == 0

    def test_watch_without_spec_needs_explicit_detector(self):
        sim = System()

        class Bare(CompositeComponent):
            def __init__(self):
                self._init_component(sim, "bare", [])

        Bare()
        with pytest.raises(ValueError, match="no spec"):
            sim.watch("bare")
        assert sim.watch("bare", ThresholdDetector(SPEC)) is not None


class TestCompositeComponent:
    def make(self, sim, n=3):
        children = [DegradableServer(sim, f"c{i}", 10.0, spec=SPEC) for i in range(n)]

        class Box(CompositeComponent):
            substrate = "core"

            def __init__(self):
                self._init_component(
                    sim, "box", children, PerformanceSpec(10.0 * n)
                )

        return Box(), children

    def test_fanout_and_aggregation(self):
        sim = System()
        box, children = self.make(sim)
        assert box.state is ComponentState.OK
        assert box.delivered_rate() == 30.0
        box.set_slowdown("skew", 0.5)
        assert all(c.effective_rate == 5.0 for c in children)
        assert box.state is ComponentState.DEGRADED
        assert box.delivered_rate() == 15.0
        box.clear_slowdown("skew")
        assert box.state is ComponentState.OK
        assert box.delivered_rate() == 30.0

    def test_stop_fans_out_and_aggregates(self):
        sim = System()
        box, children = self.make(sim)
        children[0].stop()
        assert box.state is ComponentState.DEGRADED
        assert not box.stopped
        assert box.delivered_rate() == 20.0  # live children only
        box.stop()
        assert box.stopped
        assert box.state is ComponentState.STOPPED

    def test_state_change_telemetry(self):
        sim = System()
        box, __ = self.make(sim)
        seen = []
        sim.telemetry.subscribe("box", seen.append)
        box.set_slowdown("skew", 0.1)
        kinds = [r.kind for r in seen]
        assert STATE_CHANGE in kinds
        assert SPEC_VIOLATION in kinds  # 3 MB/s delivered < 24 threshold

    def test_dynamic_children(self):
        sim = System()
        a = DegradableServer(sim, "a", 10.0)
        b = DegradableServer(sim, "b", 10.0)
        members = [a]

        class Dyn(CompositeComponent):
            def __init__(self):
                self._init_component(sim, "dyn", [], PerformanceSpec(10.0))

            def _component_children(self):
                return members

        dyn = Dyn()
        assert dyn.delivered_rate() == 10.0
        members.append(b)
        assert dyn.delivered_rate() == 20.0


class TestSystem:
    def test_trace_attaches_later(self):
        sim = System()
        DegradableServer(sim, "s0", 10.0, spec=SPEC)
        seen = []
        sim.telemetry.subscribe_all(seen.append)
        sim.components.get("s0").stop()
        assert [r.kind for r in seen].count(STATE_CHANGE) == 1

    def test_end_to_end_inject_and_watch_by_name(self):
        """The README story: one name, any fault, any detector."""
        sim = System()
        server = DegradableServer(sim, "d0", SPEC.nominal_rate, spec=SPEC)
        sim.inject("d0", StaticSkew(0.25, at=1.0))
        binding = sim.watch("d0")

        def load():
            for __ in range(30):
                yield server.submit(1.0)

        sim.run(until=sim.process(load()))
        assert binding.faulty
