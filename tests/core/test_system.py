"""Unit tests for FailStutterSystem and the routing policies."""

import pytest

from repro.core import (
    FailStutterSystem,
    JsqRouter,
    NotificationPolicy,
    PerformanceStateRegistry,
    RoundRobinRouter,
    WeightedRouter,
)
from repro.faults import ComponentStopped, DegradableServer, PerformanceSpec
from repro.sim import Simulator

SPEC = PerformanceSpec(nominal_rate=10.0, tolerance=0.2)


def make_system(sim, n=4, router=None, spec=SPEC, **kwargs):
    servers = [DegradableServer(sim, f"s{i}", spec.nominal_rate) for i in range(n)]
    return servers, FailStutterSystem(sim, servers, spec, router=router, **kwargs)


def drive(sim, system, n_requests, work=1.0, gap=0.05):
    """Open-loop request stream; returns response times (None = failed)."""
    responses = []

    def one():
        try:
            rt = yield system.submit(work)
            responses.append(rt)
        except Exception:
            responses.append(None)

    def source():
        for __ in range(n_requests):
            sim.process(one())
            yield sim.timeout(gap)

    sim.process(source())
    sim.run(until=max(200.0, n_requests * gap * 4))
    return responses


class TestRouting:
    def test_round_robin_rotates(self):
        sim = Simulator()
        servers, system = make_system(sim, 4, RoundRobinRouter())
        for __ in range(8):
            system.submit(1.0)
        assert [s.queue_length + (1 if s.busy else 0) for s in servers] == [2, 2, 2, 2]

    def test_round_robin_skips_stopped(self):
        sim = Simulator()
        servers, system = make_system(sim, 4, RoundRobinRouter())
        servers[1].stop()
        for __ in range(6):
            system.submit(1.0)
        loads = [s.queue_length + (1 if s.busy else 0) for s in servers]
        assert loads[1] == 0
        assert sum(loads) == 6

    def test_jsq_balances_by_count(self):
        sim = Simulator()
        servers, system = make_system(sim, 3, JsqRouter())
        for __ in range(7):
            system.submit(50.0)  # long requests: none complete yet
        assert sorted(system.outstanding_count) == [2, 2, 3]

    def test_jsq_is_rate_blind(self):
        """JSQ keeps feeding a slow server as long as its count is low."""
        sim = Simulator()
        servers, system = make_system(sim, 2, JsqRouter())
        servers[1].set_slowdown("skew", 0.01)
        system.submit(10.0)  # -> s0 (tie broken by index)
        system.submit(10.0)  # -> s1 despite being 100x slower
        assert system.outstanding_count == [1, 1]

    def test_jsq_skips_stopped(self):
        sim = Simulator()
        servers, system = make_system(sim, 3, JsqRouter())
        servers[0].stop()
        for __ in range(4):
            system.submit(50.0)
        assert system.outstanding_count == [0, 2, 2]

    def test_weighted_prefers_fast_server(self):
        sim = Simulator()
        servers, system = make_system(sim, 2, WeightedRouter())
        servers[1].set_slowdown("skew", 0.1)
        # Warm up the estimators with a few completed requests.
        drive(sim, system, 30, gap=0.2)
        routed_fast = system.outstanding_count  # all drained by now
        before = [servers[0].jobs_completed, servers[1].jobs_completed]
        assert before[0] > 2 * before[1]

    def test_all_stopped_raises(self):
        sim = Simulator()
        servers, system = make_system(sim, 2, RoundRobinRouter())
        servers[0].stop()
        servers[1].stop()
        with pytest.raises(ComponentStopped):
            system.submit(1.0)


class TestMonitoring:
    def test_completions_feed_estimators(self):
        sim = Simulator()
        servers, system = make_system(sim, 2, RoundRobinRouter())
        drive(sim, system, 10, gap=0.3)
        rates = system.estimated_rates()
        assert rates["s0"] == pytest.approx(10.0, rel=0.05)
        assert rates["s1"] == pytest.approx(10.0, rel=0.05)

    def test_degraded_server_reported_to_registry(self):
        sim = Simulator()
        registry = PerformanceStateRegistry(sim, policy=NotificationPolicy.IMMEDIATE)
        servers, system = make_system(sim, 2, RoundRobinRouter(), registry=registry)
        servers[1].set_slowdown("skew", 0.3)
        drive(sim, system, 20, gap=0.3)
        assert "s1" in registry.degraded_components()
        assert "s0" not in registry.degraded_components()
        assert registry.factor_of("s1") < 0.5

    def test_stopped_server_reported(self):
        sim = Simulator()
        registry = PerformanceStateRegistry(sim, policy=NotificationPolicy.IMMEDIATE)
        servers, system = make_system(sim, 2, RoundRobinRouter(), registry=registry)
        system.submit(5.0)
        system.submit(5.0)
        sim.schedule(0.1, servers[1].stop)
        sim.run()
        assert registry.stopped_components() == ["s1"]

    def test_outstanding_accounting_returns_to_zero(self):
        sim = Simulator()
        servers, system = make_system(sim, 3, WeightedRouter())
        drive(sim, system, 15, gap=0.2)
        assert system.outstanding_work == [0.0] * 3
        assert system.outstanding_count == [0] * 3


class TestWatchdogIntegration:
    def test_stalled_server_promoted_and_routed_around(self):
        sim = Simulator()
        spec = PerformanceSpec(nominal_rate=10.0, tolerance=0.2, correctness_timeout=3.0)
        servers, system = make_system(
            sim, 3, WeightedRouter(), spec=spec, use_watchdog=True
        )
        servers[2].set_slowdown("stall", 0.0)
        responses = drive(sim, system, 40, gap=0.2)
        # The stalled server was eventually fail-stopped by the watchdog.
        assert servers[2].stopped
        # Most requests still succeeded (routed to live servers).
        succeeded = [r for r in responses if r is not None]
        assert len(succeeded) >= 35

    def test_watchdog_requires_t(self):
        sim = Simulator()
        servers = [DegradableServer(sim, "s0", 10.0)]
        with pytest.raises(ValueError):
            FailStutterSystem(sim, servers, SPEC, use_watchdog=True)


class TestPolicyComparison:
    def test_weighted_beats_round_robin_under_skew(self):
        """The headline behaviour: fail-stutter routing preserves latency
        under a performance fault that cripples fail-stop routing."""

        def run(router):
            sim = Simulator()
            servers, system = make_system(sim, 4, router)
            servers[3].set_slowdown("skew", 0.05)  # 20x slow, not dead
            responses = drive(sim, system, 100, work=1.0, gap=0.05)
            served = [r for r in responses if r is not None]
            return sum(served) / len(served)

        rr_latency = run(RoundRobinRouter())
        weighted_latency = run(WeightedRouter())
        assert weighted_latency < 0.5 * rr_latency

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FailStutterSystem(sim, [], SPEC)
        servers, system = make_system(sim, 2)
        with pytest.raises(ValueError):
            system.submit(0.0)
