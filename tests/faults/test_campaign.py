"""The fault-campaign engine: scenarios, policies, and the oracle.

The oracle tests plant deliberately misbehaving policies -- one that
drops requests, one that fabricates results, one that carries hidden
state across runs -- and assert each invariant catches its culprit.
"""

import math
from dataclasses import replace

import pytest

from repro.faults.campaign import (
    FAMILIES,
    WORKLOADS,
    CampaignEngine,
    CampaignWorkload,
    FaultEvent,
    InvariantOracle,
    generate_scenario,
    generate_scenarios,
    run_campaign,
    run_scenario,
)
from repro.policy import POLICIES, FixedTimeoutPolicy, MitigationPolicy, make_policy
from repro.sim.metrics import LatencySummary

pytestmark = pytest.mark.campaign

# A shrunk raid10: plenty of queueing, a fraction of the runtime.
FAST = CampaignWorkload(
    name="raid10", substrate="storage", prefix="d",
    n_pairs=2, rate=5.5, work=0.5, gap=0.03, n_requests=80,
)


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        a = generate_scenario(FAST, "magnitude", seed=7, index=0)
        b = generate_scenario(FAST, "magnitude", seed=7, index=0)
        assert a == b

    def test_different_seeds_differ(self):
        drawn = {
            generate_scenario(FAST, "magnitude", seed=s, index=0).events
            for s in range(8)
        }
        assert len(drawn) > 1

    def test_every_family_generates_valid_events(self):
        names = {n for pair in FAST.group_names() for n in pair}
        for family in FAMILIES:
            for scenario in generate_scenarios(FAST, family, seed=3, count=4):
                assert scenario.events, family
                for event in scenario.events:
                    assert event.component in names
                    assert 0 <= event.onset <= FAST.span

    def test_correlated_hits_one_whole_pair(self):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        hit = frozenset(e.component for e in scenario.events)
        assert hit in {frozenset(pair) for pair in FAST.group_names()}

    def test_failstop_family_is_failstop_only(self):
        for scenario in generate_scenarios(FAST, "failstop", seed=7, count=4):
            assert all(e.kind == "fail-stop" for e in scenario.events)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="gc-pause"):
            generate_scenario(FAST, "gc-pause", seed=7, index=0)

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("d0", "flaky", onset=1.0)
        with pytest.raises(ValueError):
            FaultEvent("d0", "stutter", onset=1.0, duration=0.0, factor=0.5)


class TestPoliciesUnderTheOracle:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_roster_policy_passes_every_family(self, policy, family):
        scenario = generate_scenario(FAST, family, seed=7, index=0)
        outcome = run_scenario(FAST, scenario, policy)
        assert outcome.violations == []
        assert outcome.unresolved_requests == 0
        assert len(outcome.latencies) == FAST.n_requests - outcome.failed_requests

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_rerun_is_byte_identical(self, policy):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        first = run_scenario(FAST, scenario, policy)
        second = run_scenario(FAST, scenario, policy)
        assert first.digest() == second.digest()

    def test_stutter_aware_consumes_spec_violations(self):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        policy = make_policy("stutter-aware")
        run_scenario(FAST, scenario, policy)
        assert policy.violations_seen > 0

    def test_make_policy_unknown_name(self):
        with pytest.raises(KeyError, match="carrier-pigeon"):
            make_policy("carrier-pigeon")


class _BlackHolePolicy(MitigationPolicy):
    """Violates no-hang: accepts requests and never routes them."""

    name = "black-hole"

    def start(self, request):
        pass


class _FabricatingPolicy(MitigationPolicy):
    """Violates work conservation: claims success no server earned."""

    name = "fabricator"

    def start(self, request):
        # Resolve the request as claimed without issuing an attempt.
        engine = self.engine
        request.resolved = True
        request.latency = 0.0
        engine.claimed_work += request.work
        engine.latencies.append(0.0)


class _StatefulPolicy(MitigationPolicy):
    """Violates seed determinism: routing depends on cross-run state."""

    name = "stateful"
    _calls = 0  # class-level: deliberately survives across runs

    def pick(self, request):
        type(self)._calls += 1
        group = request.group
        return group[type(self)._calls % len(group)]


def _clean_outcome():
    scenario = generate_scenario(FAST, "magnitude", seed=7, index=0)
    outcome = run_scenario(FAST, scenario, "fixed-timeout")
    assert outcome.violations == []
    return outcome


class TestInvariantOracle:
    def test_no_hang_detects_dropped_requests(self):
        scenario = generate_scenario(FAST, "failstop", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, _BlackHolePolicy)
        assert any("no-hang" in v for v in outcome.violations)

    def test_work_conservation_detects_fabricated_results(self):
        scenario = generate_scenario(FAST, "failstop", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, _FabricatingPolicy)
        assert any("work-conservation" in v for v in outcome.violations)

    def test_determinism_check_detects_hidden_state(self):
        # Odd request count, so the stateful policy's leaked counter
        # changes parity between runs and actually shifts the routing.
        workload = replace(FAST, n_requests=81)
        scenario = generate_scenario(workload, "magnitude", seed=7, index=0)
        first = run_scenario(workload, scenario, _StatefulPolicy)
        second = run_scenario(workload, scenario, _StatefulPolicy)
        violations = InvariantOracle().check_determinism(first, second)
        assert violations and "determinism" in violations[0]

    def test_determinism_check_refuses_a_rerun_on_another_engine(self):
        # The digest leaves the engine out, so only the engine check
        # can tell these two outcomes of one run apart.
        workload = replace(WORKLOADS["raid10"], n_requests=200)
        scenario = generate_scenario(workload, "magnitude", seed=7, index=0)
        first = run_scenario(workload, scenario, "no-mitigation",
                             engine="hybrid")
        second = run_scenario(workload, scenario, "no-mitigation",
                              engine="hybrid")
        assert first.engine == "hybrid"
        assert first.digest() == second.digest()
        second.engine = "discrete"
        assert InvariantOracle().check_determinism(first, second) == [
            "determinism: rerun took the discrete engine after a hybrid "
            "first run"
        ]

    def test_clean_run_has_no_violations(self):
        scenario = generate_scenario(FAST, "magnitude", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, "fixed-timeout")
        assert InvariantOracle().check(outcome) == []

    def test_equivalence_accepts_float_noise_on_a_large_work_total(self):
        # 1e-8 on 1e5 is 1e-13 relative: what summing the same work in
        # another order leaves, and no divergence.
        outcome = replace(_clean_outcome(), issued_work=1e5, completed_work=1e5)
        noisy = replace(outcome, issued_work=1e5 + 1e-8,
                        completed_work=1e5 - 1e-8)
        assert noisy.issued_work != outcome.issued_work
        assert InvariantOracle().check_equivalence(outcome, noisy) == []

    def test_equivalence_refuses_runs_one_request_apart_by_name(self):
        scenario = generate_scenario(FAST, "magnitude", seed=7, index=0)
        reference = run_scenario(FAST, scenario, "fixed-timeout")
        longer = run_scenario(replace(FAST, n_requests=81), scenario,
                              "fixed-timeout")
        violations = InvariantOracle().check_equivalence(reference, longer)
        assert violations[0] == "equivalence: n_requests 81 != reference 80"

    def test_equivalence_refuses_response_times_moved_by_a_microsecond(self):
        outcome = _clean_outcome()
        latencies = outcome.latencies.copy()
        latencies[0] += 1e-6
        latencies[1] -= 1e-6
        moved = replace(outcome, latencies=latencies)
        # Mean and p99 cannot tell the two runs apart...
        before = LatencySummary.of(outcome.latencies)
        after = LatencySummary.of(latencies)
        assert after.mean == pytest.approx(before.mean, rel=1e-12)
        assert after.p99 == before.p99
        # ...the sorted response times can.
        violations = InvariantOracle().check_equivalence(outcome, moved)
        assert len(violations) == 1
        assert violations[0].startswith("equivalence: sorted latency ")

    def test_equivalence_refuses_work_served_by_the_wrong_member(self):
        outcome = _clean_outcome()
        first, second = sorted(outcome.server_work)[:2]
        moved = dict(outcome.server_work)
        moved[first] -= FAST.work
        moved[second] += FAST.work
        violations = InvariantOracle().check_equivalence(
            outcome, replace(outcome, server_work=moved))
        assert violations == [
            f"equivalence: server_work[{name}] {float(moved[name])} "
            f"!= reference {float(outcome.server_work[name])}"
            for name in (first, second)
        ]


class _TimerSpy(FixedTimeoutPolicy):
    """Fixed timeout that logs each timer it receives."""

    def bind(self, engine):
        super().bind(engine)
        self.fired = []

    def on_timer(self, request):
        self.fired.append((self.engine.now, request.index))
        super().on_timer(request)


def _engine(policy):
    engine = CampaignEngine(FAST, policy)
    return engine.system, engine


class TestPolicyTimers:
    """A request is its own policy timer, and the timer dies with it."""

    def test_claimed_request_never_reaches_on_timer(self):
        sim, engine = _engine(_TimerSpy())
        engine._submit_one(0)
        request = engine.requests[0]
        assert request.callbacks is not None  # the timeout is pending
        sim.run(until=2 * FAST.expected_service)
        assert request.resolved and not request.failed
        assert request.callbacks is None
        # Only the dead timer is left, and peek() drops it.
        assert len(sim._queue) == 1
        assert sim.peek() == math.inf
        assert sim._queue == []
        sim.run()
        assert engine.policy.fired == []

    def test_given_up_request_never_reaches_on_timer(self):
        sim, engine = _engine(_TimerSpy())
        engine._submit_one(0)
        request = engine.requests[0]
        for name in request.group:
            engine.members[name].stop()
        sim.run()
        assert request.resolved and request.failed
        assert request.callbacks is None
        assert engine.policy.fired == []

    def test_refused_arms_raise_by_name(self):
        sim, engine = _engine(MitigationPolicy())
        engine._submit_one(0)
        pending = engine.requests[0]
        engine.arm_timer(pending, 1.0)
        engine._submit_one(1)
        resolved = engine.requests[1]
        engine.give_up(resolved)
        engine._submit_one(2)
        fresh = engine.requests[2]
        before = (list(sim._queue), sim._seq)
        with pytest.raises(ValueError, match="already has a pending timer"):
            engine.arm_timer(pending, 1.0)
        with pytest.raises(ValueError, match="is resolved"):
            engine.arm_timer(resolved, 1.0)
        for delay in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="delay must be >= 0"):
                engine.arm_timer(fresh, delay)
        # A refused arm schedules nothing.
        assert (list(sim._queue), sim._seq) == before
        assert resolved.callbacks is None and fresh.callbacks is None

    def test_timed_out_request_rearms_from_on_timer(self):
        policy = _TimerSpy(max_attempts=3)
        sim, engine = _engine(policy)
        for name in engine.groups[0]:
            engine.members[name].set_slowdown("test", 0.01)
        engine._submit_one(0)
        sim.run()
        timeout = policy.base_timeout
        assert [index for _t, index in policy.fired] == [0, 0, 0]
        assert [t for t, _index in policy.fired] == pytest.approx(
            [timeout, 2 * timeout, 3 * timeout])
        request = engine.requests[0]
        assert request.attempts == 3 and request.resolved


class TestCampaignSweep:
    def test_oracle_runs_on_every_scenario_and_scorecard_shape(self):
        result = run_campaign(
            seed=7,
            workloads=("raid10",),
            families=("correlated", "failstop"),
            scenarios_per_family=1,
            n_requests=80,
        )
        # families x policies cells, one outcome per (scenario, policy).
        assert len(result.table()) == 2 * len(POLICIES)
        assert len(result.outcomes) == 2 * len(POLICIES)
        assert result.violations == []
        table = result.table()
        assert table.column("oracle") == ["ok"] * len(table)

    def test_bad_sizes_rejected_by_name(self):
        # Refused before anything runs: no family draw, no empty scorecard.
        with pytest.raises(ValueError,
                           match="scenarios_per_family must be >= 1, got 0"):
            run_campaign(workloads=("raid10",), scenarios_per_family=0)
        with pytest.raises(ValueError, match="n_requests must be >= 1, got 0"):
            run_campaign(workloads=("raid10",), n_requests=0)

    def test_workload_roster(self):
        assert set(WORKLOADS) == {"raid10", "dht", "surge"}
        for workload in WORKLOADS.values():
            assert workload.expected_service > 0
            assert workload.horizon > workload.span
