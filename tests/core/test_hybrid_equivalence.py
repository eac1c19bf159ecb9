"""Equivalence suite: the hybrid engine must match the discrete engine.

The hybrid runner's whole value proposition is that fluid fast-forwarding
between fault transitions is *exact*, not approximate: at any size both
engines can run, ``InvariantOracle.check_equivalence`` must find no
difference: every count exact, every work total, member's work and
sorted latency to float noise.  These tests drive that claim across
workloads, scenario families and policies at stock sizes, plus the two
properties the scale path leans on (digest-determinism of reruns, and
graceful handling of rate changes nobody announced).

Marked ``hybrid``; the full matrix is additionally ``slow``, so the fast
tier runs the one-family subset and CI's hybrid step runs every case.
"""

from dataclasses import replace

import pytest

from repro.core.hybrid import (
    HybridInfeasible,
    HybridRunner,
    run_scenario_hybrid,
    scale_scenario,
    scale_workload,
)
from repro.faults import campaign
from repro.faults.model import ComponentState
from repro.sim.trace import COMPLETION, SPEC_VIOLATION, STATE_CHANGE

pytestmark = pytest.mark.hybrid

POLICIES = ("fixed-timeout", "adaptive-timeout", "retry-backoff",
            "hedged", "stutter-aware")
FAMILIES = ("magnitude", "onset", "duration", "correlated", "failstop")


def _assert_equivalent(discrete, hybrid):
    assert campaign.InvariantOracle().check_equivalence(discrete, hybrid) == []
    assert not discrete.violations and not hybrid.violations


def _case(workload_name, family, policy, index=0):
    workload = campaign.WORKLOADS[workload_name]
    scenario = campaign.generate_scenario(workload, family, 7, index)
    discrete = campaign.run_scenario(workload, scenario, policy)
    hybrid = run_scenario_hybrid(workload, scenario, policy)
    return discrete, hybrid


class TestEquivalenceFast:
    """One family, every policy, both workloads -- the CI subset."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", ("raid10", "dht"))
    def test_magnitude_family(self, workload, policy):
        discrete, hybrid = _case(workload, "magnitude", policy)
        _assert_equivalent(discrete, hybrid)


@pytest.mark.slow
class TestEquivalenceFull:
    """Every family on two sentinel policies, both workloads."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("policy", ("fixed-timeout", "stutter-aware"))
    @pytest.mark.parametrize("workload", ("raid10", "dht"))
    def test_family_policy(self, workload, family, policy):
        discrete, hybrid = _case(workload, family, policy)
        _assert_equivalent(discrete, hybrid)


class TestScalePathProperties:
    def test_same_seed_rerun_is_digest_identical(self):
        workload = scale_workload(campaign.WORKLOADS["dht"], 20_000)
        scenario = scale_scenario(workload, "magnitude", 7, 0)
        first = run_scenario_hybrid(workload, scenario, "fixed-timeout")
        second = run_scenario_hybrid(workload, scenario, "fixed-timeout")
        assert first.digest() == second.digest()
        assert not first.violations

    def test_infeasible_workload_raises_by_name(self):
        workload = campaign.WORKLOADS["dht"]
        # Arrivals tighter than the nominal service time break the
        # fluid-exactness precondition; the engine must refuse loudly
        # rather than silently approximate.
        crowded = replace(workload, gap=workload.expected_service / 10.0)
        scenario = campaign.generate_scenario(crowded, "magnitude", 7, 0)
        with pytest.raises(HybridInfeasible):
            run_scenario_hybrid(crowded, scenario, "fixed-timeout")


class TestEngineRecord:
    """``run_scenario`` names the engine that ran, and why it fell back."""

    def test_infeasible_hybrid_request_runs_discrete_by_name(self):
        workload = campaign.WORKLOADS["surge"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        fell_back = campaign.run_scenario(workload, scenario, "fixed-timeout",
                                          engine="hybrid")
        discrete = campaign.run_scenario(workload, scenario, "fixed-timeout")
        assert fell_back.engine == discrete.engine == "discrete"
        assert "arrival spacing" in fell_back.fallback
        assert discrete.fallback is None
        assert fell_back.digest() == discrete.digest()
        assert not fell_back.violations
        assert fell_back.execution() == {
            "discrete_requests": discrete.n_requests, "engine": "discrete",
            "fallback": fell_back.fallback,
        }
        assert discrete.discrete_requests == discrete.n_requests

    def test_feasible_hybrid_request_runs_hybrid(self):
        workload = campaign.WORKLOADS["surge"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        outcome = campaign.run_scenario(workload, scenario, "no-mitigation",
                                        engine="hybrid")
        assert outcome.engine == "hybrid" and outcome.fallback is None
        assert not outcome.violations

    def test_hybrid_outcome_counts_its_discrete_requests(self):
        """The requests the runner's discrete engine simulated; like the
        engine and the fallback, no part of the digest."""
        workload = campaign.WORKLOADS["raid10"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        runner = HybridRunner(workload, scenario, "stutter-aware")
        outcome = runner.run()
        assert 0 < outcome.discrete_requests == len(runner.engine.requests)
        assert outcome.discrete_requests < outcome.n_requests
        relabelled = replace(outcome, discrete_requests=outcome.n_requests,
                             engine="discrete")
        assert relabelled.digest() == outcome.digest()

    def test_runner_refuses_an_infeasible_pair_when_built(self):
        workload = campaign.WORKLOADS["surge"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        with pytest.raises(HybridInfeasible, match="arrival spacing"):
            HybridRunner(workload, scenario, "fixed-timeout")


class TestSaturatedEquivalence:
    """The saturated regime: 'surge' arrivals outpace service by ~25%.

    Only timer-free policies are in the exact regime there -- the fluid
    path reconstructs per-request FIFO queueing delays in closed form
    and hands the backlog across window edges.  Equivalence must hold
    to the same bar as the underloaded workloads.
    """

    @pytest.mark.parametrize("policy", ("no-mitigation", "stutter-aware"))
    @pytest.mark.parametrize("family", ("magnitude", "failstop"))
    def test_surge_fast_subset(self, family, policy):
        discrete, hybrid = _case("surge", family, policy)
        _assert_equivalent(discrete, hybrid)

    @pytest.mark.slow
    @pytest.mark.parametrize("index", (0, 1, 2))
    @pytest.mark.parametrize("policy", ("no-mitigation", "stutter-aware"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_surge_full_matrix(self, family, policy, index):
        discrete, hybrid = _case("surge", family, policy, index)
        _assert_equivalent(discrete, hybrid)

    def test_surge_uses_the_fluid_path(self):
        workload = campaign.WORKLOADS["surge"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        runner = HybridRunner(workload, scenario, "no-mitigation")
        outcome = runner.run()
        assert not outcome.violations
        # Most requests resolve analytically; the window covers the rest.
        assert runner.fluid_jobs > workload.n_requests // 4

    @pytest.mark.parametrize("policy", ("fixed-timeout", "adaptive-timeout",
                                        "retry-backoff", "hedged"))
    def test_timer_bearing_policies_stay_infeasible(self, policy):
        # Saturated ramps desync latency-driven timers from the discrete
        # engine, so timer-bearing policies must still refuse at bind.
        workload = campaign.WORKLOADS["surge"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        with pytest.raises(HybridInfeasible):
            run_scenario_hybrid(workload, scenario, policy)

    def test_saturated_scale_rerun_is_digest_identical(self):
        workload = scale_workload(campaign.WORKLOADS["surge"], 200_000)
        scenario = scale_scenario(workload, "magnitude", 7, 0)
        first = run_scenario_hybrid(workload, scenario, "no-mitigation")
        second = run_scenario_hybrid(workload, scenario, "no-mitigation")
        assert first.digest() == second.digest()
        assert not first.violations


class TestRouteProbeShadow:
    def test_raising_policy_does_not_leak_queue_depth_shadow(self):
        """The route probe's flag must die with the probe.

        ``_compute_routes`` sets ``engine.route_probe`` for the duration
        of the policy ``pick`` probe, so every backlog reads as the
        steady-state zero.  If a policy raises mid-probe and the flag
        stayed set, every later routing decision in the run would
        silently see empty queues.
        """

        class Boom(RuntimeError):
            pass

        class RaisingPolicy:
            def pick(self, request):
                raise Boom("probe failure")

        workload = campaign.WORKLOADS["raid10"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        runner = HybridRunner(workload, scenario, "stutter-aware")
        engine = runner.engine
        stutter_aware = runner.policy
        first, second = sorted(engine.groups[0])
        for __ in range(3):  # backlog on the member that wins name ties
            runner.system.components.get(first).submit(workload.work)
        runner.policy = RaisingPolicy()
        with pytest.raises(Boom):
            runner._compute_routes()
        # The flag is clear again: later picks see the real backlog.
        assert engine.route_probe is False
        assert engine.members[first].backlog == 3
        request = campaign.Request(index=0, work=workload.work,
                                   group=engine.groups[0], submitted_at=0.0)
        assert engine.pick_candidate(request) == second
        assert stutter_aware.pick(request) == second

    @pytest.mark.parametrize("policy", ["no-mitigation", "stutter-aware"])
    def test_probe_hides_real_backlog_from_picks(self, policy):
        """Inside the probe every member looks idle; outside, backlog shows.

        Both the engine's default ``pick_candidate`` and the
        stutter-aware ``pick`` read the ``route_probe`` flag themselves,
        and both must see the probe -- a pick that read a member's real
        backlog while probing would make fluid routes depend on
        transient residuals, which changes e28's and the 10^6-client
        digests.
        """
        workload = campaign.WORKLOADS["raid10"]
        scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
        runner = HybridRunner(workload, scenario, policy)
        engine = runner.engine
        first, second = sorted(engine.groups[0])
        for __ in range(3):  # backlog on the member that wins name ties
            runner.system.components.get(first).submit(workload.work)
        request = campaign.Request(index=0, work=workload.work,
                                   group=engine.groups[0], submitted_at=0.0)
        picks = (engine.pick_candidate, runner.policy.pick)
        assert [pick(request) for pick in picks] == [second, second]
        engine.route_probe = True  # what _compute_routes sets
        try:
            assert [pick(request) for pick in picks] == [first, first]
        finally:
            engine.route_probe = False
        assert runner._compute_routes()[0] == first
        assert engine.route_probe is False
        assert engine.members[first].backlog == 3


class TestUnannouncedRateChange:
    def test_rogue_slowdown_pulse_forces_a_window(self):
        """A set_slowdown nobody announced must interrupt the fluid clock.

        The telemetry tap is the hybrid runner's safety net: any
        non-completion record outside a window opens an unplanned
        discrete window at that exact instant, so a rate change applied
        behind the scenario's back is simulated, not fluid-averaged.
        """
        workload = campaign.WORKLOADS["dht"]
        quiet = campaign.Scenario(family="none", index=0, seed=0, events=())
        runner = HybridRunner(workload, quiet, "fixed-timeout")
        victim = runner.members[0]
        span = workload.n_requests * workload.gap
        runner.system.call_at(0.40 * span, victim.set_slowdown, "rogue", 0.25)
        runner.system.call_at(0.45 * span, victim.clear_slowdown, "rogue")
        outcome = runner.run()
        outcome.violations.extend(campaign.InvariantOracle().check(outcome))
        assert not outcome.violations
        assert outcome.n_requests == workload.n_requests
        # The empty scenario planned zero windows; the pulse opened one.
        assert runner.windows_run >= 1

    def test_quiet_scenario_stays_fully_fluid(self):
        workload = campaign.WORKLOADS["dht"]
        quiet = campaign.Scenario(family="none", index=0, seed=0, events=())
        runner = HybridRunner(workload, quiet, "fixed-timeout")
        outcome = runner.run()
        outcome.violations.extend(campaign.InvariantOracle().check(outcome))
        assert not outcome.violations
        assert runner.windows_run == 0
        assert runner.fluid_jobs == workload.n_requests


#: The 2,000-request raid10 workload: magnitude scenario 0 stutters d0
#: (its group's name-first route) and scenario 1 stutters d1 (off the
#: route), each from 9 s to 39 s, so 1,000 arrivals fall inside.
PARKING = replace(campaign.WORKLOADS["raid10"], n_requests=2000)


def _magnitude(index):
    return campaign.generate_scenario(PARKING, "magnitude", 7, index)


class _ClosesLogged(HybridRunner):
    """A runner that notes each window close: its instant and every
    member's (state, backlog) then."""

    def __init__(self, *args):
        super().__init__(*args)
        self.closes = []

    def _reseed(self):
        self.closes.append((self.system.now, {
            name: (member.state, member.backlog)
            for name, member in zip(self.names, self.members)
        }))
        super()._reseed()

    def parked(self, name):
        """(instant, backlog) of each close that left ``name`` DEGRADED."""
        return [(when, members[name][1]) for when, members in self.closes
                if members[name][0] is ComponentState.DEGRADED]


def _run_against_discrete(runner):
    """Run ``runner`` and assert it matches the discrete engine."""
    discrete = campaign.run_scenario(runner.workload, runner.scenario,
                                     runner.policy.name)
    outcome = runner.run()
    outcome.violations.extend(campaign.InvariantOracle().check(outcome))
    _assert_equivalent(discrete, outcome)
    return outcome


class TestParkedDegradedEras:
    """A degraded member that routing avoids is parked, and runs fluid.

    The window around a stutter's onset may close while the member is
    still DEGRADED, provided it is idle and no group's zero-queue route
    probe picks it; the restore gets a window of its own.  Every case
    must still match the discrete engine.
    """

    @pytest.mark.parametrize("policy", POLICIES + ("no-mitigation",))
    def test_a_stutter_off_the_route_runs_fluid(self, policy):
        scenario = _magnitude(1)
        assert [e.component for e in scenario.events] == ["d1"]
        runner = _ClosesLogged(PARKING, scenario, policy)
        outcome = _run_against_discrete(runner)
        assert runner.parked("d1")
        assert outcome.discrete_requests <= 0.05 * PARKING.n_requests

    def test_stutter_aware_parks_its_route_once_the_detector_flags(self):
        scenario = _magnitude(0)
        assert [e.component for e in scenario.events] == ["d0"]
        runner = _ClosesLogged(PARKING, scenario, "stutter-aware")
        flags = []

        def watch(record):
            if (record.kind == SPEC_VIOLATION
                    and record.detail.get("source") == "detector"):
                flags.append(record.time)

        runner.system.telemetry.subscribe("d0", watch)
        outcome = _run_against_discrete(runner)
        parked = runner.parked("d0")
        assert flags and parked
        assert scenario.events[0].onset < flags[0] <= parked[0][0]
        assert outcome.discrete_requests <= 0.05 * PARKING.n_requests

    def test_a_timer_policy_cannot_park_its_route(self):
        # Under fixed-timeout d0 stays its group's route by name, so
        # the window stays open from the onset until after the restore.
        runner = _ClosesLogged(PARKING, _magnitude(0), "fixed-timeout")
        outcome = _run_against_discrete(runner)
        assert not runner.parked("d0")
        assert outcome.discrete_requests == 1010

    @pytest.mark.parametrize("policy", POLICIES + ("no-mitigation",))
    def test_a_group_stuttered_whole_stays_discrete(self, policy):
        # The benchmark soak's window 0: d0 and d1 stutter together, so
        # one of them is always its group's route.
        events = campaign.merge_soak_events([_magnitude(0), _magnitude(1)])
        assert sorted(e.component for e in events) == ["d0", "d1"]
        scenario = campaign.Scenario(family="magnitude", index=0, seed=7,
                                     events=events)
        runner = _ClosesLogged(PARKING, scenario, policy)
        outcome = _run_against_discrete(runner)
        assert not runner.parked("d0") and not runner.parked("d1")
        stutter = events[0]
        assert outcome.discrete_requests >= stutter.duration / PARKING.gap

    def test_a_busy_degraded_member_parks_only_once_its_job_completes(self):
        # Under fixed-timeout the route d0 stutters past its timeout
        # until 15 s, so work spills onto d1, whose own stutter starts at
        # 14.9 s.  Once d0 recovers it is the route again, but d1 is
        # still serving: it may park only when that job is done.
        stutter = campaign.FaultEvent
        scenario = campaign.Scenario(family="hand", index=0, seed=7, events=(
            stutter("d0", "stutter", onset=5.0, duration=10.0, factor=0.15),
            stutter("d1", "stutter", onset=14.9, duration=20.0, factor=0.3),
        ))
        runner = _ClosesLogged(PARKING, scenario, "fixed-timeout")
        restored, done = [], []

        def watch(record):
            if record.kind == STATE_CHANGE and record.subject == "d0":
                if record.detail["state"] == "ok":
                    restored.append(record.time)
            elif record.kind == COMPLETION and record.subject == "d1":
                if restored:
                    done.append(record.time)

        runner.system.telemetry.subscribe_all(watch)
        _run_against_discrete(runner)
        parked = runner.parked("d1")
        assert restored == [15.0] and done and parked
        assert restored[0] < done[0] <= parked[0][0] < 34.9
        assert all(backlog == 0 for __, backlog in parked)

    @pytest.mark.parametrize("policy", ("fixed-timeout", "stutter-aware"))
    @pytest.mark.parametrize("member", ("d0", "d1"))
    @pytest.mark.parametrize("onset, duration", [(5.0, 100.0), (60.0, 5.0)],
                             ids=["restore-past-horizon", "onset-past-horizon"])
    def test_an_edge_past_the_horizon_gets_no_window(self, onset, duration,
                                                     member, policy):
        # The stock raid10 horizon is 57.6 s; the discrete engine stops
        # there, so the hybrid engine must neither plan a window for a
        # later edge nor step past the horizon inside one.
        workload = campaign.WORKLOADS["raid10"]
        assert onset + duration > workload.horizon
        scenario = campaign.Scenario(family="hand", index=0, seed=7, events=(
            campaign.FaultEvent(member, "stutter", onset=onset,
                                duration=duration, factor=0.3),
        ))
        _run_against_discrete(_ClosesLogged(workload, scenario, policy))
