"""Compiler layer: specs become the campaign stack's own runtime objects.

``compile_spec`` must produce a workload indistinguishable from a
hand-constructed :class:`CampaignWorkload`, its scenario factory must
defer to the *same* ``generate_scenario`` path the campaign sweep uses,
and the engine-eligibility probe must agree with the predicate the
hybrid runner actually enforces at bind time -- the verdicts in
``python -m repro list`` are promises about what ``run_scenario`` will
do.
"""

import pytest

from repro.faults import campaign
from repro.scenario import (
    FamilySpec,
    bundle,
    compile_spec,
    parse_spec,
)

pytestmark = pytest.mark.campaign


def _spec(**overrides):
    payload = {
        "kind": "scenario",
        "name": "t",
        "groups": {"substrate": "storage", "prefix": "d", "count": 2,
                   "rate": 5.5},
        "arrivals": {"work": 0.5, "gap": 0.05, "requests": 40},
    }
    payload.update(overrides)
    return parse_spec(payload)


class TestCompileSpec:
    def test_compiled_workload_matches_hand_construction(self):
        compiled = compile_spec(_spec())
        assert compiled.workload == campaign.CampaignWorkload(
            name="t", substrate="storage", prefix="d",
            n_pairs=2, rate=5.5, work=0.5, gap=0.05, n_requests=40,
        )
        assert compiled.name == "t"
        assert compiled.digest() == compiled.spec.digest()

    def test_bundled_scenarios_compile_to_the_live_registry(self):
        # bundle.scenarios() and campaign.WORKLOADS load independently
        # from the same files; their workloads must be equal.
        for name, compiled in bundle.scenarios().items():
            assert compiled.workload == campaign.WORKLOADS[name]

    def test_family_spec_is_rejected(self):
        spec = parse_spec({
            "kind": "family", "name": "f", "target": "member",
            "fault": "fail-stop", "onset": {"fixed": 0.2, "of": "span"},
        })
        with pytest.raises(TypeError) as err:
            compile_spec(spec)
        assert "compile_family" in str(err.value)

    def test_non_spec_is_rejected(self):
        with pytest.raises(TypeError):
            compile_spec({"kind": "scenario"})


class TestScenarioFactory:
    def test_explicit_events_pin_the_schedule(self):
        compiled = compile_spec(_spec(faults={"events": [
            {"component": "d0", "fault": "stutter", "onset": 0.4,
             "duration": 0.8, "factor": 0.3},
            {"component": "d3", "fault": "fail-stop", "onset": 1.0},
        ]}))
        scenario = compiled.scenario(seed=3, index=5)
        assert scenario.events == (
            campaign.FaultEvent("d0", "stutter", onset=0.4, duration=0.8,
                                factor=0.3),
            campaign.FaultEvent("d3", "fail-stop", onset=1.0),
        )
        assert scenario.family == "t"
        assert (scenario.seed, scenario.index) == (3, 5)

    def test_family_reference_defers_to_generate_scenario(self):
        compiled = compile_spec(_spec(faults={"family": "magnitude"}))
        assert compiled.scenario(seed=11, index=2) == (
            campaign.generate_scenario(compiled.workload, "magnitude", 11, 2)
        )

    def test_fault_free_spec_yields_the_empty_schedule(self):
        assert compile_spec(_spec()).scenario().events == ()

    def test_run_requires_a_policy_binding(self):
        with pytest.raises(ValueError) as err:
            compile_spec(_spec()).run()
        assert "binds no policy" in str(err.value)

    def test_run_honours_the_spec_policy(self):
        compiled = compile_spec(_spec(policy="no-mitigation"))
        outcome = compiled.run()
        assert outcome.policy == "no-mitigation"
        assert outcome.n_requests == 40
        assert not outcome.violations

    def test_run_policy_argument_overrides_the_spec(self):
        compiled = compile_spec(_spec(policy="no-mitigation"))
        assert compiled.run(policy="stutter-aware").policy == "stutter-aware"


class TestEligibility:
    def test_discrete_is_always_eligible(self):
        for compiled in bundle.scenarios().values():
            eligible, _ = compiled.eligibility()["discrete"]
            assert eligible

    def test_underloaded_workloads_bind_every_policy(self):
        for name in ("raid10", "dht"):
            eligible, reason = bundle.scenarios()[name].eligibility()["hybrid"]
            assert eligible and reason == "all policies bind"

    def test_saturated_workload_is_timer_free_only(self):
        eligible, reason = bundle.scenarios()["surge"].eligibility()["hybrid"]
        assert eligible
        assert "timer-free policies only" in reason
        assert "arrival spacing" in reason

    def test_timer_bearing_policy_on_saturated_workload_is_refused(self):
        surge = bundle.scenarios()["surge"]
        eligible, reason = surge.eligibility(policy="fixed-timeout")["hybrid"]
        assert not eligible
        assert "arrival spacing" in reason
        assert "fixed-timeout" in reason

    def test_timer_free_policy_binds_even_when_saturated(self):
        surge = bundle.scenarios()["surge"]
        eligible, reason = surge.eligibility(policy="no-mitigation")["hybrid"]
        assert eligible and "no-mitigation" in reason

    def test_verdict_agrees_with_the_runner(self):
        # The probe promises run_scenario_hybrid will not raise at bind
        # time; hold it to that on the saturated workload.
        from repro.core.hybrid import HybridInfeasible, run_scenario_hybrid

        surge = bundle.scenarios()["surge"]
        scenario = campaign.generate_scenario(surge.workload, "failstop", 7, 0)
        with pytest.raises(HybridInfeasible) as err:
            run_scenario_hybrid(surge.workload, scenario, "fixed-timeout")
        _, probed_reason = surge.eligibility(policy="fixed-timeout")["hybrid"]
        assert str(err.value) == probed_reason


class TestCompiledFamilies:
    def test_registry_generators_carry_their_specs(self):
        for name, generator in campaign.FAMILIES.items():
            assert isinstance(generator.spec, FamilySpec)
            assert generator.spec.name == name
            assert generator.__name__ == f"family_{name}"

    def test_fixed_cells_consume_no_draws(self):
        # A family whose template is all-fixed must consume exactly the
        # target draws and nothing else: the byte-identity of the
        # migrated registries rests on this accounting.
        from random import Random

        from repro.scenario import compile_family

        spec = parse_spec({
            "kind": "family", "name": "allfixed", "target": "member",
            "fault": "stutter",
            "onset": {"fixed": 0.1, "of": "span"},
            "duration": {"fixed": 0.2, "of": "span"},
            "factor": {"fixed": 0.5},
        })
        generator = compile_family(spec)
        groups = [("a0", "a1"), ("a2", "a3")]
        rng, shadow = Random("x"), Random("x")
        generator(rng, groups, span=10.0)
        shadow.randrange(len(groups))
        shadow.randrange(2)
        assert rng.getstate() == shadow.getstate()
