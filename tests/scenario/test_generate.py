"""Generator layer: seeded sweeps are deterministic, bounded and audited.

``generate_spec`` must be a pure function of ``(seed, index, bounds)``
whose every draw lands inside the spec grammar *and* inside the declared
:class:`SweepBounds` envelope -- that containment is what licenses the
sweep driver to treat any oracle violation as an engine or policy
finding rather than generator noise.  The sweep itself must be
replay-identical, and a hybrid sweep must fall back to the discrete
oracle *by name*, never silently.
"""

import pytest

from repro.scenario import (
    SweepBounds,
    generate_spec,
    generate_specs,
    parse_spec,
    run_sweep,
)

pytestmark = pytest.mark.campaign


class TestGenerateSpec:
    def test_deterministic_in_seed_and_index(self):
        assert generate_spec(5, 3) == generate_spec(5, 3)
        assert generate_spec(5, 3).digest() == generate_spec(5, 3).digest()
        assert generate_spec(5, 3) != generate_spec(5, 4)
        assert generate_spec(5, 3) != generate_spec(6, 3)

    def test_generate_specs_enumerates_indices(self):
        specs = generate_specs(9, 4)
        assert [s.name for s in specs] == [f"gen-9-{i}" for i in range(4)]
        assert specs[2] == generate_spec(9, 2)

    def test_every_draw_re_parses_under_the_strict_loader(self):
        for index in range(40):
            spec = generate_spec(11, index)
            assert parse_spec(spec.to_dict()) == spec

    def test_draws_respect_the_bounds_envelope(self):
        bounds = SweepBounds()
        for index in range(40):
            spec = generate_spec(13, index, bounds)
            lo, hi = bounds.groups
            assert lo <= spec.groups.count <= hi
            lo, hi = bounds.rate
            assert lo <= spec.groups.rate <= hi
            service = spec.arrivals.work / spec.groups.rate
            lo, hi = bounds.service
            assert lo <= service <= hi
            # Per-member spacing over service time stays inside headroom,
            # so fault-free groups provably idle between arrivals.
            headroom = spec.arrivals.gap * spec.groups.count / service
            lo, hi = bounds.headroom
            assert lo - 1e-9 <= headroom <= hi + 1e-9
            members = set(spec.groups.member_names())
            targets = [e.component for e in spec.events]
            assert set(targets) <= members
            # Sampling without replacement: no component carries two
            # windows, so the grammar's overlap rule can never trip.
            assert len(targets) == len(set(targets))
            for event in spec.events:
                if event.kind == "stutter":
                    lo, hi = bounds.factor
                    assert lo <= event.factor <= hi
            assert spec.policy in bounds.policies

    def test_custom_bounds_are_honoured(self):
        bounds = SweepBounds(substrates=("network",), groups=(3, 3),
                             policies=("stutter-aware",))
        spec = generate_spec(1, 0, bounds)
        assert spec.groups.substrate == "network"
        assert spec.groups.prefix == "link"
        assert spec.groups.count == 3
        assert spec.policy == "stutter-aware"


class TestRunSweep:
    def test_sweep_is_oracle_clean_and_replay_identical(self):
        first = run_sweep(seed=3, count=4)
        second = run_sweep(seed=3, count=4)
        assert first.ok, first.violations
        assert first.fallbacks == []
        assert first.digest() == second.digest()

    def test_rerun_verification_is_on_by_default(self):
        result = run_sweep(seed=3, count=2)
        assert result.ok
        # The digest covers (spec, outcome, engine) per run.
        assert len(result.runs) == 2
        for spec_digest, outcome in result.runs:
            assert spec_digest
            assert outcome.engine == "discrete"
            assert outcome.digest()

    @pytest.mark.parametrize("engine, digest", [
        ("discrete",
         "ac38b757bab763e46cb25202a2493a3381e8a8bdb5148f3ade95f9e1b37b4b8a"),
        ("hybrid",
         "d4608e0d48f698fe18608b7f763e44abc8bcf74adb9d7a5cd3af4a32c4e59fe1"),
    ])
    def test_sweep_digest_is_pinned(self, engine, digest):
        # The identity `repro sweep --seed 7 --count 25` prints.
        result = run_sweep(seed=7, count=25, engine=engine,
                           verify_determinism=False)
        assert result.digest() == digest

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(count=1, engine="quantum")

    def test_table_rolls_up_per_policy(self):
        result = run_sweep(seed=5, count=6, verify_determinism=False)
        table = result.table()
        policies = table.column("policy")
        assert policies == sorted(policies)
        assert sum(table.column("scenarios")) == 6
        assert all(cell == "ok" for cell in table.column("oracle"))


class TestHybridFallback:
    # Saturated shapes (headroom < 1) refuse timer-bearing policies at
    # bind time, so every scenario here must fall back to the discrete
    # oracle -- by name, with the runner's own reason string.
    BOUNDS = SweepBounds(
        headroom=(0.85, 0.95),
        policies=("fixed-timeout",),
        events=(1, 1),
        failstop_prob=0.0,
        duration_frac=(0.1, 0.15),
        factor=(0.6, 0.7),
        requests=(60, 100),
    )

    def test_infeasible_scenarios_fall_back_by_name(self):
        result = run_sweep(seed=2, count=3, engine="hybrid",
                           bounds=self.BOUNDS)
        assert result.ok, result.violations
        assert len(result.fallbacks) == 3
        names = [name for name, _ in result.fallbacks]
        assert names == [f"gen-2-{i}" for i in range(3)]
        for _, reason in result.fallbacks:
            assert "arrival spacing" in reason
        for __, outcome in result.runs:
            assert outcome.engine == "discrete"

    def test_feasible_hybrid_sweep_records_no_fallbacks(self):
        result = run_sweep(seed=2, count=3, engine="hybrid")
        assert result.ok, result.violations
        assert result.fallbacks == []
        assert all(outcome.engine == "hybrid" for __, outcome in result.runs)
