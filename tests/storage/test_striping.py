"""Unit tests for the Section 3.2 striping policies.

The shape targets, with N pairs at B MB/s and one pair at b < B:

* uniform striping   -> throughput ~= N * b          (scenario 1)
* proportional       -> throughput ~= (N - 1) * B + b (scenario 2, static)
* adaptive           -> ~= (N - 1) * B + b even when the fault appears
                        mid-run (scenario 3)
"""

import pytest

from repro.sim import Simulator
from repro.storage import (
    AdaptiveStriping,
    Disk,
    DiskParams,
    ProportionalStriping,
    Raid1Pair,
    UniformStriping,
    uniform_geometry,
)

B = 5.5  # MB/s healthy pair rate
PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_pairs(sim, n_pairs=4, rate=B):
    pairs = []
    for i in range(n_pairs):
        d1 = Disk(sim, f"d{2*i}", geometry=uniform_geometry(100_000, rate), params=PARAMS)
        d2 = Disk(sim, f"d{2*i+1}", geometry=uniform_geometry(100_000, rate), params=PARAMS)
        pairs.append(Raid1Pair(sim, d1, d2))
    return pairs


def run_policy(policy, n_pairs=4, n_blocks=400, slow_factor=None, slow_at=None):
    """Run a policy; optionally skew the last pair by slow_factor at slow_at."""
    sim = Simulator()
    pairs = make_pairs(sim, n_pairs)
    if slow_factor is not None and slow_at is None:
        pairs[-1].primary.set_slowdown("skew", slow_factor)
    if slow_factor is not None and slow_at is not None:
        sim.schedule(slow_at, pairs[-1].primary.set_slowdown, "skew", slow_factor)
    result = sim.run(until=policy.run(sim, pairs, n_blocks, block_value=1))
    return sim, pairs, result


class TestUniformStriping:
    def test_healthy_array_aggregates_bandwidth(self):
        __, __, result = run_policy(UniformStriping())
        assert result.throughput_mb_s == pytest.approx(4 * B, rel=0.02)

    def test_equal_shares(self):
        __, __, result = run_policy(UniformStriping(), n_blocks=402)
        assert sorted(result.blocks_per_pair) == [100, 100, 101, 101]
        assert sum(result.blocks_per_pair) == 402

    def test_first_pairs_take_the_extra_blocks(self):
        __, __, result = run_policy(UniformStriping(), n_blocks=10)
        assert result.blocks_per_pair == [3, 3, 2, 2]

    def test_tracks_single_slow_pair(self):
        """Scenario 1: throughput collapses to N * b."""
        __, __, result = run_policy(UniformStriping(), slow_factor=0.5)
        assert result.throughput_mb_s == pytest.approx(4 * B * 0.5, rel=0.03)

    def test_no_bookkeeping(self):
        __, __, result = run_policy(UniformStriping())
        assert result.bookkeeping_entries == 0

    def test_data_committed_to_both_mirrors(self):
        sim, pairs, result = run_policy(UniformStriping(), n_blocks=8)
        for pair in pairs:
            for lba in range(2):
                assert pair.primary.peek(lba) == 1
                assert pair.secondary.peek(lba) == 1

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            UniformStriping().run(sim, [], 10)
        with pytest.raises(ValueError):
            UniformStriping().run(sim, make_pairs(sim, 2), 0)


class TestProportionalStriping:
    def test_static_skew_recovers_bandwidth(self):
        """Scenario 2: throughput ~= (N-1) * B + b under a static fault."""
        __, __, result = run_policy(ProportionalStriping(), slow_factor=0.5)
        expected = 3 * B + 0.5 * B
        assert result.throughput_mb_s == pytest.approx(expected, rel=0.03)

    def test_shares_proportional_to_gauged_rates(self):
        __, __, result = run_policy(ProportionalStriping(), slow_factor=0.5, n_blocks=700)
        shares = result.blocks_per_pair
        assert shares[-1] == pytest.approx(shares[0] / 2, rel=0.05)

    def test_dynamic_fault_defeats_install_time_gauging(self):
        """'If any disk does not perform as expected over time,
        performance again tracks the slow disk.'"""
        __, __, result = run_policy(ProportionalStriping(), slow_factor=0.25, slow_at=1.0)
        # Gauged equal at t=0, so equal shares; the late fault dominates.
        assert result.throughput_mb_s < 0.55 * 4 * B

    def test_explicit_gauge_rates(self):
        sim = Simulator()
        pairs = make_pairs(sim, 2)
        policy = ProportionalStriping(gauge_rates=[3.0, 1.0])
        result = sim.run(until=policy.run(sim, pairs, 100, block_value=1))
        assert result.blocks_per_pair == [75, 25]

    def test_gauge_rate_count_mismatch_rejected(self):
        sim = Simulator()
        pairs = make_pairs(sim, 3)
        policy = ProportionalStriping(gauge_rates=[1.0, 2.0])
        with pytest.raises(ValueError):
            sim.run(until=policy.run(sim, pairs, 10))

    def test_gauge_reads_current_effective_rate(self):
        sim = Simulator()
        pairs = make_pairs(sim, 2)
        pairs[0].primary.set_slowdown("skew", 0.5)
        assert ProportionalStriping.gauge(pairs[0]) == pytest.approx(B * 0.5, rel=1e-6)
        assert ProportionalStriping.gauge(pairs[1]) == pytest.approx(B, rel=1e-6)


class TestAdaptiveStriping:
    def test_static_skew_recovers_bandwidth(self):
        __, __, result = run_policy(AdaptiveStriping(), slow_factor=0.5)
        expected = 3 * B + 0.5 * B
        assert result.throughput_mb_s == pytest.approx(expected, rel=0.05)

    def test_dynamic_fault_still_recovers(self):
        """Scenario 3: a mid-run fault barely dents adaptive striping."""
        __, __, result = run_policy(AdaptiveStriping(), slow_factor=0.25, slow_at=1.0)
        # Post-fault capacity is 3B + B/4 = 17.875; adaptive should stay
        # well above the slow-disk-tracking level of ~5.5.
        assert result.throughput_mb_s > 0.85 * (3 * B + 0.25 * B)

    def test_beats_proportional_under_dynamic_fault(self):
        __, __, adaptive = run_policy(AdaptiveStriping(), slow_factor=0.25, slow_at=1.0)
        __, __, proportional = run_policy(
            ProportionalStriping(), slow_factor=0.25, slow_at=1.0
        )
        assert adaptive.throughput_mb_s > 1.5 * proportional.throughput_mb_s

    def test_block_map_is_complete_bijection(self):
        """Every block written exactly once, at a unique location."""
        __, __, result = run_policy(AdaptiveStriping(), n_blocks=200)
        assert set(result.block_map.keys()) == set(range(200))
        locations = list(result.block_map.values())
        assert len(set(locations)) == len(locations)
        assert result.bookkeeping_entries == 200

    def test_lbas_contiguous_per_pair(self):
        __, __, result = run_policy(AdaptiveStriping(), n_blocks=100)
        by_pair = {}
        for pair_index, lba in result.block_map.values():
            by_pair.setdefault(pair_index, []).append(lba)
        for lbas in by_pair.values():
            assert sorted(lbas) == list(range(len(lbas)))

    def test_counts_match_map(self):
        __, __, result = run_policy(AdaptiveStriping(), n_blocks=120)
        from collections import Counter

        counted = Counter(p for p, __ in result.block_map.values())
        assert [counted.get(i, 0) for i in range(4)] == result.blocks_per_pair

    def test_data_committed_everywhere(self):
        sim, pairs, result = run_policy(AdaptiveStriping(), n_blocks=40)
        for pair_index, lba in result.block_map.values():
            pair = pairs[pair_index]
            assert pair.primary.peek(lba) == 1
            assert pair.secondary.peek(lba) == 1

    def test_pair_failure_redistributes_blocks(self):
        sim = Simulator()
        pairs = make_pairs(sim, 3)
        # Pair 2 dies early: both members stop.
        sim.schedule(0.5, pairs[2].primary.stop)
        sim.schedule(0.5, pairs[2].secondary.stop)
        result = sim.run(until=AdaptiveStriping().run(sim, pairs, 120, block_value=1))
        assert set(result.block_map.keys()) == set(range(120))
        # The dead pair holds few blocks; survivors carry the rest.
        assert result.blocks_per_pair[2] < 15
        assert sum(result.blocks_per_pair) == 120

    def test_every_pair_failing_leaves_blocks_unwritten(self):
        sim = Simulator()
        pairs = make_pairs(sim, 2)
        for pair in pairs:
            sim.schedule(0.5, pair.primary.stop)
            sim.schedule(0.5, pair.secondary.stop)
        proc = AdaptiveStriping().run(sim, pairs, 120, block_value=1)
        with pytest.raises(RuntimeError, match=r"only \d+/120 tasks completed"):
            sim.run(until=proc)

    def test_stalled_pair_strands_at_most_inflight_blocks(self):
        """A long stall strands only the in-flight block on that pair.

        (A *permanent* stall with one block in flight would hang any
        policy -- that is exactly the paper's argument for the
        correctness-promotion threshold T, exercised in the core tests.)
        """
        sim = Simulator()
        pairs = make_pairs(sim, 4)
        sim.schedule(0.5, pairs[3].primary.set_slowdown, "stall", 0.0)
        sim.schedule(60.0, pairs[3].primary.clear_slowdown, "stall")
        result = sim.run(until=AdaptiveStriping().run(sim, pairs, 200, block_value=1))
        # Survivors absorb nearly everything while pair 3 is stalled.
        stalled_share = result.blocks_per_pair[3]
        assert sum(result.blocks_per_pair[:3]) >= 190
        assert stalled_share <= 10

    def test_inflight_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStriping(inflight_per_pair=0)

    def test_throughput_healthy_matches_uniform(self):
        __, __, adaptive = run_policy(AdaptiveStriping())
        __, __, uniform = run_policy(UniformStriping())
        assert adaptive.throughput_mb_s == pytest.approx(
            uniform.throughput_mb_s, rel=0.05
        )
