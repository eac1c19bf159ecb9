"""System-level property tests (hypothesis) for DESIGN.md's invariants.

These go beyond the per-module properties: random operation sequences
and random fault schedules against whole components, checking the
invariants that make the reproduction trustworthy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HedgingScheduler, PullScheduler
from repro.faults import DegradableServer
from repro.sim import Simulator
from repro.storage import (
    AdaptiveStriping,
    Disk,
    DiskParams,
    Raid1Pair,
    uniform_geometry,
)

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_disks(sim, n):
    return [Disk(sim, f"d{i}", uniform_geometry(100_000, 5.5), PARAMS) for i in range(n)]


class TestMirrorInvariant:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=49),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mirrors_identical_after_any_write_sequence(self, writes):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        for lba, value in writes:
            sim.run(until=pair.write(lba, 1, value=value))
        for lba, __ in writes:
            assert pair.consistent_at(lba)
            assert d1.peek(lba) == d2.peek(lba)


class TestAdaptiveStripingInvariant:
    @given(
        st.integers(min_value=8, max_value=120),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # pair index
                st.floats(min_value=0.05, max_value=1.0),  # slow factor
                st.floats(min_value=0.0, max_value=10.0),  # when
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_map_is_bijection_under_random_faults(self, n_blocks, faults):
        sim = Simulator()
        disks = make_disks(sim, 8)
        pairs = [Raid1Pair(sim, disks[2 * i], disks[2 * i + 1]) for i in range(4)]
        for pair_index, factor, when in faults:
            sim.schedule(
                when, pairs[pair_index].primary.set_slowdown, f"f{when}", factor
            )
        result = sim.run(until=AdaptiveStriping().run(sim, pairs, n_blocks, block_value=7))
        # Every block exactly once, at a unique (pair, lba).
        assert set(result.block_map.keys()) == set(range(n_blocks))
        locations = list(result.block_map.values())
        assert len(set(locations)) == len(locations)
        assert sum(result.blocks_per_pair) == n_blocks
        # And the data really landed on both mirrors.
        for pair_index, lba in locations:
            assert pairs[pair_index].primary.peek(lba) == 7
            assert pairs[pair_index].secondary.peek(lba) == 7


class TestSchedulerInvariants:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_pull_completes_every_task_exactly_once(self, n_tasks, n_workers, factors):
        sim = Simulator()
        servers = [DegradableServer(sim, f"w{i}", 1.0) for i in range(n_workers)]
        for server, factor in zip(servers, factors):
            server.set_slowdown("skew", factor)
        result = sim.run(
            until=PullScheduler().run(
                sim, [1.0] * n_tasks, n_workers, lambda w, t: servers[w].submit(t)
            )
        )
        assert sorted(result.assignments.keys()) == list(range(n_tasks))
        assert sum(result.tasks_per_worker(n_workers)) == n_tasks

    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=2, max_value=5),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=5, max_size=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_hedging_every_task_wins_exactly_once(self, n_tasks, n_workers, factors):
        sim = Simulator()
        servers = [DegradableServer(sim, f"w{i}", 1.0) for i in range(n_workers)]
        for server, factor in zip(servers, factors):
            server.set_slowdown("skew", factor)
        result = sim.run(
            until=HedgingScheduler(hedge_after=3.0).run(
                sim, [1.0] * n_tasks, n_workers, lambda w, t: servers[w].submit(t)
            )
        )
        assert sorted(result.assignments.keys()) == list(range(n_tasks))
        assert sum(result.tasks_per_worker(n_workers)) == n_tasks
        # Reconciliation: first completions + waste == total completions implied.
        assert result.wasted_completions >= 0


class TestDegradableAlgebra:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.one_of(
                    st.floats(min_value=0.0, max_value=3.0),
                    st.none(),  # None means clear
                ),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_effective_rate_is_product_of_active_factors(self, operations):
        sim = Simulator()
        server = DegradableServer(sim, "x", 10.0)
        active = {}
        for source, factor in operations:
            if factor is None:
                server.clear_slowdown(source)
                active.pop(source, None)
            else:
                server.set_slowdown(source, factor)
                active[source] = factor
        expected = 10.0
        for factor in active.values():
            expected *= factor
        assert server.effective_rate == pytest.approx(expected)

    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=8))
    @settings(max_examples=40)
    def test_stop_dominates_everything(self, factors):
        sim = Simulator()
        server = DegradableServer(sim, "x", 10.0)
        server.stop()
        for i, factor in enumerate(factors):
            server.set_slowdown(f"s{i}", factor)
        assert server.effective_rate == 0.0
        assert server.stopped
