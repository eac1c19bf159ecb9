"""Unit tests for the pull scheduler."""

import pytest

from repro.core import PullScheduler
from repro.faults import DegradableServer
from repro.sim import Simulator


def make_pool(sim, n=4, rate=1.0):
    return [DegradableServer(sim, f"w{i}", rate) for i in range(n)]


def executor(servers):
    def execute(worker_index, task):
        return servers[worker_index].submit(task)

    return execute


class TestPullScheduler:
    def test_all_tasks_complete(self):
        sim = Simulator()
        servers = make_pool(sim)
        result = sim.run(
            until=PullScheduler().run(sim, [1.0] * 20, 4, executor(servers))
        )
        assert len(result.assignments) == 20
        assert result.duration == pytest.approx(5.0)

    def test_equal_workers_share_equally(self):
        sim = Simulator()
        servers = make_pool(sim)
        result = sim.run(
            until=PullScheduler().run(sim, [1.0] * 20, 4, executor(servers))
        )
        assert result.tasks_per_worker(4) == [5, 5, 5, 5]

    def test_fast_worker_pulls_more(self):
        sim = Simulator()
        servers = make_pool(sim)
        servers[0].set_slowdown("skew", 0.25)  # 4x slower
        result = sim.run(
            until=PullScheduler().run(sim, [1.0] * 26, 4, executor(servers))
        )
        counts = result.tasks_per_worker(4)
        assert counts[0] < counts[1]
        # Rates 0.25:1:1:1 => slow worker gets ~2 of 26, others ~8.
        assert counts[0] <= 4

    def test_completion_time_tracks_aggregate_rate(self):
        sim = Simulator()
        servers = make_pool(sim)
        servers[0].set_slowdown("skew", 0.5)
        result = sim.run(
            until=PullScheduler().run(sim, [1.0] * 35, 4, executor(servers))
        )
        # Aggregate rate 3.5 tasks/s over 35 tasks ~= 10 s.
        assert result.duration == pytest.approx(10.0, rel=0.15)

    def test_failed_worker_requeues_and_retires(self):
        sim = Simulator()
        servers = make_pool(sim)
        sim.schedule(1.5, servers[2].stop)
        result = sim.run(
            until=PullScheduler().run(sim, [1.0] * 20, 4, executor(servers))
        )
        assert len(result.assignments) == 20
        assert result.retired_workers == 1
        assert result.requeues >= 1
        assert result.tasks_per_worker(4)[2] <= 2

    def test_a_task_bug_is_not_a_requeue(self):
        # Only a fail-stop or a watchdog timeout retires a worker; any
        # other exception is a bug and surfaces out of the run.
        sim = Simulator()
        servers = make_pool(sim)

        def execute(worker_index, task):
            if worker_index == 2:
                raise AttributeError("planted")
            return servers[worker_index].submit(task)

        proc = PullScheduler().run(sim, [1.0] * 8, 4, execute)
        with pytest.raises(AttributeError, match="planted"):
            sim.run(until=proc)

    def test_all_workers_failing_raises(self):
        sim = Simulator()
        servers = make_pool(sim, 2)
        sim.schedule(0.5, servers[0].stop)
        sim.schedule(0.5, servers[1].stop)
        proc = PullScheduler().run(sim, [1.0] * 10, 2, executor(servers))
        with pytest.raises(RuntimeError, match="tasks completed"):
            sim.run(until=proc)

    def test_inflight_two_still_completes_everything(self):
        sim = Simulator()
        servers = make_pool(sim)
        result = sim.run(
            until=PullScheduler(inflight_per_worker=2).run(
                sim, [1.0] * 20, 4, executor(servers)
            )
        )
        assert len(result.assignments) == 20

    def test_fewer_tasks_than_workers(self):
        sim = Simulator()
        servers = make_pool(sim, 8)
        result = sim.run(until=PullScheduler().run(sim, [1.0] * 3, 8, executor(servers)))
        assert len(result.assignments) == 3
        assert result.duration == pytest.approx(1.0)

    def test_validation(self):
        sim = Simulator()
        servers = make_pool(sim)
        with pytest.raises(ValueError):
            PullScheduler(inflight_per_worker=0)
        with pytest.raises(ValueError):
            PullScheduler().run(sim, [], 4, executor(servers))
        with pytest.raises(ValueError):
            PullScheduler().run(sim, [1.0], 0, executor(servers))
