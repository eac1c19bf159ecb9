"""Unit tests for the fault model and degradable components."""

import pytest

from repro.faults import (
    ComponentState,
    ComponentStopped,
    CorrectnessFault,
    DegradableServer,
    FaultModel,
    PerformanceFault,
)
from repro.faults.model import FaultEvent
from repro.sim import SimulationError, Simulator


class TestFaultModel:
    def test_fail_stutter_handles_both_classes(self):
        assert FaultModel.FAIL_STUTTER.handles_performance_faults
        assert FaultModel.FAIL_STUTTER.handles_correctness_faults

    def test_fail_stop_handles_only_correctness(self):
        assert not FaultModel.FAIL_STOP.handles_performance_faults
        assert FaultModel.FAIL_STOP.handles_correctness_faults

    def test_none_handles_nothing(self):
        assert not FaultModel.NONE.handles_performance_faults
        assert not FaultModel.NONE.handles_correctness_faults


class TestFaultEvent:
    def test_a_stutter_ends_at_its_restore(self):
        event = FaultEvent("d0", "stutter", onset=1.5, duration=2.0, factor=0.3)
        assert event.end == 3.5

    def test_a_failstop_ends_at_its_onset(self):
        assert FaultEvent("d0", "fail-stop", onset=1.5).end == 1.5

    def test_a_failstop_takes_no_duration(self):
        with pytest.raises(ValueError, match="no duration or factor"):
            FaultEvent("d0", "fail-stop", onset=1.5, duration=2.0)

    def test_a_nan_onset_is_refused(self):
        with pytest.raises(ValueError, match="onset must be >= 0, got nan"):
            FaultEvent("d0", "fail-stop", onset=float("nan"))

    def test_the_campaign_module_re_exports_it(self):
        from repro.faults import campaign

        assert campaign.FaultEvent is FaultEvent


class TestDegradableRates:
    def _server(self, rate=10.0):
        sim = Simulator()
        return sim, DegradableServer(sim, "disk0", rate)

    def test_starts_at_nominal(self):
        __, server = self._server()
        assert server.effective_rate == 10.0
        assert server.state is ComponentState.OK

    def test_single_slowdown(self):
        __, server = self._server()
        server.set_slowdown("skew", 0.5)
        assert server.effective_rate == 5.0
        assert server.state is ComponentState.DEGRADED

    def test_slowdowns_compose_multiplicatively(self):
        __, server = self._server()
        server.set_slowdown("skew", 0.5)
        server.set_slowdown("gc", 0.5)
        assert server.effective_rate == pytest.approx(2.5)

    def test_clear_restores_other_channels(self):
        __, server = self._server()
        server.set_slowdown("skew", 0.5)
        server.set_slowdown("gc", 0.0)
        server.clear_slowdown("gc")
        assert server.effective_rate == 5.0
        assert server.state is ComponentState.DEGRADED

    def test_clear_unknown_channel_is_noop(self):
        __, server = self._server()
        server.clear_slowdown("nothing")
        assert server.effective_rate == 10.0

    def test_zero_factor_stalls(self):
        __, server = self._server()
        server.set_slowdown("reset", 0.0)
        assert server.effective_rate == 0.0
        assert server.state is ComponentState.DEGRADED  # stalled, not stopped

    def test_speedup_factor_allowed(self):
        __, server = self._server()
        server.set_slowdown("upgrade", 2.0)
        assert server.effective_rate == 20.0
        assert server.state is ComponentState.OK  # faster than spec is not a fault

    def test_bad_factor_rejected(self):
        __, server = self._server()
        with pytest.raises(ValueError):
            server.set_slowdown("x", -0.1)
        with pytest.raises(ValueError):
            server.set_slowdown("x", float("nan"))
        with pytest.raises(ValueError):
            server.set_slowdown("x", float("inf"))

    def test_bad_nominal_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DegradableServer(sim, "bad", 0.0)


class TestFailStop:
    def test_stop_is_permanent_and_detectable(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)
        server.stop()
        assert server.state is ComponentState.STOPPED
        assert server.effective_rate == 0.0
        with pytest.raises(ComponentStopped):
            server.submit(1.0)

    def test_slowdowns_ignored_after_stop(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)
        server.stop()
        server.set_slowdown("x", 1.0)
        assert server.effective_rate == 0.0

    def test_stop_records_correctness_fault(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)

        def proc():
            yield sim.timeout(7.0)
            server.stop(cause="media")

        sim.process(proc())
        sim.run()
        faults = [f for f in server.fault_log if isinstance(f, CorrectnessFault)]
        assert len(faults) == 1
        assert faults[0].time == 7.0
        assert faults[0].cause == "media"

    def test_stop_fails_inflight_work(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 1.0)
        done = server.submit(100.0)
        caught = []

        def waiter():
            try:
                yield done
            except ComponentStopped as exc:
                caught.append(exc.component)

        sim.process(waiter())
        sim.schedule(5.0, server.stop)
        sim.run()
        assert caught == ["disk0"]

    @staticmethod
    def _logged_jobs(sim, server, labels):
        """Submit one unit job per label; returns the outcome log and jobs."""
        log, jobs = [], []
        for label in labels:
            job = server.submit(1.0)
            job.callbacks.append(
                lambda ev, label=label: log.append(
                    (sim.now, label, "ok" if ev.ok else type(ev.value).__name__)
                )
            )
            jobs.append(job)
        return log, jobs

    def test_stop_fails_in_service_job_then_queue_in_submission_order(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 1.0)
        sim.call_at(1.0, server.stop)  # armed before a's completion timer
        log, __ = self._logged_jobs(sim, server, "abc")
        sim.run()
        assert log == [(1.0, label, "ComponentStopped") for label in "abc"]
        assert server.jobs_completed == 0

    def test_stop_spares_a_job_completed_at_the_same_instant(self):
        # The stop is armed after a's completion timer, so a completes
        # first; b, now in service, and c, queued, are failed in order.
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 1.0)
        log, __ = self._logged_jobs(sim, server, "abc")
        sim.call_at(1.0, server.stop)
        sim.run()
        assert log == [(1.0, "a", "ok"), (1.0, "b", "ComponentStopped"),
                       (1.0, "c", "ComponentStopped")]
        assert server.jobs_completed == 1

    def test_stop_from_a_completion_callback_fails_the_next_job(self):
        # a is delivered in place, after b has started: b and c fail.
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 1.0)
        log, jobs = self._logged_jobs(sim, server, "abc")
        jobs[0].callbacks.append(lambda ev: server.stop())
        sim.run()
        assert log == [(1.0, "a", "ok"), (1.0, "b", "ComponentStopped"),
                       (1.0, "c", "ComponentStopped")]

    def test_double_stop_is_idempotent(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)
        server.stop()
        server.stop()
        faults = [f for f in server.fault_log if isinstance(f, CorrectnessFault)]
        assert len(faults) == 1


class TestFaultLog:
    def test_episode_recorded_with_bounds(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)

        def proc():
            yield sim.timeout(2.0)
            server.set_slowdown("gc", 0.3)
            yield sim.timeout(3.0)
            server.clear_slowdown("gc")

        sim.process(proc())
        sim.run()
        perf = [f for f in server.fault_log if isinstance(f, PerformanceFault)]
        assert len(perf) == 1
        assert perf[0].start == 2.0
        assert perf[0].end == 5.0
        assert perf[0].duration == pytest.approx(3.0)
        assert perf[0].factor == 0.3
        assert perf[0].source == "gc"

    def test_stop_closes_open_episodes(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)

        def proc():
            server.set_slowdown("gc", 0.3)
            yield sim.timeout(4.0)
            server.stop()

        sim.process(proc())
        sim.run()
        perf = [f for f in server.fault_log if isinstance(f, PerformanceFault)]
        assert len(perf) == 1 and perf[0].end == 4.0

    def test_severity_change_splits_episode(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)

        def proc():
            server.set_slowdown("gc", 0.5)
            yield sim.timeout(1.0)
            server.set_slowdown("gc", 0.2)
            yield sim.timeout(1.0)
            server.clear_slowdown("gc")

        sim.process(proc())
        sim.run()
        perf = [f for f in server.fault_log if isinstance(f, PerformanceFault)]
        assert [p.factor for p in perf] == [0.5, 0.2]

    def test_factor_at_or_above_one_is_not_an_episode(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)
        server.set_slowdown("upgrade", 1.5)
        server.clear_slowdown("upgrade")
        assert server.fault_log == []


class TestDegradableServerService:
    def test_slowdown_lengthens_service(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 10.0)
        done = server.submit(100.0)
        sim.schedule(5.0, server.set_slowdown, "fault", 0.5)
        stats = sim.run(until=done)
        # 50 units at 10/s then 50 units at 5/s => 5 + 10 = 15s.
        assert stats.completed_at == pytest.approx(15.0)

    def test_metrics_passthrough(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 2.0)
        server.submit(4.0)
        server.submit(4.0)
        assert server.busy and server.queue_length == 1
        sim.run()
        assert server.jobs_completed == 2
        assert server.work_completed == pytest.approx(8.0)
        assert server.utilization() == pytest.approx(1.0)

    def test_repr_mentions_state(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 2.0)
        assert "disk0" in repr(server)
        assert "ok" in repr(server)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_nominal_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            DegradableServer(Simulator(), "disk0", rate)

    def test_nan_size_leaves_the_server_usable(self):
        sim = Simulator()
        server = DegradableServer(sim, "disk0", 2.0)
        with pytest.raises(SimulationError, match="finite"):
            server.submit(float("nan"))
        assert server.backlog == 0
        stats = sim.run(until=server.submit(1.0))
        assert stats.completed_at == 0.5
