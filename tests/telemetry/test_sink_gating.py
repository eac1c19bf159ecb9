"""The sink must not break the TelemetryBus's pay-for-use contract.

The bus's ``active`` flag is what lets every component skip telemetry
formatting entirely when nobody listens.  A sink is one run's ``sink=``
and every run builds a fresh System, so no tap outlives its run: a
fresh bus is idle, and simulation *results* are byte-identical with a
sink passed or never present (telemetry is an observer, not a
participant).
"""

from repro.core.system import System
from repro.faults.campaign import WORKLOADS, generate_scenario, run_scenario
from repro.telemetry import StreamingTraceSink


def _small_workload():
    from dataclasses import replace

    return replace(WORKLOADS["raid10"], n_requests=12)


class TestBusGating:
    def test_fresh_system_bus_is_inactive(self):
        assert System().telemetry.active is False


class TestResultsUnchangedBySink:
    """Recording a run must not change what the run computes."""

    def test_alternating_runs_stay_byte_identical(self, tmp_path):
        workload = _small_workload()
        scenario = generate_scenario(workload, "magnitude", seed=5, index=0)

        def digest(sink=None):
            return run_scenario(workload, scenario, "fixed-timeout",
                                sink=sink).digest()

        bare_before = digest()
        with StreamingTraceSink(tmp_path / "t.jsonl") as sink:
            recorded = digest(sink)
        bare_after = digest()
        assert bare_before == recorded == bare_after

    def test_e01_unaffected_by_a_prior_sink_lifecycle(self, tmp_path):
        from repro.experiments import e01_raid10

        before = e01_raid10.run().render()
        workload = _small_workload()
        scenario = generate_scenario(workload, "magnitude", seed=5, index=0)
        with StreamingTraceSink(tmp_path / "t.jsonl") as sink:
            run_scenario(workload, scenario, "fixed-timeout", sink=sink)
        assert sink.records_written > 0
        assert e01_raid10.run().render() == before

    def test_hybrid_and_discrete_recorded_digests_match_bare(self, tmp_path):
        workload = _small_workload()
        scenario = generate_scenario(workload, "magnitude", seed=5, index=1)
        for engine in ("discrete", "hybrid"):
            bare = run_scenario(workload, scenario, "stutter-aware",
                                engine=engine).digest()
            with StreamingTraceSink(tmp_path / f"{engine}.jsonl") as sink:
                recorded = run_scenario(workload, scenario, "stutter-aware",
                                        engine=engine, sink=sink).digest()
            assert recorded == bare
