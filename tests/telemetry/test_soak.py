"""Soak campaigns: window semantics, rolling scorecards, bounded retention.

The soak driver's contract is that each window is an independent
oracle-audited run stitched onto one global time axis, that the rolling
columns are *exactly* the statistics of the trailing windows' samples
taken together, and that dropping per-window state
(``retain_windows=False``) changes nothing about the aggregates -- the
flat-memory half of that is pinned with tracemalloc in
``tests/faults/test_outcome_columnar.py``.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.faults import campaign
from repro.faults.campaign import (
    FaultEvent,
    SoakWindow,
    generate_scenario,
    merge_soak_events,
    run_soak,
    WORKLOADS,
)
from repro.sim.metrics import Tally
from repro.telemetry import read_trace, record_soak, replay_trace, verify_trace

pytestmark = pytest.mark.soak

N_WINDOWS = 4
N_REQUESTS = 60


@pytest.fixture(scope="module")
def soak():
    return run_soak(seed=11, n_windows=N_WINDOWS, injectors_per_window=2,
                    n_requests=N_REQUESTS, engine="hybrid", rolling=2,
                    retain_windows=True)


class TestWindowSemantics:
    def test_windows_tile_the_horizon(self, soak):
        assert len(soak.windows) == N_WINDOWS
        span = soak.window_span
        for w in soak.windows:
            assert w.start == pytest.approx(w.index * span)
            assert w.end == pytest.approx((w.index + 1) * span)
        assert soak.horizon == pytest.approx(N_WINDOWS * span)

    def test_every_window_is_oracle_clean(self, soak):
        assert soak.ok
        assert all(not w.violations for w in soak.windows)

    def test_totals_are_the_sum_of_windows(self, soak):
        assert soak.requests == sum(w.requests for w in soak.windows)
        assert soak.slo_violations == sum(w.slo_violations for w in soak.windows)
        assert soak.moments.count == sum(w.moments.count for w in soak.windows)

    def test_tally_is_the_fold_of_the_window_tallies(self, soak):
        # All five counters, work sums exact: the same left-to-right fold.
        folded = sum(soak.windows, Tally())
        assert {f.name: getattr(soak, f.name) for f in fields(Tally)} == {
            f.name: getattr(folded, f.name) for f in fields(Tally)
        }

    def test_rolling_columns_are_the_exact_lane_merge(self):
        """roll_* at window w == np.quantile over the trailing windows' samples."""
        rolling = 2
        captured = []
        original = campaign.run_scenario

        def capture(*args, **kwargs):
            outcome = original(*args, **kwargs)
            captured.append(outcome.latencies.copy())
            return outcome

        campaign.run_scenario = capture
        try:
            soak = run_soak(seed=11, n_windows=N_WINDOWS,
                            injectors_per_window=2, n_requests=N_REQUESTS,
                            engine="hybrid", rolling=rolling,
                            retain_windows=True)
        finally:
            campaign.run_scenario = original
        assert len(captured) == N_WINDOWS
        for i, w in enumerate(soak.windows):
            trailing = soak.windows[max(0, i - rolling + 1):i + 1]
            samples = np.concatenate(captured[max(0, i - rolling + 1):i + 1])
            assert w.rolling_windows == len(trailing)
            assert w.rolling_requests == sum(t.requests for t in trailing)
            assert w.rolling_mean == float(np.mean(samples))
            assert w.rolling_p99 == float(np.quantile(samples, 0.99))
            assert w.p99.value() == float(np.quantile(captured[i], 0.99))

    def test_windows_are_independent_reruns(self, soak):
        """Window 0 rerun alone reproduces its scorecard (fresh System)."""
        solo = run_soak(seed=11, n_windows=1, injectors_per_window=2,
                        n_requests=N_REQUESTS, engine="hybrid", rolling=2,
                        retain_windows=True)
        assert solo.windows[0].to_dict() == soak.windows[0].to_dict()

    def test_retention_off_changes_no_aggregate(self, soak):
        dropped = run_soak(seed=11, n_windows=N_WINDOWS,
                           injectors_per_window=2, n_requests=N_REQUESTS,
                           engine="hybrid", rolling=2, retain_windows=False)
        assert dropped.windows == []
        assert dropped.requests == soak.requests
        assert dropped.slo_violations == soak.slo_violations
        assert dropped.moments.to_dict() == soak.moments.to_dict()
        assert dropped.final_rolling_mean == soak.final_rolling_mean
        assert dropped.final_rolling_p99 == soak.final_rolling_p99
        with pytest.raises(ValueError, match="retain_windows"):
            dropped.table()

    def test_window_roundtrips_through_dict(self, soak):
        for w in soak.windows:
            assert SoakWindow.from_dict(w.to_dict()).to_dict() == w.to_dict()


class TestEventMerging:
    def test_fail_stop_is_final(self):
        events = merge_soak_events(
            [],
            extra=[
                FaultEvent("d0", "fail-stop", onset=2.0),
                FaultEvent("d0", "stutter", onset=3.0, duration=1.0,
                           factor=0.5),
                FaultEvent("d0", "stutter", onset=1.0, duration=1.0,
                           factor=0.5),
            ],
        )
        assert [e.kind for e in events] == ["stutter", "fail-stop"]

    def test_events_sorted_by_onset(self):
        workload = WORKLOADS["raid10"]
        draws = [generate_scenario(workload, "magnitude", seed=4, index=i)
                 for i in range(5)]
        events = merge_soak_events(draws)
        assert list(events) == sorted(events, key=lambda e: (
            e.onset, e.component, e.kind, e.duration, e.factor))

    def test_extra_event_outside_windows_rejected(self):
        stutter = FaultEvent("d0", "stutter", onset=0.5, duration=0.5,
                             factor=0.5)
        with pytest.raises(ValueError, match="window 9"):
            run_soak(n_windows=2, n_requests=20,
                     extra_events=[(9, stutter)])

    def test_draws_follow_the_scaled_workload(self):
        # A small-request soak shrinks the horizon below the stock span;
        # draws must come from the workload actually run or fault edges
        # land beyond the hybrid runner's horizon (regression).
        for engine in ("discrete", "hybrid"):
            result = run_soak(seed=7, n_windows=2, injectors_per_window=2,
                              n_requests=30, engine=engine,
                              retain_windows=True)
            assert result.ok, engine

    def test_overlapping_draws_still_oracle_clean(self):
        result = run_soak(seed=2, n_windows=2, injectors_per_window=5,
                          n_requests=N_REQUESTS, engine="discrete",
                          family="correlated", retain_windows=True)
        assert result.ok


class TestSoakArguments:
    def test_zero_requests_rejected_by_name(self):
        with pytest.raises(ValueError, match="n_requests must be >= 1, got 0"):
            run_soak(n_windows=1, n_requests=0)

    def test_negative_injectors_rejected_by_name(self):
        with pytest.raises(ValueError,
                           match="injectors_per_window must be >= 0, got -1"):
            run_soak(n_windows=1, injectors_per_window=-1, n_requests=20)


class TestSoakTrace:
    def test_recorded_soak_replays_and_verifies(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        result = record_soak(path, seed=11, n_windows=3,
                             injectors_per_window=2, n_requests=N_REQUESTS,
                             engine="hybrid", rolling=2, retain_windows=True)
        replay = replay_trace(path)
        assert replay.read.clean_close and replay.consistent
        # The replayed windows ARE the retained windows, field for field.
        assert [w.to_dict() for w in replay.windows] == [
            w.to_dict() for w in result.windows
        ]
        # Scorecard renders from the trace alone (retention-free path).
        assert "soak trace" in replay.scorecard().title
        assert verify_trace(path).ok

    def test_trace_time_axis_is_global(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        record_soak(path, seed=11, n_windows=3, injectors_per_window=2,
                    n_requests=N_REQUESTS, engine="discrete",
                    retain_windows=False)
        read = read_trace(path)
        starts = [r.get("start") for r in read.of_kind("run-start")]
        assert starts == sorted(starts) and starts[0] == 0.0
        # Records in later windows carry later absolute timestamps.
        recs = read.telemetry()
        assert recs, "discrete soak should stream completion records"
        assert max(r.time for r in recs) > starts[-1]

    def test_windows_record_their_execution(self, tmp_path):
        """Each window says which engine ran and how much of it discrete;
        the trace's window lines carry it, and replay sums it."""
        path = tmp_path / "soak.jsonl"
        result = record_soak(path, seed=11, n_windows=3,
                             injectors_per_window=2, n_requests=N_REQUESTS,
                             engine="hybrid", retain_windows=True)
        executions = [w.execution for w in result.windows]
        for window, execution in zip(result.windows, executions):
            assert set(execution) == {"discrete_requests", "engine", "fallback"}
            assert execution["engine"] == "hybrid"
            assert execution["fallback"] is None
            assert 0 < execution["discrete_requests"] <= window.requests
        replay = replay_trace(path)
        assert [w.execution for w in replay.windows] == executions
        discrete = sum(e["discrete_requests"] for e in executions)
        requests = sum(w.requests for w in result.windows)
        assert replay.execution_summary() == (
            f"execution: 3/3 runs hybrid, 0 fallbacks; {discrete:,} of "
            f"{requests:,} requests discrete "
            f"({100.0 * discrete / requests:.1f}%)")
        assert replay.execution_summary() in replay.render()

    def test_a_window_without_execution_reads_back_unset(self, soak):
        """A schema-3 window line has no ``execution`` key."""
        payload = soak.windows[0].to_dict()
        del payload["execution"]
        window = SoakWindow.from_dict(payload)
        assert window.execution is None
        assert window.to_dict() == payload

    def test_engines_agree_on_soak_counters(self):
        by_engine = {
            engine: run_soak(seed=11, n_windows=2, injectors_per_window=1,
                             n_requests=N_REQUESTS, engine=engine,
                             retain_windows=True)
            for engine in ("discrete", "hybrid")
        }
        d, h = by_engine["discrete"], by_engine["hybrid"]
        assert d.requests == h.requests
        assert d.slo_violations == h.slo_violations
        assert d.moments.count == h.moments.count
