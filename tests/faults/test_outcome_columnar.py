"""Columnar outcomes: latency arrays, digest v2, exact soak statistics.

``ScenarioOutcome.latencies`` is a C-contiguous float64 array on both
engines, the outcome digest hashes a canonical-JSON header plus the
latencies' little-endian bytes, and every soak latency statistic is an
exact numpy fold over the samples it summarizes -- live and replayed
from the trace.  Memory of a soak stays flat as the horizon grows.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.hybrid import run_scenario_hybrid
from repro.faults import campaign
from repro.faults.campaign import (
    CampaignWorkload,
    generate_scenario,
    run_scenario,
    run_soak,
)
from repro.telemetry import record_soak, replay_trace

FAST = CampaignWorkload(
    name="raid10", substrate="storage", prefix="d",
    n_pairs=2, rate=5.5, work=0.5, gap=0.03, n_requests=80,
)


@pytest.fixture(scope="module")
def outcome():
    scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
    return run_scenario(FAST, scenario, "hedged")


def _with_latencies(outcome, latencies):
    return replace(outcome, latencies=latencies)


class TestLatencyArrays:
    @pytest.mark.parametrize("engine", ["discrete", "hybrid"])
    def test_both_engines_return_contiguous_float64(self, engine):
        workload = campaign.WORKLOADS["raid10"]
        scenario = generate_scenario(workload, "magnitude", seed=7, index=0)
        run = run_scenario_hybrid if engine == "hybrid" else run_scenario
        latencies = run(workload, scenario, "stutter-aware").latencies
        assert isinstance(latencies, np.ndarray)
        assert latencies.dtype == np.float64
        assert latencies.flags.c_contiguous
        assert latencies.size > 0

    def test_slo_violations_count_the_array(self, outcome):
        assert outcome.slo_violations == int(np.sum(outcome.latencies > outcome.slo))


class TestDigestV2:
    def test_one_ulp_changes_the_digest(self, outcome):
        bumped = outcome.latencies.copy()
        bumped[3] = np.nextafter(bumped[3], np.inf)
        assert _with_latencies(outcome, bumped).digest() != outcome.digest()

    def test_swapping_two_samples_changes_the_digest(self, outcome):
        latencies = outcome.latencies
        k = int(np.flatnonzero(latencies != latencies[0])[0])
        swapped = latencies.copy()
        swapped[[0, k]] = swapped[[k, 0]]
        assert _with_latencies(outcome, swapped).digest() != outcome.digest()

    @pytest.mark.parametrize("counter", [
        "issued_work", "completed_work", "claimed_work", "wasted_work",
        "failed_work", "outstanding_attempts", "unresolved_requests",
        "failed_requests",
    ])
    def test_every_counter_is_covered(self, outcome, counter):
        changed = replace(outcome, **{counter: getattr(outcome, counter) + 1})
        assert changed.digest() != outcome.digest()

    def test_server_work_is_covered(self, outcome):
        servers = dict(outcome.server_work)
        name = sorted(servers)[0]
        servers[name] += 0.5
        assert replace(outcome, server_work=servers).digest() != outcome.digest()

    def test_byte_order_and_stride_do_not_matter(self, outcome):
        latencies = outcome.latencies
        big_endian = latencies.astype(">f8")
        strided = np.repeat(latencies, 2)[::2]
        assert not strided.flags.c_contiguous
        for same in (big_endian, strided, latencies.tolist()):
            assert _with_latencies(outcome, same).digest() == outcome.digest()


def _captured_soak(engine, **params):
    """Run ``record_soak`` with each window's latencies captured."""
    captured = []
    original = campaign.run_scenario

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result.latencies.copy())
        return result

    campaign.run_scenario = capture
    try:
        live = record_soak(engine=engine, retain_windows=True, **params)
    finally:
        campaign.run_scenario = original
    return live, captured


class TestExactSoakStatistics:
    @pytest.mark.parametrize("engine", ["discrete", "hybrid"])
    def test_live_and_replayed_quantiles_equal_np_quantile(self, tmp_path, engine):
        rolling = 2
        path = tmp_path / f"{engine}.jsonl"
        live, captured = _captured_soak(
            engine, path=path, seed=5, n_windows=4, injectors_per_window=2,
            n_requests=120, rolling=rolling,
        )
        replayed = replay_trace(path).windows
        assert len(captured) == len(live.windows) == len(replayed) == 4
        for k, samples in enumerate(captured):
            trailing = np.concatenate(captured[max(0, k - rolling + 1):k + 1])
            for window in (live.windows[k], replayed[k]):
                assert window.p50.value() == float(np.quantile(samples, 0.5))
                assert window.p99.value() == float(np.quantile(samples, 0.99))
                assert window.moments.mean == float(np.mean(samples))
                assert window.rolling_p99 == float(np.quantile(trailing, 0.99))
        assert live.final_rolling_p99 == float(np.quantile(trailing, 0.99))

    @pytest.mark.parametrize("params", [
        dict(engine="hybrid", n_requests=20_000, injectors_per_window=0),
        dict(engine="discrete", n_requests=200, injectors_per_window=2),
    ], ids=["hybrid-quiet", "discrete-faulty"])
    def test_memory_stays_flat_as_the_horizon_grows(self, params):
        def peak(n_windows):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_soak(seed=7, n_windows=n_windows, rolling=2,
                         retain_windows=False, **params)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        run_soak(seed=7, n_windows=1, rolling=2, retain_windows=False, **params)
        assert peak(24) <= 1.1 * peak(6)
