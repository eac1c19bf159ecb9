"""Property: any recorded run replays to the same scorecard, from disk.

The trace is the only input replay gets, so this is the round-trip that
justifies calling it an observability layer: for machine-generated
scenario specs (the PR-9 generator, the same envelope the sweep
certifies), ``record_spec_run -> replay_trace`` must reconstruct the
run's digest, counters, and exact latency statistics, and
``verify_trace`` must regenerate the file byte-for-byte -- on both the
discrete and the hybrid engine.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.generate import generate_spec
from repro.sim.metrics import StreamingMoments, Tally
from repro.telemetry import (
    record_campaign,
    record_soak,
    record_spec_run,
    replay_trace,
    verify_trace,
)

#: Timer-free, so every generated spec is hybrid-bindable and the
#: hybrid lane really exercises the fluid path instead of falling back.
POLICY = "stutter-aware"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), index=st.integers(0, 50),
       engine=st.sampled_from(["discrete", "hybrid"]))
def test_recorded_spec_run_replays_exactly(tmp_path_factory, seed, index,
                                           engine):
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = tmp / f"{seed}-{index}-{engine}.jsonl"
    spec = generate_spec(seed, index)
    outcome = record_spec_run(path, spec, policy=POLICY, engine=engine)
    replay = replay_trace(path)

    assert replay.read.clean_close and replay.consistent
    assert replay.mode == "spec"
    assert replay.read.specs == {spec.name: spec.digest()}
    assert len(replay.runs) == 1
    run = replay.runs[0]
    assert run.complete

    # Scorecard identity: exact counters and the full-precision digest.
    assert run.digest == outcome.digest()
    assert run.requests == outcome.n_requests
    assert run.slo_violations == outcome.slo_violations
    assert run.failed_requests == outcome.failed_requests
    assert run.issued_work == outcome.issued_work
    assert run.wasted_work == outcome.wasted_work
    assert run.oracle_violations == list(outcome.violations)

    # Latency statistics are serialized exactly, so the replayed cells
    # equal a fresh numpy fold over the outcome's latencies.
    latencies = outcome.latencies
    assert run.moments.to_dict() == StreamingMoments.of(latencies).to_dict()
    expected = [float(np.quantile(latencies, q)) if len(latencies) else 0.0
                for q in (0.5, 0.99)]
    assert [run.p50.value(), run.p99.value()] == expected

    # State timelines come from the trace's state-change records alone;
    # every subject named must belong to the spec's topology.
    members = {
        f"{spec.groups.prefix}{i}"
        for i in range(spec.groups.count * spec.groups.size)
    }
    assert set(replay.state_timelines) <= members
    assert set(replay.completions) <= members

    # And the whole file regenerates byte-for-byte.
    result = verify_trace(path)
    assert result.ok, result.render()


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000), index=st.integers(0, 50))
def test_engines_agree_on_replayed_counters(tmp_path_factory, seed, index):
    """Discrete and hybrid traces replay to the same top-line scorecard."""
    tmp = tmp_path_factory.mktemp("engines")
    spec = generate_spec(seed, index)
    runs = {}
    for engine in ("discrete", "hybrid"):
        path = tmp / f"{engine}.jsonl"
        record_spec_run(path, spec, policy=POLICY, engine=engine)
        runs[engine] = replay_trace(path).runs[0]
    discrete, hybrid = runs["discrete"], runs["hybrid"]
    assert discrete.requests == hybrid.requests
    assert discrete.slo_violations == hybrid.slo_violations
    assert discrete.failed_requests == hybrid.failed_requests
    assert abs(discrete.issued_work - hybrid.issued_work) <= 1e-9
    assert abs(discrete.wasted_work - hybrid.wasted_work) <= 1e-9


def _counts(tally):
    return {f.name: getattr(tally, f.name) for f in fields(Tally)}


def test_replayed_runs_and_windows_carry_the_live_tallies(tmp_path):
    """Every replayed run and window holds its live run's five counters."""
    campaign = record_campaign(tmp_path / "campaign.jsonl", seed=7,
                               workloads=("raid10",), families=("magnitude",),
                               policies=("fixed-timeout", "hedged"),
                               scenarios_per_family=2, n_requests=60)
    runs = replay_trace(tmp_path / "campaign.jsonl").runs
    assert [_counts(run) for run in runs] == [
        _counts(Tally.of(outcome)) for outcome in campaign.outcomes
    ]
    soak = record_soak(tmp_path / "soak.jsonl", seed=7, n_windows=3,
                       injectors_per_window=2, n_requests=60,
                       retain_windows=True)
    windows = replay_trace(tmp_path / "soak.jsonl").windows
    assert [_counts(window) for window in windows] == [
        _counts(window) for window in soak.windows
    ]
    assert _counts(sum(windows, Tally())) == _counts(soak)
