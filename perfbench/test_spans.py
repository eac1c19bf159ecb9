"""Tests for the benchmark's span arithmetic and instrumentation.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def at(clock, t, action):
    clock.now = t
    action()


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    script = [
        (0.0, lambda: tracer.enter(spans.ROOT)),
        (1.0, lambda: tracer.enter("a")),
        (2.0, lambda: tracer.enter("b")),
        (2.5, lambda: tracer.enter("a")),  # a re-entered inside b
        (3.0, tracer.exit),
        (4.0, tracer.exit),
        (6.0, tracer.exit),
        (7.0, lambda: tracer.enter("c")),
        (9.0, tracer.exit),
        (10.0, tracer.exit),
    ]
    for t, action in script:
        at(clock, t, action)

    assert tracer.self_s["a"] == pytest.approx(3.0 + 0.5)
    assert tracer.self_s["b"] == pytest.approx(2.0 - 0.5)
    assert tracer.self_s["c"] == pytest.approx(2.0)
    assert tracer.self_s[spans.ROOT] == pytest.approx(10.0 - 5.0 - 2.0)
    # Wall time counts a re-entered layer once.
    assert tracer.wall_s["a"] == pytest.approx(5.0)
    assert tracer.calls["a"] == 2
    covered, root = tracer.reconcile()
    assert covered == pytest.approx(root) and root == pytest.approx(10.0)
    assert tracer.open_spans == 0


def test_spans_outside_a_root_are_not_recorded():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    at(clock, 0.0, lambda: tracer.enter("a"))
    at(clock, 1.0, lambda: tracer.enter("b"))
    at(clock, 2.0, tracer.exit)
    at(clock, 3.0, tracer.exit)
    at(clock, 4.0, lambda: tracer.enter(spans.ROOT))
    at(clock, 5.0, lambda: tracer.enter("a"))
    at(clock, 6.0, tracer.exit)
    at(clock, 8.0, tracer.exit)
    assert dict(tracer.self_s) == pytest.approx({"a": 1.0, spans.ROOT: 3.0})
    assert tracer.open_spans == 0


def test_instrument_wraps_rebound_names_and_restores_them():
    from repro import telemetry
    from repro.faults import campaign
    from repro.telemetry import record

    originals = (campaign.run_scenario, record.record_soak, telemetry.record_soak,
                 campaign.ScenarioOutcome.digest)
    restore = spans.instrument(spans.Tracer())
    try:
        assert campaign.run_scenario is not originals[0]
        # The package re-export is wrapped along with its source.
        assert telemetry.record_soak is record.record_soak is not originals[1]
        assert campaign.ScenarioOutcome.digest is not originals[3]
    finally:
        restore()
    assert (campaign.run_scenario, record.record_soak, telemetry.record_soak,
            campaign.ScenarioOutcome.digest) == originals


def test_traced_scenario_reconciles_and_counts_requests():
    from repro.faults import campaign

    workload = replace(campaign.WORKLOADS["raid10"], n_requests=200)
    scenario = campaign.generate_scenario(workload, "correlated", 7, 0)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        tracer.enter(spans.ROOT)
        outcome = campaign.run_scenario(workload, scenario, "fixed-timeout")
        tracer.exit()
    finally:
        restore()
    assert outcome.ok
    assert tracer.counts["requests"] == tracer.counts["discrete_requests"] == 200
    assert tracer.counts["attempts"] >= 200
    assert tracer.calls["sim.run"] == 1
    assert tracer.self_s["policy"] > 0 and tracer.self_s["faults.attempt"] > 0
    covered, root = tracer.reconcile()
    assert covered == pytest.approx(root, rel=1e-9)
