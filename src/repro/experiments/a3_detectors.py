"""A3: detector choice -- detection latency vs false positives.

Three detectors watch a component that (a) emits noisy-but-healthy
completions, then (b) degrades persistently.  Measured per detector:
false positives during the noisy-healthy phase, and how many
observations after the true fault until it is flagged.

Wiring: the watched component is registered with a
:class:`~repro.core.system.System` and every observation goes out as a
``completion`` record on the telemetry bus; detectors subscribe to the
component's stream by name (``sim.watch``/``subscribe``) rather than
being hand-fed -- the same plumbing any experiment gets for free.
"""

from __future__ import annotations

import random

from ..analysis.report import Table
from ..core.detection import EwmaDetector, PeerComparisonDetector, ThresholdDetector
from ..core.estimator import WindowedRateEstimator
from ..core.system import System
from ..faults.component import DegradableServer
from ..faults.spec import PerformanceSpec

__all__ = ["run"]

SPEC = PerformanceSpec(nominal_rate=10.0, tolerance=0.2)


def _observation_stream(rng: random.Random, n_healthy: int, n_faulty: int,
                        noise: float, fault_factor: float):
    """Yield (phase, rate) observations: noisy-healthy then degraded."""
    for __ in range(n_healthy):
        yield "healthy", max(0.1, rng.gauss(10.0, noise))
    for __ in range(n_faulty):
        yield "faulty", max(0.05, rng.gauss(10.0 * fault_factor, noise * fault_factor))


def _spec_detector_run(detector, observations):
    sim = System()
    DegradableServer(sim, "victim", SPEC.nominal_rate, spec=SPEC)
    # The detector observes the victim's completions by name.
    binding = sim.watch("victim", detector)
    false_positives = 0
    detection_after = None
    faulty_seen = 0
    for phase, rate in observations:
        sim.telemetry.completion("victim", rate, 1.0)  # rate units of work in 1 s
        if phase == "healthy" and binding.faulty:
            false_positives += 1
        if phase == "faulty":
            faulty_seen += 1
            if detection_after is None and binding.faulty:
                detection_after = faulty_seen
    return false_positives, detection_after


def _peer_detector_run(fraction, observations, rng, n_peers=7):
    sim = System()
    DegradableServer(sim, "victim", SPEC.nominal_rate, spec=SPEC)
    for p in range(n_peers):
        DegradableServer(sim, f"peer{p}", SPEC.nominal_rate, spec=SPEC)
    detector = PeerComparisonDetector(fraction=fraction, min_peers=3)
    est = WindowedRateEstimator(window=8)

    # Peer comparison consumes per-component rates, so each component's
    # completion stream feeds the detector under its own name.
    def feed_victim(work, duration):
        est.observe(work, duration)
        detector.observe("victim", est.rate())

    sim.telemetry.observe("victim", feed_victim)
    for p in range(n_peers):
        name = f"peer{p}"
        sim.telemetry.observe(
            name,
            lambda work, duration, name=name: detector.observe(
                name, work / duration
            ),
        )

    false_positives = 0
    detection_after = None
    faulty_seen = 0
    for phase, rate in observations:
        sim.telemetry.completion("victim", rate, 1.0)
        for p in range(n_peers):
            sim.telemetry.completion(f"peer{p}", max(0.1, rng.gauss(10.0, 1.0)), 1.0)
        if phase == "healthy" and detector.is_faulty("victim"):
            false_positives += 1
        if phase == "faulty":
            faulty_seen += 1
            if detection_after is None and detector.is_faulty("victim"):
                detection_after = faulty_seen
    return false_positives, detection_after


def run(
    n_healthy: int = 200,
    n_faulty: int = 60,
    noise: float = 2.0,
    fault_factor: float = 0.5,
    seed: int = 31,
) -> Table:
    """Regenerate the A3 table: detector vs FP count and detection lag."""
    table = Table(
        "A3: detector comparison on a noisy component that degrades to "
        f"{fault_factor:.0%} of spec",
        ["detector", "false positives (healthy phase)", "observations to detect"],
        note="window/alpha trade detection speed against noise immunity",
    )

    configs = [
        ("threshold, window=2", lambda: ThresholdDetector(SPEC, WindowedRateEstimator(2))),
        ("threshold, window=16", lambda: ThresholdDetector(SPEC, WindowedRateEstimator(16))),
        ("ewma, alpha=0.5", lambda: EwmaDetector(SPEC, alpha=0.5)),
        ("ewma, alpha=0.1", lambda: EwmaDetector(SPEC, alpha=0.1)),
    ]
    for label, factory in configs:
        rng = random.Random(seed)
        fp, lag = _spec_detector_run(
            factory(),
            _observation_stream(rng, n_healthy, n_faulty, noise, fault_factor),
        )
        table.add_row(label, fp, lag if lag is not None else float("inf"))

    rng = random.Random(seed)
    fp, lag = _peer_detector_run(
        0.7,
        _observation_stream(rng, n_healthy, n_faulty, noise, fault_factor),
        random.Random(seed + 1),
    )
    table.add_row("peer-median, fraction=0.7", fp, lag if lag is not None else float("inf"))
    return table
