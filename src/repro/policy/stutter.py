"""Stutter-aware scheduling: the paper's prescription, as a policy.

Section 3 of the paper: a fail-stutter design keeps *using* a degraded
component at whatever rate it actually delivers, instead of declaring it
dead at a timeout.  This policy implements that with the PR-4 machinery:
every replica gets a :class:`~repro.core.component.DetectorBinding`
(a :class:`~repro.core.detection.ThresholdDetector` on the component's
own spec, fed by completion telemetry), and the policy subscribes to the
resulting ``spec-violation`` records on the :class:`TelemetryBus`.  A
violation flips the replica into "believe the measured rate" mode;
routing then sends each request to the member with the least *expected
delay* -- backlog plus service at the believed rate.

There are no timers: slowness is never punished with duplicates, so the
policy wastes no work under pure stutters, while detectable fail-stops
still trigger the base-class retry-on-mirror reaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..sim.trace import COMPLETION, SPEC_VIOLATION, TraceRecord
from .base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.component import DetectorBinding
    from ..faults.campaign import Request

__all__ = ["StutterAwarePolicy"]


class StutterAwarePolicy(MitigationPolicy):
    """Route by expected delay under detector-estimated delivered rates."""

    name = "stutter-aware"

    def bind(self, engine) -> None:
        super().bind(engine)
        self.bindings: Dict[str, "DetectorBinding"] = {}
        #: Replicas currently in "degraded" mode, flipped by bus
        #: spec-violation records and cleared when the detector recovers.
        self.degraded: Dict[str, bool] = {}
        self.violations_seen = 0
        #: The workload's member rate, fixed for the run.
        self.nominal_rate = engine.nominal_rate
        bus = engine.system.telemetry
        for name in engine.component_names():
            self.bindings[name] = engine.system.watch(name)
            self.degraded[name] = False
            bus.subscribe(name, self._on_record)

    def _on_record(self, record) -> None:
        if record.kind != SPEC_VIOLATION:
            return
        self.violations_seen += 1
        self.degraded[record.subject] = True

    def believed_rate(self, name: str) -> float:
        """The rate this policy plans around for one replica."""
        binding = self.bindings[name]
        if self.degraded[name]:
            if not binding.faulty:
                # Detector verdict cleared: trust nominal again.
                self.degraded[name] = False
            else:
                estimate = binding.detector.estimated_rate
                if estimate is not None and estimate > 0:
                    return estimate
        return self.nominal_rate

    def hybrid_fast_forward(self, completions) -> None:
        # Feed each replica's detector binding the completions it would
        # have observed.  The detector's rate window saturates after a
        # handful of identical samples, so the replay is capped per tuple.
        for component, count, work, latency in completions:
            binding = self.bindings.get(component)
            if binding is None:
                continue
            record = TraceRecord(self.engine.now, COMPLETION, component,
                                 (work, latency))
            for _ in range(min(count, 64)):
                binding._on_record(record)

    def pick(self, request: "Request") -> str:
        """The live member with the least expected delay, ties by name.

        Expected delay is ``(backlog + 1) * work / believed rate``; the
        backlog reads as zero while the engine's route probe is set, and
        only a degraded member's rate needs :meth:`believed_rate`.
        """
        engine = self.engine
        members = engine.members
        probing = engine.route_probe
        nominal = self.nominal_rate
        degraded = self.degraded
        work = request.work
        best = best_key = None
        for name in request.group:
            member = members[name]
            if member._stopped:
                continue
            depth = 0 if probing else member.backlog
            rate = self.believed_rate(name) if degraded[name] else nominal
            key = ((depth + 1) * work / rate, name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return request.group[0] if best is None else best
