"""Stutter-aware scheduling: the paper's prescription, as a policy.

Section 3 of the paper: a fail-stutter design keeps *using* a degraded
component at whatever rate it actually delivers, instead of declaring it
dead at a timeout.  This policy implements that with the PR-4 machinery:
every replica gets a :class:`~repro.core.component.DetectorBinding`
(a :class:`~repro.core.detection.ThresholdDetector` on the component's
own spec), which the :class:`TelemetryBus` feeds each completion.
While a replica's detector judges it faulty, the policy believes the
detector's estimated rate for it; routing sends each request to the
member with the least *expected delay* -- backlog plus service at the
believed rate.  The policy reads the detector's verdict directly, so it
needs no bus subscription: each flip to faulty still emits the
detector's ``spec-violation`` record for taps and subscribers.

There are no timers: slowness is never punished with duplicates, so the
policy wastes no work under pure stutters, while detectable fail-stops
still trigger the base-class retry-on-mirror reaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

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
        self.bindings: Dict[str, "DetectorBinding"] = {
            name: engine.system.watch(name) for name in engine.component_names()
        }
        #: Member name -> its binding's detector, read on every pick.
        self._detectors = {
            name: binding.detector for name, binding in self.bindings.items()
        }
        #: The workload's member rate, fixed for the run.
        self.nominal_rate = engine.nominal_rate

    @property
    def violations_seen(self) -> int:
        """Flips to faulty across every replica's detector."""
        return sum(binding.violations for binding in self.bindings.values())

    def hybrid_fast_forward(self, completions) -> None:
        # Feed each replica's detector binding the completions it would
        # have observed.  The detector's rate window saturates after a
        # handful of identical samples, so the replay is capped per tuple.
        for component, count, work, latency in completions:
            binding = self.bindings.get(component)
            if binding is None:
                continue
            for _ in range(min(count, 64)):
                binding.observe(work, latency)

    def pick(self, request: "Request") -> str:
        """The live member with the least expected delay, ties by name.

        Expected delay is ``(backlog + 1) * work / believed rate``.  The
        backlog reads as zero while the engine's route probe is set.
        The believed rate is the detector's estimate while it judges
        the member faulty (and has a positive estimate), else nominal.
        """
        engine = self.engine
        members = engine.members
        probing = engine.route_probe
        nominal = self.nominal_rate
        detectors = self._detectors
        work = request.work
        best = best_key = None
        for name in request.group:
            member = members[name]
            if member._stopped:
                continue
            depth = 0 if probing else member.backlog
            rate = nominal
            detector = detectors[name]
            if detector.faulty:
                estimate = detector.estimated_rate
                if estimate is not None and estimate > 0:
                    rate = estimate
            key = ((depth + 1) * work / rate, name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return request.group[0] if best is None else best
