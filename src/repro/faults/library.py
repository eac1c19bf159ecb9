"""Concrete fault injectors modeled on the paper's Section 2 survey.

Each injector corresponds to a documented class of real-world performance
fault:

=====================  ========================================================
Injector               Paper phenomenon
=====================  ========================================================
StaticSkew             Fault-masked caches / remapped disks sold as identical
                       (Viking caches off by 40%, Hawk at 5.0 vs 5.5 MB/s)
TransientStutter       Sporadic slow episodes (Vesta variance, Rivera & Chien's
                       unexplained 30%-slower nodes)
PeriodicBackground     Deterministic background work: GC (Gribble), LFS
                       cleaners, thermal recalibration (Bolosky)
IntermittentOffline    Short random full stalls (disks going off-line)
CorrelatedGroupFault   SCSI bus resets stalling every disk on the chain
                       (Talagala & Patterson: ~2 timeouts/day, 49-87% of errors)
InterferenceLoad       CPU/memory hogs stealing a fraction of a node
                       (NOW-Sort 2x, Brown & Mowry 40x)
FailStopAt             Classic absolute failure at a scheduled time
RandomFailStop         Absolute failure at an exponentially distributed time
=====================  ========================================================
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..sim.engine import Simulator
from .distributions import Distribution, Exponential, Fixed
from .injector import FaultInjector, InjectorHandle
from .model import DegradableMixin

__all__ = [
    "StaticSkew",
    "TransientStutter",
    "PeriodicBackground",
    "IntermittentOffline",
    "CorrelatedGroupFault",
    "InterferenceLoad",
    "FailStopAt",
    "RandomFailStop",
]


class StaticSkew(FaultInjector):
    """A permanent rate multiplier, applied at ``at`` (default t=0).

    Models manufacturing variation hidden by fault masking: two
    "identical" parts with different real performance.  The §3.2 example's
    "one disk-pair writes at b < B" is a StaticSkew of ``b/B``.
    """

    kind = "static-skew"

    def __init__(self, factor: float, at: float = 0.0, source: Optional[str] = None):
        super().__init__(source)
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        if at < 0:
            raise ValueError(f"at must be >= 0, got {at}")
        self.factor = factor
        self.at = at

    def _drive(self, sim, target, rng, handle):
        if self.at > 0:
            yield sim.timeout(self.at)
        if handle.cancelled or target.stopped:
            return
        target.set_slowdown(self.source, self.factor)


class TransientStutter(FaultInjector):
    """Random slowdown episodes: wait, degrade, recover, repeat.

    ``interarrival`` is the gap from one episode's end to the next
    episode's start; ``duration`` the episode length; ``factor`` the
    severity drawn per episode.
    """

    kind = "transient-stutter"

    def __init__(
        self,
        interarrival: Distribution,
        duration: Distribution,
        factor: Distribution,
        source: Optional[str] = None,
    ):
        super().__init__(source)
        self.interarrival = interarrival
        self.duration = duration
        self.factor = factor

    def _drive(self, sim, target, rng, handle):
        while not handle.cancelled and not target.stopped:
            yield sim.timeout(self.interarrival.sample(rng))
            if handle.cancelled or target.stopped:
                return
            factor = self.factor.sample(rng)
            target.set_slowdown(self.source, factor)
            yield sim.timeout(self.duration.sample(rng))
            target.clear_slowdown(self.source)


class PeriodicBackground(FaultInjector):
    """Deterministic background work every ``period`` for ``duration``.

    During the episode the component runs at ``factor`` of its rate
    (``0.0`` for a full stall such as a stop-the-world GC or a thermal
    recalibration).  ``phase`` offsets the first episode, which is how
    experiments desynchronise replicas.
    """

    kind = "periodic-background"

    def __init__(
        self,
        period: float,
        duration: float,
        factor: float = 0.0,
        phase: float = 0.0,
        source: Optional[str] = None,
    ):
        super().__init__(source)
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if not 0 <= duration < period:
            raise ValueError(f"need 0 <= duration < period, got {duration}")
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        if phase < 0:
            raise ValueError(f"phase must be >= 0, got {phase}")
        self.period = period
        self.duration = duration
        self.factor = factor
        self.phase = phase

    def _drive(self, sim, target, rng, handle):
        yield sim.timeout(self.phase + (self.period - self.duration))
        while not handle.cancelled and not target.stopped:
            target.set_slowdown(self.source, self.factor)
            yield sim.timeout(self.duration)
            target.clear_slowdown(self.source)
            if handle.cancelled or target.stopped:
                return
            yield sim.timeout(self.period - self.duration)


class IntermittentOffline(TransientStutter):
    """Random full stalls: the Bolosky et al. disks that "go off-line at
    random intervals for short periods of time"."""

    kind = "intermittent-offline"

    def __init__(
        self,
        interarrival: Distribution,
        duration: Distribution,
        source: Optional[str] = None,
    ):
        super().__init__(interarrival, duration, Fixed(0.0), source)


class CorrelatedGroupFault(FaultInjector):
    """One fault process stalling a whole *group* simultaneously.

    Models SCSI-chain resets: a timeout on any disk resets the bus and
    every disk on the chain stalls for the reset duration.  Attach with
    :meth:`attach_group`.
    """

    kind = "correlated-group"

    def __init__(
        self,
        interarrival: Distribution,
        duration: Distribution,
        factor: float = 0.0,
        source: Optional[str] = None,
    ):
        super().__init__(source)
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        self.interarrival = interarrival
        self.duration = duration
        self.factor = factor

    def attach_group(
        self,
        sim: Simulator,
        targets: Sequence[DegradableMixin],
        rng: Optional[random.Random] = None,
    ) -> InjectorHandle:
        """Start one shared fault process over all ``targets``."""
        if not targets:
            raise ValueError("need at least one target")
        rng = rng or random.Random(0)
        handle = InjectorHandle(self, [], list(targets))
        process = sim.process(self._drive_group(sim, list(targets), rng, handle))
        handle.processes.append(process)
        return handle

    def _drive(self, sim, target, rng, handle):
        yield from self._drive_group(sim, [target], rng, handle)

    def _drive_group(self, sim, targets, rng, handle):
        while not handle.cancelled:
            yield sim.timeout(self.interarrival.sample(rng))
            if handle.cancelled:
                return
            duration = self.duration.sample(rng)
            for target in targets:
                if not target.stopped:
                    target.set_slowdown(self.source, self.factor)
            yield sim.timeout(duration)
            for target in targets:
                target.clear_slowdown(self.source)


class InterferenceLoad(FaultInjector):
    """A competing application arriving at ``at`` and staying ``duration``.

    While present it claims ``share`` of the component (the component's
    effective rate drops to ``1 - share``).  ``duration=None`` means the
    hog never leaves.  Models the NOW-Sort CPU hog and, with shares close
    to 1, Brown & Mowry's memory hog.
    """

    kind = "interference"

    def __init__(
        self,
        share: float,
        at: float = 0.0,
        duration: Optional[float] = None,
        source: Optional[str] = None,
    ):
        super().__init__(source)
        if not 0.0 <= share < 1.0:
            raise ValueError(f"share must be in [0, 1), got {share}")
        if at < 0:
            raise ValueError(f"at must be >= 0, got {at}")
        if duration is not None and duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.share = share
        self.at = at
        self.duration = duration

    def _drive(self, sim, target, rng, handle):
        if self.at > 0:
            yield sim.timeout(self.at)
        if handle.cancelled or target.stopped:
            return
        target.set_slowdown(self.source, 1.0 - self.share)
        if self.duration is None:
            return
        yield sim.timeout(self.duration)
        target.clear_slowdown(self.source)


class FailStopAt(FaultInjector):
    """Absolute (correctness) failure at a fixed time."""

    kind = "fail-stop"

    def __init__(self, at: float, source: Optional[str] = None):
        super().__init__(source)
        if at < 0:
            raise ValueError(f"at must be >= 0, got {at}")
        self.at = at

    def _drive(self, sim, target, rng, handle):
        yield sim.timeout(self.at)
        if handle.cancelled:
            return
        target.stop(cause=self.source)


class RandomFailStop(FaultInjector):
    """Absolute failure at an exponentially distributed time (MTTF)."""

    kind = "random-fail-stop"

    def __init__(self, mttf: float, source: Optional[str] = None):
        super().__init__(source)
        if mttf <= 0:
            raise ValueError(f"mttf must be > 0, got {mttf}")
        self.mttf = mttf

    def _drive(self, sim, target, rng, handle):
        yield sim.timeout(Exponential(self.mttf).sample(rng))
        if handle.cancelled:
            return
        target.stop(cause=self.source)
