"""The fault model: fail-stop, fail-stutter, and degradable components.

The paper's central definitions (Section 3.1):

* A **correctness (absolute) fault** is the fail-stop case: the component
  "changes to a state that permits other components to detect a failure
  has occurred and then stops" (Schneider).
* A **performance fault** is new: a component is performance-faulty when
  it "has not absolutely failed ... and when its performance is less than
  that of its performance specification."

:class:`DegradableMixin` is the executable form of this: any component
that inherits it exposes a *nominal* rate plus a multiplicative stack of
slowdown factors contributed by independent fault sources.  The effective
rate is ``nominal * product(factors)``; a factor of 0 models a stall, and
:meth:`DegradableMixin.stop` is the absolute, permanent fail-stop
transition.  Fault injectors (:mod:`repro.faults.library`) act only
through this interface, so every substrate component (disk, link, CPU)
tolerates composed faults for free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "FaultModel",
    "ComponentState",
    "PerformanceFault",
    "CorrectnessFault",
    "ComponentStopped",
    "DegradableMixin",
    "register_component",
]


def register_component(sim, component) -> None:
    """Register ``component`` with ``sim``'s component registry, if any.

    Duck-typed on purpose: a plain :class:`~repro.sim.engine.Simulator`
    has no ``components`` attribute and the call is a no-op, while a
    :class:`~repro.core.system.System` exposes a
    :class:`~repro.core.component.ComponentRegistry` there.  Keeping the
    check structural lets the fault layer stay import-free of
    ``repro.core`` (which imports back into this package).
    """
    registry = getattr(sim, "components", None)
    if registry is not None:
        registry.register(component)


class FaultModel(enum.Enum):
    """Which fault classes a system design accounts for.

    ``FAIL_STOP`` is the traditional model (absolute faults only);
    ``FAIL_STUTTER`` adds performance faults.  ``NONE`` (no faults at
    all) exists so experiments can express the naive baseline explicitly.
    """

    NONE = "none"
    FAIL_STOP = "fail-stop"
    FAIL_STUTTER = "fail-stutter"

    @property
    def handles_performance_faults(self) -> bool:
        """True only for the fail-stutter model."""
        return self is FaultModel.FAIL_STUTTER

    @property
    def handles_correctness_faults(self) -> bool:
        """True for fail-stop and fail-stutter."""
        return self is not FaultModel.NONE


class ComponentState(enum.Enum):
    """Observable state of a component under the fail-stutter model."""

    OK = "ok"
    DEGRADED = "degraded"
    STOPPED = "stopped"


@dataclass(frozen=True)
class PerformanceFault:
    """Record of one performance-fault episode on a component."""

    component: str
    start: float
    factor: float
    source: str
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Episode length, or None while still in progress."""
        if self.end is None:
            return None
        return self.end - self.start


@dataclass(frozen=True)
class CorrectnessFault:
    """Record of an absolute (fail-stop) fault on a component."""

    component: str
    time: float
    cause: str = "fail-stop"


class ComponentStopped(Exception):
    """Raised when work is submitted to a component that has fail-stopped."""

    def __init__(self, component: str):
        super().__init__(f"component {component!r} has stopped (fail-stop)")
        self.component = component


class DegradableMixin:
    """Multiplicative slowdown stack over a nominal service rate.

    Subclasses call :meth:`_init_degradable` during construction and
    implement :meth:`_apply_rate` to push the effective rate into their
    underlying server.  Fault sources are independent named channels so
    that, e.g., a static manufacturing skew and a transient GC stall
    compose without clobbering each other::

        disk.set_slowdown("skew", 0.9)       # permanently 90% of nominal
        disk.set_slowdown("recal", 0.0)      # stalled while recalibrating
        disk.clear_slowdown("recal")         # skew still in effect

    The mixin is also the atomic form of the system-wide ``Component``
    protocol (:mod:`repro.core.component`): it carries a substrate tag,
    an attached :class:`~repro.faults.spec.PerformanceSpec`, and a
    ``delivered_rate()`` telemetry hook, and state changes are emitted on
    the system telemetry bus when one is bound.
    """

    #: Which modeled hardware substrate the component belongs to
    #: (storage / network / processor / cluster); ``core`` for the
    #: mechanism layer itself.  Class attribute so subclasses override
    #: it declaratively.
    substrate = "core"

    #: Attached performance specification (None until :meth:`attach_spec`).
    spec = None

    #: Bound telemetry bus (None outside a ``System``); kept as a class
    #: attribute so plain-Simulator components pay one attribute load.
    _telemetry = None

    def _init_degradable(self, name: str, nominal_rate: float) -> None:
        if not 0 < nominal_rate < math.inf:  # also rejects NaN
            raise ValueError(f"nominal rate must be finite and > 0, got {nominal_rate}")
        self.name = name
        self.nominal_rate = float(nominal_rate)
        self._slowdowns: Dict[str, float] = {}
        self._stopped = False
        self.fault_log: List[Any] = []
        self._open_episodes: Dict[str, PerformanceFault] = {}

    # -- component protocol ---------------------------------------------------

    def attach_spec(self, spec):
        """Attach (or replace) this component's performance spec; returns self."""
        self.spec = spec
        return self

    def bind_telemetry(self, bus) -> None:
        """Connect this component to a system telemetry bus."""
        self._telemetry = bus

    def delivered_rate(self) -> float:
        """Currently delivered service rate (the telemetry observable).

        The mixin's honest answer is the effective rate; subclasses with
        a richer notion of delivered work (e.g. positional bandwidth)
        override this.
        """
        return self.effective_rate

    def _emit_telemetry_state(self) -> None:
        """Publish a state change (and any spec violation) on the bus."""
        bus = self._telemetry
        if bus is None or not bus.wants(self.name):
            return
        bus.emit("state-change", self.name, {"state": self.state.value})
        spec = self.spec
        if spec is not None:
            delivered = self.delivered_rate()
            if delivered < spec.fault_threshold_rate:
                bus.spec_violation(self.name, delivered, spec.fault_threshold_rate)

    # -- subclass hook --------------------------------------------------------

    def _apply_rate(self, rate: float) -> None:
        """Push the new effective rate into the underlying server."""
        raise NotImplementedError

    def _now(self) -> float:
        """Current simulation time (subclass provides the clock)."""
        raise NotImplementedError

    # -- fault surface ---------------------------------------------------------

    @property
    def effective_rate(self) -> float:
        """Nominal rate times every active slowdown factor (0 if stopped)."""
        if self._stopped:
            return 0.0
        rate = self.nominal_rate
        for factor in self._slowdowns.values():
            rate *= factor
        return rate

    @property
    def state(self) -> ComponentState:
        """OK, DEGRADED (any active slowdown) or STOPPED."""
        if self._stopped:
            return ComponentState.STOPPED
        if any(f < 1.0 for f in self._slowdowns.values()):
            return ComponentState.DEGRADED
        return ComponentState.OK

    @property
    def stopped(self) -> bool:
        """True after a fail-stop transition."""
        return self._stopped

    def set_slowdown(self, source: str, factor: float) -> None:
        """Apply ``factor`` (in [0, +inf)) on channel ``source``.

        Factors below 1 slow the component; a factor of exactly 0 stalls
        it; factors above 1 model components *faster* than nominal (the
        paper's incremental-growth scenario: a new fast disk looks like a
        performance-faulty old one from the other direction).
        """
        if factor < 0 or math.isnan(factor) or math.isinf(factor):
            raise ValueError(f"slowdown factor must be finite and >= 0, got {factor}")
        if self._stopped:
            return  # a stopped component stays stopped
        previous = self._slowdowns.get(source)
        self._slowdowns[source] = factor
        if factor < 1.0 and source not in self._open_episodes:
            episode = PerformanceFault(
                component=self.name, start=self._now(), factor=factor, source=source
            )
            self._open_episodes[source] = episode
        elif factor >= 1.0 and source in self._open_episodes:
            self._close_episode(source)
        elif previous != factor and source in self._open_episodes:
            # Same episode, new severity: close and reopen for the log.
            self._close_episode(source)
            self._open_episodes[source] = PerformanceFault(
                component=self.name, start=self._now(), factor=factor, source=source
            )
        self._apply_rate(self.effective_rate)
        if self._telemetry is not None:
            self._emit_telemetry_state()

    def clear_slowdown(self, source: str) -> None:
        """Remove channel ``source`` (no-op if absent)."""
        if source in self._slowdowns:
            del self._slowdowns[source]
            if source in self._open_episodes:
                self._close_episode(source)
            if not self._stopped:
                self._apply_rate(self.effective_rate)
            if self._telemetry is not None:
                self._emit_telemetry_state()

    def stop(self, cause: str = "fail-stop") -> None:
        """Absolute failure: the component halts, permanently and detectably."""
        if self._stopped:
            return
        for source in list(self._open_episodes):
            self._close_episode(source)
        self._stopped = True
        self.fault_log.append(CorrectnessFault(component=self.name, time=self._now(), cause=cause))
        self._apply_rate(0.0)
        if self._telemetry is not None:
            self._emit_telemetry_state()

    # -- internals ---------------------------------------------------------------

    def _close_episode(self, source: str) -> None:
        episode = self._open_episodes.pop(source)
        self.fault_log.append(
            PerformanceFault(
                component=episode.component,
                start=episode.start,
                factor=episode.factor,
                source=episode.source,
                end=self._now(),
            )
        )
