"""The unified Component protocol, registry, and telemetry bus.

Section 3.1's prescription is system-wide: *every* component carries a
first-class performance specification, and the system can observe when
delivered performance falls below it.  Before this module existed only
the FIFO-server components (:class:`~repro.faults.component.DegradableServer`
and friends) had that wiring; caches, switches, RAID arrays and DHT
bricks each grew ad-hoc glue per experiment.

Three pieces unify the surface:

* :class:`Component` -- the protocol every simulated device satisfies:
  identity (``name``/``substrate``), an attached
  :class:`~repro.faults.spec.PerformanceSpec`, the
  :class:`~repro.faults.model.DegradableMixin` fault surface
  (``set_slowdown`` / ``clear_slowdown`` / ``stop``), and a
  ``delivered_rate()`` telemetry hook.
* :class:`ComponentRegistry` -- the name -> component map held by
  :class:`~repro.core.system.System`.  Devices register at construction
  (see :func:`register_component`), so any
  :class:`~repro.faults.injector.FaultInjector` can attach to any
  component *by name* and any detector can watch any component's
  telemetry without per-experiment glue.
* :class:`TelemetryBus` -- the one structured event stream.  Components
  emit :class:`~repro.sim.trace.TraceRecord` instances (kinds listed in
  :data:`TELEMETRY_KINDS`) and subscribers receive them: consumers of
  records per subject, taps (a run's trace sink, a hybrid runner) every
  record.  Detectors take a component's completions as plain
  ``(work, duration)`` calls through :meth:`TelemetryBus.observe`,
  without a record.  The bus is pay-for-what-you-use: with no tap, no
  subscriber and no observer for a subject,
  :meth:`TelemetryBus.wants` is False and components skip reporting
  entirely; a record is built only when a subscriber or a tap will
  receive it.

Registration is duck-typed on purpose: a component's constructor calls
``register_component(sim, self)``, which is a no-op unless ``sim`` has a
``components`` registry (i.e. is a :class:`~repro.core.system.System`).
Experiments built on a plain :class:`~repro.sim.engine.Simulator` pay
nothing and change nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Protocol, Sequence, runtime_checkable

from ..faults.model import ComponentState, register_component
from ..faults.spec import PerformanceSpec
from ..sim.trace import (
    COMPLETION,
    INJECTOR_EVENT,
    SPEC_VIOLATION,
    STATE_CHANGE,
    TraceRecord,
)

__all__ = [
    "SUBSTRATES",
    "TELEMETRY_KINDS",
    "Component",
    "CompositeComponent",
    "TelemetryBus",
    "ComponentRegistry",
    "DetectorBinding",
]

#: The substrate tags a component may carry (``core`` is the default for
#: components that belong to the mechanism layer rather than a modeled
#: hardware substrate).
SUBSTRATES = ("storage", "network", "processor", "cluster", "core")

#: Telemetry record kinds emitted through the bus.
TELEMETRY_KINDS = (COMPLETION, SPEC_VIOLATION, STATE_CHANGE, INJECTOR_EVENT)


@runtime_checkable
class Component(Protocol):
    """The protocol every registered component satisfies.

    Identity (``name``, ``substrate``), an attached spec, the
    ``DegradableMixin`` fault surface, and the ``delivered_rate()``
    telemetry hook.  Both :class:`~repro.faults.model.DegradableMixin`
    and :class:`CompositeComponent` implement it; the registry enforces
    it structurally at :meth:`ComponentRegistry.register` time.
    """

    name: str
    substrate: str

    @property
    def spec(self) -> Optional[PerformanceSpec]: ...

    @property
    def state(self) -> ComponentState: ...

    @property
    def stopped(self) -> bool: ...

    def delivered_rate(self) -> float: ...

    def set_slowdown(self, source: str, factor: float) -> None: ...

    def clear_slowdown(self, source: str) -> None: ...

    def stop(self, cause: str = ...) -> None: ...


#: Attributes checked structurally when a component registers.
_PROTOCOL_ATTRS = (
    "name",
    "substrate",
    "spec",
    "state",
    "stopped",
    "delivered_rate",
    "set_slowdown",
    "clear_slowdown",
    "stop",
)


class TelemetryBus:
    """Structured telemetry stream shared by every registered component.

    Components call :meth:`emit` (guarded by :meth:`wants`, so the idle
    bus costs one set lookup).  Three kinds of listener attach:

    * observers (:meth:`observe`): called as ``fn(work, duration)`` for
      each of one component's completions, before any record is built
      -- how detectors are fed;
    * subscribers (:meth:`subscribe`): every record about one
      component, of every kind;
    * taps (:meth:`subscribe_all`): every record on the bus, such as a
      run's trace sink.

    A record is built only when a subscriber or a tap will receive it.
    Every run builds a fresh bus, so a listener lasts as long as its
    run.
    """

    def __init__(self, sim):
        self.sim = sim
        self._subscribers: Dict[str, List[Any]] = {}
        self._observers: Dict[str, List[Any]] = {}
        self._taps: List[Any] = []
        #: False until anyone could possibly listen.  Hot emitters check
        #: this single attribute before calling :meth:`wants`, so a
        #: telemetry-free run pays one load per event, not a method call.
        self.active = False

    # -- routing ---------------------------------------------------------------

    def wants(self, subject: str) -> bool:
        """True when a report about ``subject`` would reach anyone."""
        if not self.active:
            return False
        return (
            subject in self._subscribers
            or subject in self._observers
            or bool(self._taps)
        )

    def observe(self, subject: str, fn) -> None:
        """Call ``fn(work, duration)`` for each completion on ``subject``."""
        self._observers.setdefault(subject, []).append(fn)
        self.active = True

    def subscribe(self, subject: str, callback) -> None:
        """Deliver every record about ``subject`` to ``callback``."""
        self._subscribers.setdefault(subject, []).append(callback)
        self.active = True

    def subscribe_all(self, callback) -> None:
        """Deliver every record on the bus to ``callback``."""
        self._taps.append(callback)
        self.active = True

    def emit(self, kind: str, subject: str, detail: Any = None) -> Optional[TraceRecord]:
        """Emit one record; None, and no record built, when no
        subscriber of ``subject`` and no tap would receive it."""
        subscribers = self._subscribers.get(subject)
        if subscribers is None and not self._taps:
            return None
        record = TraceRecord(self.sim._now, kind, subject, detail)
        if subscribers is not None:
            for callback in subscribers:
                callback(record)
        for callback in self._taps:
            callback(record)
        return record

    # -- convenience emitters -----------------------------------------------------

    def completion(self, subject: str, work: float, duration: float) -> None:
        """Report one completed unit of service.

        Observers of ``subject`` are called first, so a tap sees any
        spec-violation a detector emits before the completion record
        that tripped it.
        """
        observers = self._observers.get(subject)
        if observers is not None:
            for fn in observers:
                fn(work, duration)
        if subject in self._subscribers or self._taps:
            self.emit(COMPLETION, subject, (work, duration))

    def spec_violation(self, subject: str, observed: float, threshold: float,
                       source: str = "component") -> None:
        """Record delivered performance falling below the spec band."""
        self.emit(
            SPEC_VIOLATION,
            subject,
            {"observed": observed, "threshold": threshold, "source": source},
        )

    def injector_event(self, subject: str, source: str, action: str,
                       **detail: Any) -> None:
        """Announce fault application/restoration on ``subject``.

        ``action`` is ``"attach"``, ``"onset"``, ``"restore"`` or
        ``"cancel"``; ``source`` names the injector/campaign channel.
        Hybrid runners rely on these records (together with
        ``state-change``) to guarantee a fluid segment never spans an
        un-announced rate change.
        """
        self.emit(
            INJECTOR_EVENT, subject, {"source": source, "action": action, **detail}
        )


class DetectorBinding:
    """A detector fed one component's completions by the bus.

    Registered as an observer (:meth:`TelemetryBus.observe`), so every
    completion reaches :meth:`observe` without a record being built.
    Emits a ``spec-violation`` record each time the detector's verdict
    flips to faulty, and counts those flips in ``violations``.  Created
    by :meth:`ComponentRegistry.watch`.
    """

    def __init__(self, bus: TelemetryBus, component, detector):
        self.bus = bus
        self.component = component
        self.detector = detector
        self.violations = 0
        bus.observe(component.name, self.observe)

    @property
    def faulty(self) -> bool:
        """The detector's current verdict."""
        return self.detector.faulty

    def observe(self, work: float, duration: float) -> None:
        """Feed one completion to the detector; announce a flip to faulty."""
        detector = self.detector
        was_faulty = detector.faulty
        detector.observe(work, duration)
        if detector.faulty and not was_faulty:
            self.violations += 1
            spec = self.component.spec
            threshold = spec.fault_threshold_rate if spec is not None else float("nan")
            observed = getattr(detector, "estimated_rate", None)
            self.bus.spec_violation(
                self.component.name,
                observed if observed is not None else work / duration,
                threshold,
                source="detector",
            )


class ComponentRegistry:
    """Name -> component map for one :class:`~repro.core.system.System`.

    Registration happens at device construction (via
    :func:`~repro.faults.model.register_component`); afterwards faults
    and detectors attach purely by name::

        system.inject("d0", TransientStutter(...))
        binding = system.watch("d0")          # ThresholdDetector on d0's spec
    """

    def __init__(self, sim, telemetry: TelemetryBus):
        self.sim = sim
        self.telemetry = telemetry
        self._components: Dict[str, Any] = {}

    # -- registration -----------------------------------------------------------

    def register(self, component):
        """Add ``component`` (validated against the protocol); returns it."""
        missing = [a for a in _PROTOCOL_ATTRS if not hasattr(component, a)]
        if missing:
            raise TypeError(
                f"{type(component).__name__} does not satisfy the Component "
                f"protocol: missing {', '.join(missing)}"
            )
        name = component.name
        if name in self._components:
            raise ValueError(f"component name {name!r} already registered")
        self._components[name] = component
        bind = getattr(component, "bind_telemetry", None)
        if bind is not None:
            bind(self.telemetry)
        return component

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str):
        """The component registered as ``name`` (KeyError with hints)."""
        try:
            return self._components[name]
        except KeyError:
            known = ", ".join(sorted(self._components)) or "<none>"
            raise KeyError(f"no component {name!r}; registered: {known}") from None

    def names(self) -> List[str]:
        """All registered names, in registration order."""
        return list(self._components)

    def by_substrate(self, substrate: str) -> List[Any]:
        """Components tagged with ``substrate``, in registration order."""
        if substrate not in SUBSTRATES:
            raise ValueError(f"substrate must be one of {SUBSTRATES}, got {substrate!r}")
        return [c for c in self._components.values() if c.substrate == substrate]

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def __iter__(self) -> Iterator[Any]:
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    # -- attachment by name ----------------------------------------------------------

    def inject(self, name: str, injector, rng=None):
        """Attach a fault injector to the named component; returns the handle."""
        return injector.attach(self.sim, self.get(name), rng)

    def watch(self, name: str, detector=None) -> DetectorBinding:
        """Subscribe a detector to the named component's telemetry.

        ``detector`` defaults to a
        :class:`~repro.core.detection.ThresholdDetector` on the
        component's own spec (which must then be attached).
        """
        component = self.get(name)
        if detector is None:
            from .detection import ThresholdDetector

            if component.spec is None:
                raise ValueError(
                    f"component {name!r} has no spec; pass an explicit detector"
                )
            detector = ThresholdDetector(component.spec)
        return DetectorBinding(self.telemetry, component, detector)


class CompositeComponent:
    """Component surface for a device assembled from child components.

    RAID arrays, switches, fabrics, nodes and DHTs are compositions of
    degradable servers.  This mixin gives the composition itself the
    protocol surface: the fault calls fan out to every child, the state
    aggregates over children, and ``delivered_rate`` sums what the live
    children currently deliver.  Subclasses call :meth:`_init_component`
    during construction (which also registers with the sim's registry,
    when one exists).
    """

    substrate = "core"

    def _init_component(self, sim, name: str, children: Sequence[Any],
                        spec: Optional[PerformanceSpec] = None) -> None:
        self.name = name
        self._children: List[Any] = list(children)
        self.spec = spec
        self._telemetry: Optional[TelemetryBus] = None
        register_component(sim, self)

    # -- protocol surface --------------------------------------------------------

    def attach_spec(self, spec: PerformanceSpec):
        """Attach (or replace) this component's performance spec."""
        self.spec = spec
        return self

    def bind_telemetry(self, bus: TelemetryBus) -> None:
        """Connect this component to a system's telemetry bus."""
        self._telemetry = bus

    def _component_children(self) -> List[Any]:
        """The current child components (override for dynamic membership)."""
        return self._children

    def delivered_rate(self) -> float:
        """Aggregate delivered rate: sum over live children."""
        return sum(
            child.delivered_rate()
            for child in self._component_children()
            if not child.stopped
        )

    @property
    def state(self) -> ComponentState:
        """STOPPED if every child stopped; DEGRADED if any child is not OK."""
        children = self._component_children()
        if children and all(child.stopped for child in children):
            return ComponentState.STOPPED
        if any(child.state is not ComponentState.OK for child in children):
            return ComponentState.DEGRADED
        return ComponentState.OK

    @property
    def stopped(self) -> bool:
        """True when every child has fail-stopped."""
        children = self._component_children()
        return bool(children) and all(child.stopped for child in children)

    def set_slowdown(self, source: str, factor: float) -> None:
        """Apply one slowdown channel to every child."""
        for child in self._component_children():
            child.set_slowdown(source, factor)
        self._emit_state()

    def clear_slowdown(self, source: str) -> None:
        """Clear one slowdown channel on every child."""
        for child in self._component_children():
            child.clear_slowdown(source)
        self._emit_state()

    def stop(self, cause: str = "fail-stop") -> None:
        """Fail-stop the whole composition."""
        for child in self._component_children():
            child.stop(cause)
        self._emit_state()

    def _emit_state(self) -> None:
        bus = self._telemetry
        if bus is None or not bus.wants(self.name):
            return
        bus.emit(STATE_CHANGE, self.name, {"state": self.state.value})
        spec = self.spec
        if spec is not None:
            delivered = self.delivered_rate()
            if delivered < spec.fault_threshold_rate:
                bus.spec_violation(self.name, delivered, spec.fault_threshold_rate)
