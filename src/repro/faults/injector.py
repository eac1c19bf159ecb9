"""Fault-injection framework.

A :class:`FaultInjector` is a reusable description of a fault *process*
(when faults start, how long they last, how severe they are).  Attaching
an injector to a :class:`~repro.faults.model.DegradableMixin` component
starts a simulation process that drives the component's slowdown channels
according to that description.

Injectors never touch component internals: the only surface they use is
``set_slowdown`` / ``clear_slowdown`` / ``stop``, so any component in any
substrate can be subjected to any fault from the library.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence

from ..sim.engine import Simulator
from .model import DegradableMixin

__all__ = ["FaultInjector", "InjectorHandle"]

_injector_ids = itertools.count()


class InjectorHandle:
    """A started injector: the process driving faults on one target."""

    def __init__(self, injector: "FaultInjector", target: DegradableMixin):
        self.injector = injector
        #: The component this handle's fault process acts on (used by
        #: ``cancel(restore=True)`` to clear the injector's channel).
        self.target = target
        self.cancelled = False

    def cancel(self, restore: bool = True) -> None:
        """Stop injecting; by default also undo applied slowdowns.

        With ``restore=True`` (the default) the slowdown channel this
        injector owns is cleared from its target, so a cancelled fault
        actually ends instead of freezing the component at its last
        degraded rate.  Pass ``restore=False`` for the old behaviour
        (stop driving, leave the applied factor in place).
        """
        self.cancelled = True
        self.injector._announce(self.target, "cancel", restore=restore)
        if restore:
            self.target.clear_slowdown(self.injector.source)


class FaultInjector:
    """Base class for fault injectors.

    Subclasses implement :meth:`_drive`, a generator that manipulates the
    target's slowdown channels over simulated time.  The ``source``
    channel name is unique per injector instance so that multiple
    injectors compose on one component.
    """

    #: Human-readable fault kind, e.g. "transient-stutter".
    kind: str = "fault"

    def __init__(self, source: Optional[str] = None):
        self.source = source or f"{self.kind}#{next(_injector_ids)}"

    def attach(
        self,
        sim: Simulator,
        target: DegradableMixin,
        rng: Optional[random.Random] = None,
    ) -> InjectorHandle:
        """Start injecting faults into ``target``; returns a handle."""
        rng = rng or random.Random(0)
        handle = InjectorHandle(self, target)
        sim.process(self._drive(sim, target, rng, handle))
        self._announce(target, "attach")
        return handle

    def attach_all(
        self,
        sim: Simulator,
        targets: Sequence[DegradableMixin],
        rng: Optional[random.Random] = None,
    ) -> List[InjectorHandle]:
        """Attach an independent copy of this fault process to each target."""
        return [self.attach(sim, t, rng) for t in targets]

    # -- subclass hook ---------------------------------------------------------

    def _drive(self, sim, target, rng, handle):
        """Generator driving the fault process (subclass responsibility)."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- helpers for subclasses --------------------------------------------------

    def _announce(self, target: DegradableMixin, action: str, **detail) -> None:
        """Publish an ``injector-event`` record on the target's bus.

        Attach and cancel are the two injector actions that change (or
        promise to change) a component's delivered rate outside any
        scheduled scenario, so a registered hybrid runner must hear
        about them.  No-op when the target has no bound telemetry or
        nobody listens.
        """
        bus = getattr(target, "_telemetry", None)
        if bus is not None and bus.wants(target.name):
            bus.injector_event(
                target.name, self.source, action, kind=self.kind, **detail
            )
