"""FailStutterSystem: the paper's model, assembled.

A :class:`FailStutterSystem` fronts a pool of degradable servers with:

* a per-server :class:`~repro.core.estimator.RateEstimator` fed by every
  completion (continuous gauging);
* a per-server detector reporting into the
  :class:`~repro.core.registry.PerformanceStateRegistry`;
* a routing policy choosing a server per request; and
* optionally a :class:`~repro.core.detection.CorrectnessWatchdog`
  promoting requests stuck past *T* into fail-stop faults.

The routing policies embody the paper's spectrum:

* :class:`RoundRobinRouter` -- the fail-stop illusion: all components
  assumed identical, rotation over live servers.
* :class:`JsqRouter` -- join-shortest-queue by *count*: load-aware but
  still blind to performance faults (a slow server's queue must already
  be long before it is avoided).
* :class:`WeightedRouter` -- fail-stutter: route to the server with the
  least *expected delay* given its estimated current rate and its
  outstanding work.

Experiment E14 measures Gray & Reuter availability across these.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..faults.component import DegradableServer
from ..faults.model import ComponentState, ComponentStopped
from ..faults.spec import PerformanceSpec
from ..sim.engine import Event, Simulator
from .component import ComponentRegistry, DetectorBinding, TelemetryBus
from .detection import CorrectnessWatchdog, ThresholdDetector
from .estimator import WindowedRateEstimator
from .registry import NotificationPolicy, PerformanceStateRegistry

__all__ = [
    "System",
    "Router",
    "RoundRobinRouter",
    "JsqRouter",
    "WeightedRouter",
    "FailStutterSystem",
]


class System(Simulator):
    """A simulator with a system-wide component registry and telemetry bus.

    Drop-in replacement for :class:`~repro.sim.engine.Simulator`: every
    device constructed against it (a :class:`Disk`, a :class:`Link`, a
    whole :class:`Raid10`) self-registers into :attr:`components` with
    its attached :class:`~repro.faults.spec.PerformanceSpec`, so faults
    and detectors attach purely by name::

        sim = System()
        Disk(sim, "d0")
        handle = sim.inject("d0", PeriodicBackground(period=5.0, duration=1.0, factor=0.25))
        binding = sim.watch("d0")            # ThresholdDetector on d0's spec
        sim.run(until=100.0)
        assert binding.faulty

    The structured telemetry stream (``completion`` / ``spec-violation``
    / ``state-change`` / ``injector-event`` records) is
    :attr:`telemetry`; subscribe to it to observe a run.
    """

    def __init__(self):
        super().__init__()
        self.telemetry = TelemetryBus(self)
        self.components = ComponentRegistry(self, self.telemetry)

    def inject(self, name: str, injector, rng=None):
        """Attach ``injector`` to the component registered as ``name``."""
        return self.components.inject(name, injector, rng)

    def watch(self, name: str, detector=None) -> DetectorBinding:
        """Subscribe a detector to the named component's telemetry stream."""
        return self.components.watch(name, detector)


class Router:
    """Interface: choose a server index for the next request."""

    def pick(self, system: "FailStutterSystem", work: float) -> int:
        """Index into ``system.servers`` for this request."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Rotate over live servers, assuming they are identical (fail-stop)."""

    def __init__(self):
        self._next = 0

    def pick(self, system: "FailStutterSystem", work: float) -> int:
        live = system.live_indices()
        if not live:
            raise ComponentStopped("all-servers")
        for __ in range(len(system.servers)):
            candidate = self._next % len(system.servers)
            self._next += 1
            if candidate in live:
                return candidate
        return live[0]  # pragma: no cover


class JsqRouter(Router):
    """Join the shortest queue by request count (rate-blind)."""

    def pick(self, system: "FailStutterSystem", work: float) -> int:
        live = system.live_indices()
        if not live:
            raise ComponentStopped("all-servers")
        return min(live, key=lambda i: (system.outstanding_count[i], i))


class WeightedRouter(Router):
    """Least expected delay using estimated rates (fail-stutter).

    Expected delay for server *i* is ``(outstanding_work_i + work) /
    estimated_rate_i``.  Servers the registry marks DEGRADED are still
    used -- at their degraded rate -- because "there is much to be gained
    by utilizing performance-faulty components"; only stopped servers are
    excluded.
    """

    def pick(self, system: "FailStutterSystem", work: float) -> int:
        live = system.live_indices()
        if not live:
            raise ComponentStopped("all-servers")

        def expected_delay(i: int) -> float:
            rate = system.estimated_rate(i)
            if rate <= 0:
                return float("inf")
            return (system.outstanding_work[i] + work) / rate

        return min(live, key=lambda i: (expected_delay(i), i))


class FailStutterSystem:
    """A monitored, routed pool of degradable servers.

    ``submit(work)`` routes one request and returns an event that fires
    with the request's response time (or fails if the chosen server
    fail-stops, or the watchdog promotes it).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: Sequence[DegradableServer],
        spec: PerformanceSpec,
        router: Optional[Router] = None,
        registry: Optional[PerformanceStateRegistry] = None,
        use_watchdog: bool = False,
        estimator_window: int = 8,
    ):
        if not servers:
            raise ValueError("need at least one server")
        self.sim = sim
        self.servers: List[DegradableServer] = list(servers)
        self.spec = spec
        self.router = router or WeightedRouter()
        self.registry = registry or PerformanceStateRegistry(
            sim, policy=NotificationPolicy.PERSISTENT_ONLY
        )
        self.watchdog = (
            CorrectnessWatchdog(sim, spec)
            if use_watchdog and spec.correctness_timeout is not None
            else None
        )
        if use_watchdog and spec.correctness_timeout is None:
            raise ValueError("use_watchdog requires spec.correctness_timeout")
        self._estimators = [
            ThresholdDetector(spec, WindowedRateEstimator(estimator_window))
            for __ in self.servers
        ]
        self.outstanding_work: List[float] = [0.0] * len(self.servers)
        self.outstanding_count: List[int] = [0] * len(self.servers)
        self.requests_routed = 0

    # -- views used by routers ---------------------------------------------------

    def live_indices(self) -> List[int]:
        """Indices of servers that have not fail-stopped."""
        return [i for i, s in enumerate(self.servers) if not s.stopped]

    def estimated_rate(self, index: int) -> float:
        """Best current rate estimate (nominal until observations exist)."""
        est = self._estimators[index].estimated_rate
        return est if est is not None else self.spec.nominal_rate

    def estimated_rates(self) -> Dict[str, float]:
        """Name -> estimated rate for every live server."""
        return {
            self.servers[i].name: self.estimated_rate(i) for i in self.live_indices()
        }

    # -- request path ----------------------------------------------------------------

    def submit(self, work: float) -> Event:
        """Route one request; the event fires with its response time."""
        if work <= 0:
            raise ValueError(f"work must be > 0, got {work}")
        index = self.router.pick(self, work)
        server = self.servers[index]
        self.requests_routed += 1
        issued = self.sim.now
        self.outstanding_work[index] += work
        self.outstanding_count[index] += 1
        raw = server.submit(work)
        watched = self.watchdog.guard(server, raw) if self.watchdog else raw
        result = self.sim.event()

        def on_done(ev: Event) -> None:
            self.outstanding_work[index] -= work
            self.outstanding_count[index] -= 1
            if not ev._ok:
                ev._defused = True
                self._note_failure(index)
                if not result.triggered:
                    result.fail(ev._value)
                    # Pre-defuse: the failure is already accounted for in
                    # the routing state; fire-and-forget callers must not
                    # crash the run, while waiters still see the error.
                    result._defused = True
                return
            stats = ev._value
            self._observe(index, work, stats.service_time)
            if not result.triggered:
                result.succeed(self.sim.now - issued)

        watched.callbacks.append(on_done)
        return result

    # -- monitoring ------------------------------------------------------------------

    def _observe(self, index: int, work: float, service_time: float) -> None:
        detector = self._estimators[index]
        detector.observe(work, service_time)
        rate = self.estimated_rate(index)
        factor = min(1.0, rate / self.spec.nominal_rate)
        state = (
            ComponentState.DEGRADED if detector.faulty else ComponentState.OK
        )
        self.registry.report(self.servers[index].name, state, factor)

    def _note_failure(self, index: int) -> None:
        server = self.servers[index]
        if server.stopped:
            self.registry.report(server.name, ComponentState.STOPPED, 0.0)
