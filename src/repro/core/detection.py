"""Performance-fault detectors.

Section 3.1: a component is performance-faulty when "it has not
absolutely failed ... and when its performance is less than that of its
performance specification."  Detectors decide, from completion
observations, whether that predicate currently holds.

Three detector families (compared head-to-head in ablation A3):

* :class:`ThresholdDetector` -- compare an estimated rate against the
  component's :class:`~repro.faults.spec.PerformanceSpec`.
* :class:`EwmaDetector` -- the same predicate over a smoothed estimate,
  with hysteresis to avoid flapping on transient stutters.
* :class:`PeerComparisonDetector` -- spec-free: flag components whose
  rate falls below a fraction of the peer median.  This is the only
  option when no spec exists ("this disk delivers 10 MB/s" was never
  written down), at the price of missing correlated degradation.

:class:`CorrectnessWatchdog` implements the paper's resolution of the
"arbitrarily slow vs. dead" blur: requests outstanding longer than the
spec's threshold *T* promote the component to fail-stopped.
"""

from __future__ import annotations

from statistics import median
from typing import Callable, Dict, List, Optional

from ..faults.model import DegradableMixin
from ..faults.spec import PerformanceSpec
from ..sim.engine import Event, Simulator
from .estimator import EwmaRateEstimator, RateEstimator, WindowedRateEstimator

__all__ = [
    "Detector",
    "ThresholdDetector",
    "EwmaDetector",
    "PeerComparisonDetector",
    "CorrectnessWatchdog",
]


class Detector:
    """Interface: feed completion observations, read a verdict."""

    def observe(self, work: float, duration: float) -> None:
        """Record a completion on the monitored component."""
        raise NotImplementedError

    @property
    def faulty(self) -> bool:
        """True while the component is judged performance-faulty."""
        raise NotImplementedError


class ThresholdDetector(Detector):
    """Flags when the estimated rate underruns the spec's tolerance band.

    ``min_samples`` observations are required before any verdict, so a
    cold start is never a fault.  The verdict and the rate estimate only
    change in :meth:`observe`, so that is where they are computed, once
    per observation; :attr:`faulty` and :attr:`estimated_rate` read the
    stored values.  Feed the estimator through :meth:`observe` only.
    """

    def __init__(
        self,
        spec: PerformanceSpec,
        estimator: Optional[RateEstimator] = None,
        min_samples: int = 3,
    ):
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.spec = spec
        self.estimator = estimator or WindowedRateEstimator(window=8)
        self.min_samples = min_samples
        self._observations = 0
        self._rate = self.estimator.rate()
        self._faulty = False

    def observe(self, work: float, duration: float) -> None:
        estimator = self.estimator
        estimator.observe(work, duration)
        self._observations += 1
        rate = self._rate = estimator.rate()
        self._faulty = (
            self._observations >= self.min_samples
            and rate is not None
            and self.spec.is_performance_fault(rate)
        )

    @property
    def faulty(self) -> bool:
        return self._faulty

    @property
    def estimated_rate(self) -> Optional[float]:
        """Current rate estimate feeding the verdict."""
        return self._rate


class EwmaDetector(Detector):
    """Smoothed detector with trip/clear hysteresis.

    Trips when the EWMA rate drops below ``trip_fraction`` of nominal;
    clears only when it recovers past ``clear_fraction``.  The gap stops
    a component sitting at the boundary from flapping in and out of the
    registry (which would defeat the paper's "don't broadcast transient
    faults" advice).
    """

    def __init__(
        self,
        spec: PerformanceSpec,
        alpha: float = 0.25,
        trip_fraction: Optional[float] = None,
        clear_fraction: Optional[float] = None,
        min_samples: int = 3,
    ):
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.spec = spec
        self.estimator = EwmaRateEstimator(alpha=alpha)
        self.trip_fraction = (
            trip_fraction if trip_fraction is not None else 1.0 - spec.tolerance
        )
        self.clear_fraction = (
            clear_fraction if clear_fraction is not None else min(1.0, self.trip_fraction + 0.1)
        )
        if not 0.0 < self.trip_fraction <= self.clear_fraction:
            raise ValueError("need 0 < trip_fraction <= clear_fraction")
        self.min_samples = min_samples
        self._observations = 0
        self._tripped = False

    def observe(self, work: float, duration: float) -> None:
        self.estimator.observe(work, duration)
        self._observations += 1
        if self._observations < self.min_samples:
            return
        rate = self.estimator.rate()
        if rate is None:
            return
        if not self._tripped and rate < self.trip_fraction * self.spec.nominal_rate:
            self._tripped = True
        elif self._tripped and rate >= self.clear_fraction * self.spec.nominal_rate:
            self._tripped = False

    @property
    def faulty(self) -> bool:
        return self._tripped


class PeerComparisonDetector:
    """Spec-free detection: compare each component against the peer median.

    Feed per-component rates with :meth:`observe`; :meth:`faulty_peers`
    returns the set of components currently below ``fraction`` of the
    median live rate.  Needs at least three peers to be meaningful.
    """

    def __init__(self, fraction: float = 0.5, min_peers: int = 3):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_peers < 3:
            raise ValueError(f"min_peers must be >= 3, got {min_peers}")
        self.fraction = fraction
        self.min_peers = min_peers
        self._rates: Dict[str, float] = {}

    def observe(self, component: str, rate: float) -> None:
        """Record ``component``'s current estimated rate."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._rates[component] = rate

    def forget(self, component: str) -> None:
        """Drop a component (e.g. after fail-stop removal)."""
        self._rates.pop(component, None)

    def faulty_peers(self) -> List[str]:
        """Components currently below ``fraction`` of the peer median."""
        if len(self._rates) < self.min_peers:
            return []
        med = median(self._rates.values())
        if med <= 0:
            return []
        return sorted(
            name for name, rate in self._rates.items() if rate < self.fraction * med
        )

    def is_faulty(self, component: str) -> bool:
        """Whether one specific component is flagged."""
        return component in self.faulty_peers()


class CorrectnessWatchdog:
    """Promotes an arbitrarily slow component to fail-stopped.

    Wraps request events: if a guarded request is still outstanding after
    the spec's ``correctness_timeout`` *T*, the watchdog declares the
    component absolutely failed (calling ``component.stop()`` by default,
    or a custom ``on_promote``).  This is the paper's mechanism for
    keeping "arbitrarily slow" from blurring into "dead" (Section 3.1);
    ablation A2 sweeps *T*.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: PerformanceSpec,
        on_promote: Optional[Callable[[DegradableMixin], None]] = None,
    ):
        if spec.correctness_timeout is None:
            raise ValueError("spec must define correctness_timeout (T)")
        self.sim = sim
        self.spec = spec
        self.on_promote = on_promote
        self.promotions = 0

    def guard(self, component: DegradableMixin, request: Event) -> Event:
        """Watch ``request``; fail it (and the component) if it exceeds T.

        Returns an event that fires with the request's value, or fails
        with :class:`TimeoutError` if the watchdog promoted the fault.
        """
        guarded = self.sim.event()
        timeout = self.sim.timeout(self.spec.correctness_timeout)

        def on_request(ev: Event) -> None:
            if guarded.triggered:
                return
            if ev._ok:
                guarded.succeed(ev._value)
            else:
                ev._defused = True
                guarded.fail(ev._value)

        def on_timeout(__: Event) -> None:
            if guarded.triggered:
                return
            self.promotions += 1
            if self.on_promote is not None:
                self.on_promote(component)
            else:
                component.stop(cause="watchdog-T")
            if not guarded.triggered:
                # Stopping the component may already have failed the
                # request (which resolves `guarded` via on_request).
                guarded.fail(
                    TimeoutError(
                        f"{component.name} exceeded T={self.spec.correctness_timeout}s"
                    )
                )

        request.callbacks.append(on_request)
        timeout.callbacks.append(on_timeout)
        return guarded
