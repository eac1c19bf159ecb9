"""Performance specifications.

Section 3.1 of the paper makes the performance specification a first-class
part of the model: a component is *performance-faulty* exactly when it is
not absolutely failed and its delivered performance falls below its spec.
The paper also proposes resolving the blur between "arbitrarily slow" and
"dead" with a threshold *T*: a request taking longer than *T* is treated
as a correctness fault.

The paper further argues the spec should offer the designer a trade-off
between simplicity and fidelity ("this disk delivers 10 MB/s" vs. a
detailed model).  :class:`PerformanceSpec` is the simple end;
:class:`BandedSpec` adds a load-dependent band, which the A5 ablation uses
to quantify the trade-off (simpler spec => more frequent nominal
"performance faults").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PerformanceSpec", "BandedSpec"]


@dataclass(frozen=True)
class PerformanceSpec:
    """The simple performance contract for one component.

    Parameters
    ----------
    nominal_rate:
        Advertised service rate in work units per unit time (e.g. MB/s).
    tolerance:
        Fraction of the nominal rate the component may drop below spec
        before it counts as performance-faulty.  ``0.2`` means delivering
        less than 80% of nominal is a performance fault.
    correctness_timeout:
        The threshold *T*: a single request outstanding longer than this
        is promoted to a correctness fault (the component is treated as
        fail-stopped).  ``None`` disables promotion.
    """

    nominal_rate: float
    tolerance: float = 0.2
    correctness_timeout: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.nominal_rate < float("inf"):  # also rejects NaN
            raise ValueError(
                f"nominal_rate must be finite and > 0, got {self.nominal_rate}"
            )
        if not 0.0 <= self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in [0, 1), got {self.tolerance}")
        if self.correctness_timeout is not None and self.correctness_timeout <= 0:
            raise ValueError(
                f"correctness_timeout must be > 0, got {self.correctness_timeout}"
            )

    @property
    def fault_threshold_rate(self) -> float:
        """Rates strictly below this are performance faults."""
        return self.nominal_rate * (1.0 - self.tolerance)

    def is_performance_fault(self, observed_rate: float) -> bool:
        """True when ``observed_rate`` is below the spec's tolerance band."""
        if observed_rate < 0:
            raise ValueError(f"observed_rate must be >= 0, got {observed_rate}")
        return observed_rate < self.fault_threshold_rate

    def is_correctness_fault(self, request_latency: float) -> bool:
        """True when a request exceeded the promotion threshold *T*."""
        if self.correctness_timeout is None:
            return False
        return request_latency > self.correctness_timeout

    def expected_latency(self, work: float) -> float:
        """Latency the spec predicts for ``work`` units at nominal rate."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        return work / self.nominal_rate


@dataclass(frozen=True)
class BandedSpec:
    """A higher-fidelity spec: expected rate varies with observed load.

    Models the "more detailed model" end of Section 3.1's trade-off.  The
    expected rate interpolates linearly between ``rate_at_idle`` and
    ``rate_at_saturation`` as utilization rises; the component is
    performance-faulty only when it underruns the *load-adjusted*
    expectation by more than ``tolerance``.
    """

    rate_at_idle: float
    rate_at_saturation: float
    tolerance: float = 0.2
    correctness_timeout: Optional[float] = None

    def __post_init__(self):
        if self.rate_at_idle <= 0 or self.rate_at_saturation <= 0:
            raise ValueError("rates must be > 0")
        if self.rate_at_saturation > self.rate_at_idle:
            raise ValueError("saturated rate cannot exceed idle rate")
        if not 0.0 <= self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in [0, 1), got {self.tolerance}")

    def expected_rate(self, utilization: float) -> float:
        """Spec rate at the given utilization (clamped to [0, 1])."""
        u = min(1.0, max(0.0, utilization))
        return self.rate_at_idle + (self.rate_at_saturation - self.rate_at_idle) * u

    def is_performance_fault(self, observed_rate: float, utilization: float) -> bool:
        """True when the rate underruns the load-adjusted expectation."""
        if observed_rate < 0:
            raise ValueError(f"observed_rate must be >= 0, got {observed_rate}")
        return observed_rate < self.expected_rate(utilization) * (1.0 - self.tolerance)

    def is_correctness_fault(self, request_latency: float) -> bool:
        """True when a request exceeded the promotion threshold *T*."""
        if self.correctness_timeout is None:
            return False
        return request_latency > self.correctness_timeout
