"""Online service-rate estimators.

Adaptive fail-stutter policies need a current estimate of each
component's delivered rate.  Estimators consume ``(work, duration)``
completion observations and expose a rate; the choice of estimator is a
real design decision (window length trades detection latency against
false positives -- the A3 ablation).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

__all__ = [
    "RateEstimator",
    "WindowedRateEstimator",
    "EwmaRateEstimator",
    "LatencyEstimator",
]


class RateEstimator:
    """Interface: feed completions, read a rate estimate."""

    def observe(self, work: float, duration: float) -> None:
        """Record that ``work`` units completed in ``duration`` seconds."""
        raise NotImplementedError

    def rate(self) -> Optional[float]:
        """Current estimate (work units / second), or None if no data."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all history."""
        raise NotImplementedError

    @staticmethod
    def _validate(work: float, duration: float) -> None:
        if work <= 0:
            raise ValueError(f"work must be > 0, got {work}")
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")


class WindowedRateEstimator(RateEstimator):
    """Mean rate over the last ``window`` completions.

    The estimate is total work over total duration in the window -- a
    work-weighted harmonic view, so one large slow request counts as much
    as it should.
    """

    def __init__(self, window: int = 8):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        # Two parallel windows summed with sum() in arrival order: the
        # same float additions as a fresh re-sum (running totals would
        # drift), without a generator per call.
        self._works: Deque[float] = deque(maxlen=window)
        self._durations: Deque[float] = deque(maxlen=window)

    def observe(self, work: float, duration: float) -> None:
        self._validate(work, duration)
        self._works.append(work)
        self._durations.append(duration)

    def rate(self) -> Optional[float]:
        if not self._works:
            return None
        total_time = sum(self._durations)
        if total_time <= 0:
            return float("inf")
        return sum(self._works) / total_time

    def reset(self) -> None:
        self._works.clear()
        self._durations.clear()

    def __len__(self) -> int:
        return len(self._works)


class EwmaRateEstimator(RateEstimator):
    """Exponentially weighted moving average of per-completion rates.

    ``alpha`` is the weight of the newest observation.  Smaller alpha
    smooths transient stutters away (fewer false positives, slower
    detection); larger alpha reacts quickly.
    """

    def __init__(self, alpha: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._estimate: Optional[float] = None

    def observe(self, work: float, duration: float) -> None:
        self._validate(work, duration)
        sample = float("inf") if duration == 0 else work / duration
        if self._estimate is None:
            self._estimate = sample
        else:
            self._estimate = self.alpha * sample + (1 - self.alpha) * self._estimate

    def rate(self) -> Optional[float]:
        return self._estimate

    def reset(self) -> None:
        self._estimate = None


class LatencyEstimator:
    """Jacobson/Karels smoothed latency with mean deviation.

    The adaptive-timeout policy question is "how long is *unusually*
    long right now?", which is the TCP retransmit-timer problem: track a
    smoothed round-trip latency and its mean deviation, and time out at
    ``mean + k * deviation``.  Under a stutter episode the estimate
    inflates with the observed latencies, so the timeout chases the
    delivered (degraded) performance instead of declaring the component
    dead -- exactly the fail-stutter reading of "slow is not stopped".

    ``initial`` seeds the estimate before any observation (typically the
    spec's expected latency for one request); ``floor`` bounds the
    timeout from below so a burst of fast completions cannot collapse it
    to zero.
    """

    def __init__(
        self,
        initial: float,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
        floor: Optional[float] = None,
    ):
        if initial <= 0:
            raise ValueError(f"initial must be > 0, got {initial}")
        if not 0.0 < alpha <= 1.0 or not 0.0 < beta <= 1.0:
            raise ValueError("alpha and beta must be in (0, 1]")
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.floor = floor if floor is not None else initial
        self._mean = float(initial)
        self._dev = float(initial) / 2.0
        self._observations = 0

    @property
    def mean(self) -> float:
        """Current smoothed latency estimate."""
        return self._mean

    @property
    def deviation(self) -> float:
        """Current smoothed mean deviation."""
        return self._dev

    @property
    def observations(self) -> int:
        """Number of samples consumed."""
        return self._observations

    def observe(self, latency: float) -> None:
        """Feed one observed request latency."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        error = latency - self._mean
        self._mean += self.alpha * error
        self._dev += self.beta * (abs(error) - self._dev)
        self._observations += 1

    def timeout(self) -> float:
        """The current adaptive timeout, ``max(floor, mean + k * dev)``."""
        return max(self.floor, self._mean + self.k * self._dev)
