"""Timeout-driven policies: the fail-stop family and its refinements.

:class:`FixedTimeoutPolicy` is the baseline the paper argues against:
a request slower than a fixed multiple of the expected service time is
treated as lost and re-issued on a mirror.  Under a genuine fail-stop
that reflex is exactly right; under a stutter it mistakes *slow* for
*stopped* and floods the already-degraded replica group with duplicate
work.  :class:`AdaptiveTimeoutPolicy` and :class:`RetryBackoffPolicy`
are the two classic softenings -- chase the observed latency, or back
off exponentially -- and the campaign scorecard measures how much of the
damage each actually undoes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.estimator import LatencyEstimator
from .base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults.campaign import Request

__all__ = ["FixedTimeoutPolicy", "AdaptiveTimeoutPolicy", "RetryBackoffPolicy"]


class FixedTimeoutPolicy(MitigationPolicy):
    """Declare any attempt slower than ``timeout_factor * E[service]`` lost.

    On timeout the request is re-issued on another live replica (the
    original attempt is *not* cancelled -- there is no cancel on a disk
    or a remote brick; whichever attempt finishes first claims the
    request and the rest is wasted work, which the scorecard charges).
    ``max_attempts`` bounds the retry storm per request.
    """

    name = "fixed-timeout"

    def __init__(self, timeout_factor: float = 5.0, max_attempts: int = 4):
        if timeout_factor <= 0:
            raise ValueError(f"timeout_factor must be > 0, got {timeout_factor}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.timeout_factor = timeout_factor
        self.max_attempts = max_attempts

    def bind(self, engine) -> None:
        super().bind(engine)
        self.base_timeout = self.timeout_factor * engine.expected_service

    def start(self, request: "Request") -> None:
        super().start(request)
        if not request.resolved:
            self._arm(request)

    def current_timeout(self, request: "Request") -> float:
        """The timeout for the request's next wait (hook for subclasses)."""
        return self.base_timeout

    def hybrid_action_delay(self):
        return self.base_timeout

    def _arm(self, request: "Request") -> None:
        self.engine.arm_timer(request, self.current_timeout(request))

    def on_timer(self, request: "Request") -> None:
        if request.attempts >= self.max_attempts:
            # Retry budget exhausted: wait out whatever is still queued.
            return
        candidate = self.engine.pick_candidate(request)
        if candidate is not None and self.engine.attempt(request, candidate):
            self._arm(request)


class AdaptiveTimeoutPolicy(FixedTimeoutPolicy):
    """Fixed-timeout reflex with a Jacobson/Karels adaptive threshold.

    Completed-attempt latencies feed a :class:`LatencyEstimator`; the
    timeout is ``mean + k * deviation`` (floored at one nominal service
    time, ceilinged by nothing).  When a stutter slows completions, the
    estimate inflates and the policy stops declaring the group dead --
    the EWMA-timeout design the issue calls for, at the price of slower
    reaction to a true fail-stop.
    """

    name = "adaptive-timeout"

    def __init__(self, timeout_factor: float = 5.0, max_attempts: int = 4,
                 alpha: float = 0.125, beta: float = 0.25, k: float = 4.0):
        super().__init__(timeout_factor=timeout_factor, max_attempts=max_attempts)
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def bind(self, engine) -> None:
        super().bind(engine)
        # Seed so the initial timeout (mean + k*mean/2) equals the fixed
        # policy's threshold: the two start identical and only diverge as
        # observations arrive.
        self.estimator = LatencyEstimator(
            initial=self.base_timeout / (1.0 + self.k / 2.0),
            alpha=self.alpha,
            beta=self.beta,
            k=self.k,
            # The TCP min-RTO lesson: with near-deterministic service the
            # deviation collapses and an unfloored timeout would duplicate
            # on ordinary queueing delay.  Half the fixed threshold keeps
            # the policy adaptive without that failure mode.
            floor=self.base_timeout / 2.0,
        )

    def current_timeout(self, request: "Request") -> float:
        return self.estimator.timeout()

    def on_attempt_completed(self, request, component, elapsed, claimed) -> None:
        self.estimator.observe(elapsed)

    def hybrid_action_delay(self):
        # timeout() = max(mean + k*dev, floor): the floor is the tightest
        # threshold any amount of observation can reach.
        return self.estimator.floor

    def hybrid_fast_forward(self, completions) -> None:
        # Feed the estimator the latencies a discrete run would have shown
        # it.  The EWMA converges to a floating-point fixed point on a
        # constant input, so the replay is capped: beyond the cap extra
        # identical observations cannot change the state.
        for _component, count, _work, latency in completions:
            for _ in range(min(count, 4096)):
                self.estimator.observe(latency)


class RetryBackoffPolicy(FixedTimeoutPolicy):
    """Fixed timeout with per-request exponential backoff.

    The n-th wait for one request lasts ``base * multiplier**(n-1)``:
    the first retry is as trigger-happy as the fixed policy, but a
    request that keeps timing out waits exponentially longer before
    adding yet another duplicate to a struggling group.
    """

    name = "retry-backoff"

    def __init__(self, timeout_factor: float = 5.0, max_attempts: int = 4,
                 multiplier: float = 2.0):
        super().__init__(timeout_factor=timeout_factor, max_attempts=max_attempts)
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        self.multiplier = multiplier

    def current_timeout(self, request: "Request") -> float:
        exponent = max(0, request.attempts - 1)
        return self.base_timeout * self.multiplier**exponent
