"""Hedged requests: tolerate slowness by racing a duplicate.

The paper credits Shasha & Turek's slow-down-tolerant transactions as
prior art for designs that *plan* for degraded components instead of
declaring them dead.  The modern incarnation is the hedged request
(Dean & Barroso's tail-at-scale trick): if an attempt has not completed
after a hedge delay, issue one duplicate on a mirror and take whichever
answers first.  Latency is bought with bounded, *intentional* duplicate
work -- the scorecard's wasted-work column prices exactly that trade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults.campaign import Request

__all__ = ["HedgedRequestPolicy"]


class HedgedRequestPolicy(MitigationPolicy):
    """Issue one duplicate attempt after ``hedge_factor * E[service]``.

    At most one hedge per request (the tail-at-scale discipline: hedging
    the hedge multiplies load during exactly the episodes that least
    afford it).  Fail-stops still trigger the base-class retry, so the
    policy remains live when a whole attempt dies.
    """

    name = "hedged"

    def __init__(self, hedge_factor: float = 3.0):
        if hedge_factor <= 0:
            raise ValueError(f"hedge_factor must be > 0, got {hedge_factor}")
        self.hedge_factor = hedge_factor

    def bind(self, engine) -> None:
        super().bind(engine)
        self.hedge_delay = self.hedge_factor * engine.expected_service

    def start(self, request: "Request") -> None:
        super().start(request)
        if not request.resolved:
            self.engine.arm_timer(request, self.hedge_delay)

    def on_timer(self, request: "Request") -> None:
        if request.attempts >= 2:
            return
        candidate = self.engine.pick_candidate(request)
        if candidate is not None:
            self.engine.attempt(request, candidate)

    def hybrid_action_delay(self):
        return self.hedge_delay
