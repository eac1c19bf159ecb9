"""The mitigation-policy interface the campaign engine drives.

A policy never touches a server directly.  All attempts flow through the
engine (``engine.attempt``), which owns the work accounting -- issued,
completed, claimed, wasted -- so the invariant oracle audits engine
counters rather than trusting whatever a policy claims about itself.  A
policy that tries to cheat (resolving requests it never served, or
simply never routing them) is caught by the oracle, which is exactly the
failure mode the campaign tests plant on purpose.

Engine surface available to policies (see
:class:`repro.faults.campaign.CampaignEngine`):

``engine.now``
    The simulation clock.
``engine.arm_timer(request, delay)``
    Call the policy's :meth:`MitigationPolicy.on_timer` with
    ``request`` after ``delay``, for timeout/hedge scheduling.  A
    request has at most one pending timer (re-arm from ``on_timer``
    itself), and the timer is dropped when its request resolves, so
    ``on_timer`` only ever sees an unresolved request.
``engine.attempt(request, name) -> bool``
    Issue one attempt on the named component.  False (nothing issued)
    when that component has already fail-stopped.
``engine.pick_candidate(request)``
    The default pick among the request's live replicas: untried
    members first, then the shortest queue, then name.
``engine.members`` / ``engine.route_probe``
    Member name -> its component (``backlog``: queued + in service),
    for load-aware routing; while ``route_probe`` is set, every backlog
    must read as zero.
``engine.nominal_rate`` / ``engine.expected_service``
    The nominal member rate and one-request service time, for
    rate-aware routing and timeout scaling.
``engine.give_up(request)``
    Resolve a request as failed (no live replica remains).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..faults.campaign import CampaignEngine, Request

__all__ = ["MitigationPolicy"]


class MitigationPolicy:
    """Base policy: route every request once, retry only on fail-stop.

    This base class *is* a meaningful policy -- "no mitigation": send
    each request to the least-loaded live replica and react only to
    detectable failures.  Subclasses layer timeouts, hedging or
    stutter-aware routing on top by overriding :meth:`start`,
    :meth:`pick` and the notification hooks.

    Policies are single-use: the engine constructs a fresh instance per
    scenario run (via the factories in :data:`repro.policy.POLICIES`), so
    instance state never leaks between runs -- a requirement for the
    oracle's byte-identical-rerun check.
    """

    #: Scorecard / CLI identifier.  Subclasses must override.
    name = "no-mitigation"

    def bind(self, engine: "CampaignEngine") -> None:
        """Called once, before any request, with the scenario engine.

        Subclasses that need per-run state (estimators, detector
        bindings) build it here; they must call ``super().bind(engine)``.
        """
        self.engine = engine

    def start(self, request: "Request") -> None:
        """Route the first attempt for ``request``."""
        if not self.engine.attempt(request, self.pick(request)):
            self.retry_elsewhere(request)

    def pick(self, request: "Request") -> str:
        """Choose the replica for the next attempt (override to re-route)."""
        candidate = self.engine.pick_candidate(request)
        if candidate is None:
            # No live replica: attempt() on a stopped name reports False
            # and the caller falls through to retry_elsewhere/give_up.
            return request.group[0]
        return candidate

    # -- hybrid-engine contract ----------------------------------------------------

    def hybrid_action_delay(self) -> Optional[float]:
        """Shortest delay after which this policy acts on an in-flight request.

        The hybrid engine may replace a fault-free stretch with a fluid
        fast-forward only if no request in that stretch lives long enough
        to trigger a policy timer (timeout, hedge, ...).  Policies with
        timers return their minimum possible delay; timer-free policies
        return ``None`` (no constraint).  Must only be called after
        :meth:`bind`.
        """
        return None

    def hybrid_fast_forward(
        self, completions: Iterable[Tuple[str, int, float, float]]
    ) -> None:
        """Replay fluid-era completions into policy state.

        ``completions`` yields ``(component, count, work, latency)``
        tuples in chronological order, summarising attempts the fluid
        engine resolved analytically.  Policies with observation-driven
        state (latency estimators, rate detectors) feed them here so
        their view matches what a discrete run would have produced; the
        stateless base policy ignores them.
        """

    # -- engine notifications ------------------------------------------------------

    def on_timer(self, request: "Request") -> None:
        """A timer armed with ``engine.arm_timer`` fired; ``request`` is
        still unresolved."""

    def on_attempt_completed(
        self, request: "Request", component: str, elapsed: float, claimed: bool
    ) -> None:
        """An attempt finished (``claimed`` False means duplicate/wasted).

        The engine calls this only on a policy whose class overrides it.
        """

    def on_attempt_failed(self, request: "Request", component: str) -> None:
        """An attempt died detectably (the component fail-stopped)."""
        if not request.resolved and request.outstanding == 0:
            self.retry_elsewhere(request)

    # -- shared fail-stop reaction -------------------------------------------------

    def retry_elsewhere(self, request: "Request") -> None:
        """Re-issue on any live replica; give up when none remain."""
        engine = self.engine
        candidate = engine.pick_candidate(request)
        while candidate is not None:
            if engine.attempt(request, candidate):
                return
            candidate = engine.pick_candidate(request)
        if not request.resolved and request.outstanding == 0:
            engine.give_up(request)
