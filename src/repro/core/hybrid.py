"""Hybrid fluid/discrete campaign execution.

The discrete campaign engine (:mod:`repro.faults.campaign`) simulates
every request as heap events, which caps a run at ~10^5 requests.  But a
campaign spends almost all of its virtual time *between* fault
transitions, where the replicated workload is a bank of underloaded FIFO
servers whose behaviour has a closed form: every request is routed the
same way, served in exactly ``work / rate`` seconds, and triggers no
policy timer.  :class:`HybridRunner` exploits that: it fast-forwards the
fault-free stretches analytically through the closed-form FIFO
reconstruction in :mod:`repro.sim.fluid` and drops into exact discrete
simulation only inside a *window* bracketing each fault transition.

Boundary invariants (the contract the equivalence suite in
``tests/core/test_hybrid_equivalence.py`` checks):

* **Announced transitions are exact.**  Every scheduled fault edge gets
  a discrete window opening ``2 * E[service]`` before its onset --
  enough that all fluid-admitted work has drained before the rate
  changes -- and closing only once the system is *fluid-safe* again: no
  component DEGRADED, nothing queued, and any job still in service is a
  fresh single attempt that provably completes before both its policy's
  earliest timer and its member's next fluid arrival (full quiescence is
  unreachable under continuous arrivals, since ``gap < E[service]``
  keeps some request in flight at every instant).  Residuals then drain
  as ordinary discrete events inside the fluid era.  Request counts,
  per-server work, and failure counts therefore match the discrete
  engine exactly; latencies match to float-accumulation noise.
* **Un-announced transitions never silently corrupt a segment.**  The
  runner taps the telemetry bus; any ``state-change`` /
  ``spec-violation`` / ``injector-event`` record observed outside a
  window interrupts the fluid clock *at that instant* and opens an
  unplanned window there.  A fault source that never restores keeps the
  run discrete (correct, merely slow) rather than wrong.
* **Saturated workloads are exact under timer-free policies.**  When
  arrivals outpace service the backlog no longer clears between
  windows; the runner then reconstructs every request's FIFO response
  time in closed form (:func:`~repro.sim.fluid.fifo_uniform_ramps`) and
  carries the queue *across* the fluid/discrete boundary: a window
  opening mid-backlog inherits the fluid queue as pre-seeded
  in-service/queued discrete jobs
  (:meth:`~repro.faults.campaign.CampaignEngine.preseed_request`), and
  a window closing with residual queue hands it back to the fluid bank
  as per-member initial backlog (``busy_until``).  The
  work-conservation identity *arrived = completed + backlog* is
  enforced numerically at every handoff.  Queueing is only admitted
  where routing stays provably constant: the policy must be timer-free
  (``hybrid_action_delay() is None``) and any queueing replica group
  must be *pinned* -- exactly one live member -- since with two live
  members the discrete engine's queue-depth tie-breaking would
  alternate routes in ways no per-group fluid model reproduces.
* **Feasibility is checked, not assumed.**  Policies with timers keep
  the strict underloaded preconditions: per-member arrivals slower
  than service (``gap * n_groups > E``) and the earliest timer
  (:meth:`~repro.policy.MitigationPolicy.hybrid_action_delay`) beyond
  the fault-free response time.  Violations -- at bind time or
  per-era -- raise :class:`HybridInfeasible`, which
  :func:`repro.faults.campaign.run_scenario` turns into a full
  discrete fallback, its message kept as the outcome's ``fallback``.

Policy state stays honest across the fluid stretches: the analytic
completions are replayed into the policy via
:meth:`~repro.policy.MitigationPolicy.hybrid_fast_forward` at the next
window open, so adaptive estimators and stutter detectors see the same
observations a discrete run would have fed them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..faults import campaign
from ..faults.model import ComponentState
from ..sim.fluid import FluidRamp, fifo_uniform_ramps
from ..sim.trace import COMPLETION
from .system import System

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults.campaign import CampaignWorkload, Scenario, ScenarioOutcome
    from ..policy import MitigationPolicy

__all__ = [
    "HybridInfeasible",
    "HybridRunner",
    "feasibility_reason",
    "run_scenario_hybrid",
    "scale_scenario",
    "scale_workload",
    "shape_feasibility",
]


class HybridInfeasible(RuntimeError):
    """The workload/policy pair is outside the hybrid engine's exact regime."""


def shape_feasibility(workload: "CampaignWorkload") -> Optional[str]:
    """Why a *timer-bearing* policy could not bind to this workload shape.

    ``None`` when the underloaded margin holds (per-member arrival
    spacing above the nominal service time), in which case bind-time
    feasibility reduces to the per-policy action-delay check.
    Timer-free policies bind regardless of this answer -- their exact
    regime extends into saturation -- so a non-``None`` reason here
    means "hybrid is timer-free-only", not "hybrid is off".
    """
    service = workload.expected_service
    cohort_gap = workload.gap * workload.n_pairs
    if not cohort_gap > service * (1.0 + 1e-9):
        return (
            f"per-member arrival spacing {cohort_gap:.6g}s must exceed "
            f"the nominal service time {service:.6g}s"
        )
    return None


def feasibility_reason(workload: "CampaignWorkload",
                       policy: "MitigationPolicy") -> Optional[str]:
    """The bind-time :class:`HybridInfeasible` message, or ``None``.

    This is the whole bind-time gate, shared by :class:`HybridRunner`
    and the scenario compiler's eligibility probe
    (:meth:`repro.scenario.CompiledScenario.eligibility`), so the
    probe's verdicts cannot drift from what the runner actually raises.
    Per-*era* refusals (queueing on a multi-live group mid-run) are
    necessarily runtime checks and stay inside the runner.
    """
    service = workload.expected_service
    cohort_gap = workload.gap * workload.n_pairs
    delay = policy.hybrid_action_delay()
    if delay is None:
        # Timer-free policies extend into the saturated regime: the
        # per-era FIFO reconstruction is exact under queueing, and the
        # per-era checks in _fluid_flow enforce that any group which
        # actually queues is pinned to a single live member.
        return None
    if not cohort_gap > service * (1.0 + 1e-9):
        return (
            f"per-member arrival spacing {cohort_gap:.6g}s must exceed "
            f"the nominal service time {service:.6g}s (fault-free "
            "servers must idle between arrivals for fluid exactness "
            f"under the timer-bearing policy {policy.name!r})"
        )
    if delay <= service * (1.0 + 1e-9):
        return (
            f"policy {policy.name!r} may act after {delay:.6g}s, "
            f"within the nominal service time {service:.6g}s -- "
            "fault-free requests could trigger timers"
        )
    return None


def scale_workload(workload: "CampaignWorkload", n_requests: int) -> "CampaignWorkload":
    """The same workload, driven with ``n_requests`` arrivals."""
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    return replace(workload, n_requests=n_requests)


def scale_scenario(workload: "CampaignWorkload", family: str, seed: int = 7,
                   index: int = 0, base_requests: Optional[int] = None) -> "Scenario":
    """Draw a scenario whose fault windows keep a *fixed* virtual extent.

    The stock families size onsets and durations from the workload's
    span, so scaling ``n_requests`` up would scale the faulty stretch
    with it and a hybrid run would stay mostly discrete.  For scale
    studies the interesting regime is the opposite: a fault window of
    the stock workload's extent embedded in a much longer fault-free
    run.  This draws the scenario against ``base_requests`` (default:
    the stock request count for the workload's name, else the
    workload's own) and reuses it under the scaled workload -- valid
    because the component names do not depend on ``n_requests``.
    """
    if base_requests is None:
        stock = campaign.WORKLOADS.get(workload.name)
        base_requests = stock.n_requests if stock is not None else workload.n_requests
    base = replace(workload, n_requests=base_requests)
    return campaign.generate_scenario(base, family, seed, index)


@dataclass(frozen=True)
class _PendingEra:
    """One member's fluid backlog at a segment boundary.

    Every request the fluid era admitted to member ``member`` but did
    not complete by the boundary: ``count`` requests at global indices
    ``first_index, first_index + stride, ...``, the head of which
    entered service at ``head_start`` (which may lie *past* the
    boundary when earlier obligations still block it).  ``tail`` holds
    their closed-form response times as ``(first, step, count)`` ramp
    segments and ``last_completion`` the analytic drain instant -- what
    the end-of-run resolution and the handoff audit consume.
    """

    member: int
    route: str
    first_index: int
    stride: int
    count: int
    head_start: float
    service: float
    rate: float
    tail: Tuple[Tuple[float, float, int], ...]
    last_completion: float


def _ramp_values(segments) -> np.ndarray:
    """Materialize ``(first, step, count)`` segments as one value array."""
    if len(segments) == 1:
        first, step, count = segments[0]
        return first + step * np.arange(count, dtype=np.float64)
    return np.concatenate(
        [first + step * np.arange(count, dtype=np.float64)
         for first, step, count in segments]
    )


def _split_ramps(segments, n: int):
    """Split ramp segments into (first ``n`` values, the rest).

    The tail's first value is computed as ``first + step * k`` -- the
    same expression :func:`_ramp_values` evaluates for that element --
    so splitting never perturbs a single float.
    """
    head, tail = [], []
    taken = 0
    for first, step, count in segments:
        if taken + count <= n:
            head.append((first, step, count))
            taken += count
        elif taken >= n:
            tail.append((first, step, count))
        else:
            k = n - taken
            head.append((first, step, k))
            tail.append((first + step * k, step, count - k))
            taken = n
    return head, tail


@contextmanager
def _zero_queue_probe(engine):
    """Set ``engine.route_probe``: every backlog reads as the steady-state zero.

    Route probing asks the policy to pick as if every queue were empty
    (transient residuals at a window close are gone before any fluid
    arrival lands).  The flag must never outlive the probe: if a policy
    ``pick`` raises, a flag left set would silently zero every later
    routing decision in the run -- so it is cleared in a ``finally``
    regardless of how the probe exits.
    """
    engine.route_probe = True
    try:
        yield
    finally:
        engine.route_probe = False


class HybridRunner:
    """One (scenario, policy) run: fluid between fault windows, discrete inside.

    Produces the same :class:`~repro.faults.campaign.ScenarioOutcome`
    shape as the discrete engine, so the invariant oracle, the digest
    machinery and the scorecard aggregation all apply unchanged.  The
    constructor raises :class:`HybridInfeasible` for a pair outside the
    exact regime at bind time; :meth:`run` raises it for a per-era
    refusal.
    """

    def __init__(self, workload: "CampaignWorkload", scenario: "Scenario",
                 policy):
        self.workload = workload
        self.scenario = scenario
        self.system = System()
        self.groups = workload.build(self.system)
        self.policy = campaign._fresh_policy(policy)
        self.engine = campaign.CampaignEngine(
            self.system, workload, self.groups, self.policy
        )
        # Bind-time feasibility, settled once the policy has bound and
        # before a caller can attach an observer (a trace sink) to
        # ``system``: an infeasible pair never yields a runner.
        self._action_delay = self.policy.hybrid_action_delay()
        reason = feasibility_reason(workload, self.policy)
        if reason is not None:
            raise HybridInfeasible(reason)
        self.names = self.engine.component_names()
        self.index_of = {name: k for k, name in enumerate(self.names)}
        self.members = [self.system.components.get(name) for name in self.names]
        n_members = len(self.names)
        #: The fluid bank: analytic clock, per-member service rates, and
        #: per-member obligation horizon -- the instant every job already
        #: admitted (fluid or discrete residual) finishes.  ``busy_until``
        #: is what carries backlog *between* eras: a saturated era leaves
        #: it past the boundary and the next era's arrivals queue behind.
        self._fluid_now = 0.0
        self.rates = np.full(n_members, float(workload.rate))
        self.busy_until = np.zeros(n_members)
        #: Unfinished fluid admissions per member, awaiting either a
        #: window open (materialized as pre-seeded discrete jobs) or the
        #: end-of-run analytic resolution.
        self._pending_eras: Dict[int, _PendingEra] = {}
        self.member_jobs = np.zeros(n_members, dtype=np.int64)
        #: Requests resolved analytically / failed instantly in fluid eras.
        self.fluid_jobs = 0
        self.fluid_failed = 0
        #: Discrete windows actually opened (planned + unplanned).
        self.windows_run = 0
        self._in_window = False
        self._signal = None
        #: Unresolved requests, by index -- the close condition inspects
        #: these without scanning the full request list.
        self._open: dict = {}
        #: Recorder samples already banked into ``_chunks``.
        self._captured = 0
        #: Chronological result chunks: ("fluid", [FluidRamp...]) or
        #: ("window", [latency...]).
        self._chunks: List[Tuple[str, object]] = []
        #: Fluid completions awaiting replay into the policy
        #: (name, count, work, latency), chronological.
        self._pending: List[Tuple[str, int, float, float]] = []
        self.engine.on_request_resolved = self._on_resolved
        self.system.telemetry.subscribe_all(self._tap)
        self.routes = self._compute_routes()

    # -- bus tap / engine hooks --------------------------------------------------

    def _on_resolved(self, request) -> None:
        self._open.pop(request.index, None)

    def _tap(self, record) -> None:
        # Inside a window the discrete engine is authoritative; outside,
        # any non-completion record is a rate-change signal that must
        # interrupt the fluid clock at this exact instant.
        if self._in_window or record.kind == COMPLETION:
            return
        self._signal = record

    # -- the run loop --------------------------------------------------------------

    def run(self) -> "ScenarioOutcome":
        for tag, fault in enumerate(self.scenario.events):
            self.engine._apply_event(tag, fault)
        windows = self._plan_windows()
        span = self.workload.n_requests * self.workload.gap
        next_index = 0
        wi = 0
        while True:
            # Windows swallowed by a previous window's drain overrun.
            while wi < len(windows) and windows[wi][1] <= self.system.now:
                wi += 1
            target = windows[wi][0] if wi < len(windows) else span
            if self.system.now < target:
                next_index, interrupted = self._fluid_phase(next_index, target)
                if interrupted:
                    next_index = self._run_window(next_index, self.system.now)
                    self._reseed()
                    continue
            if wi < len(windows):
                start, min_end = windows[wi]
                wi += 1
                next_index = self._run_window(
                    next_index, max(min_end, self.system.now)
                )
                self._reseed()
                continue
            break
        # Backlog outstanding after the last era drains analytically
        # (there is no further window to inherit it).
        if self._pending_eras:
            self._resolve_pending_tail()
        # The discrete engine runs to the drain horizon; mirror it, so
        # residual attempts from the last window complete and leftover
        # policy timers pop as no-ops.
        self.system.run(until=self.workload.horizon)
        return self._finish()

    def _plan_windows(self) -> List[Tuple[float, float]]:
        """Merged [start, min_end] discrete windows around every fault edge."""
        lead = 2.0 * self.workload.expected_service
        raw = []
        for event in self.scenario.events:
            start = max(0.0, event.onset - lead)
            min_end = (
                event.onset + event.duration
                if event.kind == "stutter"
                else event.onset
            )
            raw.append((start, min_end))
        raw.sort()
        merged: List[List[float]] = []
        for start, end in raw:
            if merged and start <= merged[-1][1] + lead:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return [(s, e) for s, e in merged]

    # -- fluid phase ---------------------------------------------------------------

    def _fluid_phase(self, next_index: int, target: float) -> Tuple[int, bool]:
        """Fast-forward to ``target``; True if a signal interrupted early."""
        while True:
            interrupted = self._advance_to(target)
            next_index = self._fluid_flow(next_index, self.system.now)
            if interrupted:
                return next_index, True
            if self.system.now >= target:
                return next_index, False

    def _advance_to(self, target: float) -> bool:
        """Step pending discrete events up to ``target``, watching for signals.

        Events in a fluid era are policy-timer no-ops and scheduled fault
        edges; the first one that emits a telemetry signal stops the
        advance at its own timestamp so the caller can open a window
        there.  Returns True when interrupted.
        """
        sim = self.system
        while self._signal is None:
            when = sim.peek()
            if when > target:
                break
            sim.step()
        if self._signal is not None:
            self._signal = None
            return True
        sim.run(until=target)
        return False

    def _fluid_flow(self, next_index: int, segment_end: float) -> int:
        """Resolve arrivals in [_fluid_now, segment_end) analytically.

        Per group, the era's equally-spaced arrivals are pushed through
        the closed-form FIFO recurrence against the member's standing
        obligations (``busy_until``): responses come back as at most two
        arithmetic ramps, completions landing at or before
        ``segment_end`` are banked as resolved, and the unfinished rest
        becomes the member's :class:`_PendingEra` -- inherited by the
        next discrete window (pre-seeded jobs) or, after the last era,
        resolved analytically against the drain horizon.
        """
        if segment_end <= self._fluid_now:
            return next_index
        w = self.workload
        n, gap, work = w.n_requests, w.gap, w.work
        hi = next_index
        if next_index < n:
            hi = min(n, max(next_index, math.ceil(segment_end / gap - 1e-9)))
        n_groups = len(self.engine.groups)
        spacing = n_groups * gap
        delay = self._action_delay
        failed = 0
        ramps: List[FluidRamp] = []
        # A window open or the end-of-run tail always consumes pending
        # eras before the next flow; one compact era record per member.
        for g in range(n_groups):
            first = next_index + ((g - next_index) % n_groups)
            if first >= hi:
                continue
            jobs = (hi - 1 - first) // n_groups + 1
            route = self.routes[g]
            if route is None:
                # Dead replica group: the discrete engine gives these up
                # at arrival (no live member -> no attempt, no latency).
                failed += jobs
                continue
            m = self.index_of[route]
            mu = float(self.rates[m])
            if not (mu > 0.0 and math.isfinite(work / mu)):
                raise HybridInfeasible(
                    "fluid segment routed work to a stopped/stalled server"
                )
            service = work / mu
            busy = float(self.busy_until[m])
            # index * gap elementwise: the exact floats the discrete
            # engine schedules arrivals at.
            arrivals = np.arange(first, first + jobs * n_groups, n_groups,
                                 dtype=np.float64) * gap
            a0 = float(arrivals[0])
            segments = fifo_uniform_ramps(a0, spacing, jobs, work, mu, busy)
            flat = (len(segments) == 1 and segments[0][1] == 0.0
                    and segments[0][0] == service)
            if not flat:
                if delay is not None:
                    raise HybridInfeasible(
                        f"arrivals queue on {route!r} under the "
                        f"timer-bearing policy {self.policy.name!r}: "
                        "ramped response times would desynchronize its "
                        "latency-driven state from a discrete run"
                    )
                if not self._pinned(g):
                    raise HybridInfeasible(
                        f"arrivals queue on {route!r} while its replica "
                        "group has other live members: discrete routing "
                        "would depend on instantaneous queue depths the "
                        "per-group fluid model cannot reproduce"
                    )
            elif not self._pinned(g):
                # Multi-live groups keep the strict underloaded margins:
                # at exactly critical spacing the discrete engine's
                # completion-vs-arrival tie order decides routing.
                if not spacing > service * (1.0 + 1e-9):
                    raise HybridInfeasible(
                        f"per-member arrival spacing {spacing:.6g}s must "
                        f"exceed the service time {service:.6g}s on the "
                        f"multi-member group of {route!r}"
                    )
            responses = _ramp_values(segments)
            if delay is not None and float(responses[-1]) >= delay:
                raise HybridInfeasible(
                    f"fluid response time {float(responses[-1]):.6g}s "
                    f"reaches the policy action delay {delay:.6g}s"
                )
            completions = arrivals + responses
            n_done = int(np.searchsorted(completions, segment_end, side="right"))
            done, tail = _split_ramps(segments, n_done)
            if n_done:
                ramps.extend(
                    FluidRamp(m, f0, st, cnt) for f0, st, cnt in done
                )
                self._pending.append((route, n_done, work, service))
                self.member_jobs[m] += n_done
                self.fluid_jobs += n_done
            if n_done < jobs:
                prev_done = float(completions[n_done - 1]) if n_done else busy
                self._pending_eras[m] = _PendingEra(
                    member=m,
                    route=route,
                    first_index=first + n_done * n_groups,
                    stride=n_groups,
                    count=jobs - n_done,
                    head_start=max(prev_done, float(arrivals[n_done])),
                    service=service,
                    rate=mu,
                    tail=tuple(tail),
                    last_completion=float(completions[-1]),
                )
            self.busy_until[m] = float(completions[-1])
        self.fluid_failed += failed
        # Residual resolutions stepped since the last capture happened
        # inside this segment -- bank them ahead of the segment's fluid
        # ramps to keep the chunk list ordering deterministic.
        self._capture_samples()
        if ramps:
            self._chunks.append(("fluid", ramps))
        self._fluid_now = segment_end
        return hi

    def _pinned(self, group_index: int) -> bool:
        """True when the group has exactly one live member (fixed route)."""
        live = 0
        for name in self.engine.groups[group_index]:
            if not self.members[self.index_of[name]].stopped:
                live += 1
        return live == 1

    # -- discrete windows ----------------------------------------------------------

    def _run_window(self, next_index: int, min_end: float) -> int:
        """Exact discrete simulation until fluid-safe at/after ``min_end``."""
        sim = self.system
        w = self.workload
        if self._pending:
            self.policy.hybrid_fast_forward(self._pending)
            self._pending = []
        self._in_window = True
        self.windows_run += 1
        if self._pending_eras:
            self._materialize_pending()
        n, gap, horizon = w.n_requests, w.gap, w.horizon
        engine = self.engine
        while True:
            now = sim._now
            if now >= horizon:
                break
            # One peek serves both tests below: _can_close never touches
            # the event queue.
            pending = sim.peek()
            if (
                now >= min_end
                and pending > now  # same-instant events come first
                and self._can_close(next_index)
            ):
                break
            arrival = next_index * gap if next_index < n else math.inf
            if arrival == math.inf and pending == math.inf:
                if now < min_end:
                    sim.run(until=min_end)
                    continue
                break  # nothing can ever happen again (hang -> oracle)
            if arrival <= pending:
                # Events due at the arrival instant fire first -- the
                # discrete engine's heap ordering (faults enqueued before
                # submissions) -- via run(until=t), which is inclusive.
                # With nothing due by then, the clock just moves there.
                # A window opened a float-residue past the arrival
                # instant (the fluid cut keeps boundary arrivals for the
                # window) leaves arrival <= now; submit immediately.
                if arrival > now:
                    if pending == arrival:
                        sim.run(until=arrival)
                    else:
                        sim._now = arrival
                engine._submit_one(next_index)
                request = engine.requests[-1]
                if not request.resolved:
                    self._open[request.index] = request
                next_index += 1
            else:
                sim.step()
        self._in_window = False
        self._signal = None
        self._capture_samples()
        return next_index

    def _materialize_pending(self) -> None:
        """Hand the fluid queue to the discrete window (backlog handoff).

        Every request a fluid era admitted but did not complete re-enters
        the discrete world on its member, in FIFO order, with its
        historical arrival time: queued jobs carry their full work, and
        the one job mid-service carries only its unserved residue (the
        served share is credited via ``preseed_served`` when the job
        completes).  The analytic obligation horizon must agree with the
        materialized work to float slack -- the *arrived = completed +
        backlog* identity at this boundary -- or the run refuses rather
        than silently drifting.
        """
        now = self.system.now
        w = self.workload
        engine = self.engine
        for m in sorted(self._pending_eras):
            era = self._pending_eras[m]
            component = self.members[m]
            head_remaining = w.work
            head_started = None
            if era.head_start < now:
                head_remaining = w.work - (now - era.head_start) * era.rate
                if head_remaining <= 0.0:
                    # Float edge: the head is analytically complete to
                    # within rounding; hand over an epsilon residue so
                    # its completion fires immediately in the window.
                    head_remaining = 1e-12 * w.work
                head_started = era.head_start
            # Conservation audit: the member's standing obligations
            # (residual discrete jobs still draining) plus the handed-over
            # fluid queue must equal the analytic drain time's worth of
            # work.
            residual_work = 0.0
            if component.busy:
                eta = component.completion_eta()
                if eta is None:
                    raise HybridInfeasible(
                        "window opened onto a frozen in-service job"
                    )
                residual_work = (
                    (eta - now) * component.effective_rate
                    + component.queue_length * w.work
                )
            materialized = (
                residual_work + head_remaining + (era.count - 1) * w.work
            )
            analytic = (era.last_completion - now) * era.rate
            if abs(analytic - materialized) > 1e-6 * max(1.0, materialized):
                raise HybridInfeasible(
                    f"backlog handoff on {era.route!r} violates work "
                    f"conservation: analytic {analytic:.9g} vs "
                    f"materialized {materialized:.9g}"
                )
            for j in range(era.count):
                index = era.first_index + j * era.stride
                request = engine.preseed_request(
                    index,
                    index * w.gap,
                    era.route,
                    head_remaining if j == 0 else w.work,
                    head_started if j == 0 else None,
                )
                if not request.resolved:
                    self._open[request.index] = request
        self._pending_eras.clear()

    def _can_close(self, next_index: int) -> bool:
        """True when fluid fast-forwarding is exact from this instant on.

        Full quiescence (every request resolved, every server idle) is
        unreachable under continuous arrivals -- ``gap < E[service]``
        keeps some request in flight at every instant, so waiting for it
        would swallow the rest of the run into the window.  Fluid
        exactness needs less:

        * no component DEGRADED;
        * members of *pinned* replica groups (exactly one live member)
          under a timer-free policy may carry arbitrary backlog -- their
          route is fixed and the fluid FIFO reconstruction inherits the
          queue exactly via ``busy_until`` at the next reseed;
        * every other member has nothing queued, though it may still be
          *serving* one residual job that drains before its next fluid
          arrival, so fluid arrivals still land on idle servers;
        * every unresolved request is a fresh single attempt in service
          whose resolution completes before the earliest timer its
          policy could fire (``hybrid_action_delay`` past submission),
          so it replays as a plain event during the fluid era.
        """
        for component in self.members:
            if component.stopped:
                continue
            if component.state is not ComponentState.OK:
                return False
        w = self.workload
        margin = 1e-9 * w.expected_service
        delay = self._action_delay
        relaxed = set()
        if delay is None:
            for g, group in enumerate(self.engine.groups):
                live = [
                    name for name in group
                    if not self.members[self.index_of[name]].stopped
                ]
                if len(live) == 1:
                    relaxed.add(live[0])
        deadlines = {}
        latest = self.system.now
        for k, component in enumerate(self.members):
            if component.stopped or not component.busy:
                continue
            name = self.names[k]
            if component.queue_length and name not in relaxed:
                return False
            eta = component.completion_eta()
            if eta is None:
                return False  # frozen at rate 0 (stall not flagged DEGRADED)
            deadlines[name] = eta
            if eta > latest:
                latest = eta
        for request in self._open.values():
            if request.attempts != 1 or request.outstanding != 1:
                return False
            if delay is not None and latest + margin >= request.submitted_at + delay:
                return False
        if deadlines:
            n, gap = w.n_requests, w.gap
            n_groups = len(self.engine.groups)
            for g, route in enumerate(self._compute_routes()):
                if route is None or route in relaxed:
                    continue
                eta = deadlines.get(route)
                if eta is None:
                    continue
                index = next_index + ((g - next_index) % n_groups)
                if index < n and eta + margin >= index * gap:
                    return False
        return True

    def _capture_samples(self) -> None:
        """Bank recorder samples accrued since the last capture."""
        samples = self.engine.recorder.samples
        if len(samples) > self._captured:
            self._chunks.append(("window", samples[self._captured:]))
            self._captured = len(samples)

    def _reseed(self) -> None:
        """Re-anchor the fluid bank on post-window discrete state.

        ``busy_until`` becomes each member's obligation horizon: the
        in-service job's completion event time, plus one service time
        per queued job.  The queued jobs' timers will be armed by the
        discrete kernel as ``previous + work / rate`` chained additions,
        so the horizon is built with the same chained additions -- the
        fluid reconstruction inherits the exact floats the residual
        drain will produce.
        """
        if self.system.now > self._fluid_now:
            self._fluid_now = self.system.now
        work = self.workload.work
        for k, component in enumerate(self.members):
            if component.stopped:
                self.rates[k] = 0.0
                self.busy_until[k] = self._fluid_now
                continue
            mu = component.effective_rate
            self.rates[k] = mu
            busy = self._fluid_now
            if component.busy:
                eta = component.completion_eta()
                if eta is None or not mu > 0.0:
                    raise HybridInfeasible(
                        "window closed with a frozen in-service job"
                    )
                busy = eta
                service = work / mu
                for _ in range(component.queue_length):
                    busy = busy + service
            self.busy_until[k] = busy
        self.routes = self._compute_routes()

    def _resolve_pending_tail(self) -> None:
        """Resolve backlog outstanding past the last fluid era analytically.

        After the final era there is no further window to inherit the
        queue, so the pending jobs simply drain: their closed-form
        response ramps are banked as results, provided the analytic
        drain instant beats the discrete engine's horizon -- past it, a
        discrete run would truncate the drain, so the hybrid run refuses
        instead of disagreeing.
        """
        w = self.workload
        horizon = w.horizon
        ramps: List[FluidRamp] = []
        for m in sorted(self._pending_eras):
            era = self._pending_eras[m]
            if era.last_completion > horizon:
                raise HybridInfeasible(
                    f"backlog on {era.route!r} drains at "
                    f"t={era.last_completion:.6g}s, past the horizon "
                    f"{horizon:.6g}s -- the discrete engine would truncate"
                )
            ramps.extend(
                FluidRamp(m, f0, st, cnt) for f0, st, cnt in era.tail
            )
            self.member_jobs[m] += era.count
            self.fluid_jobs += era.count
        self._pending_eras.clear()
        if ramps:
            self._capture_samples()
            self._chunks.append(("fluid", ramps))

    def _compute_routes(self) -> List[Optional[str]]:
        """The member each group's arrivals go to while the state holds.

        In a fluid era every pick sees zero queues and a fresh request,
        so the policy's choice is the same for every arrival; probing
        once per group captures it exactly.  Residual jobs still
        draining at a window close would show as transient depth, so the
        probe reads every backlog as the steady-state value (zero) --
        the close condition guarantees the residual is gone before any
        fluid arrival actually reaches the member.
        """
        engine = self.engine
        members, index_of = self.members, self.index_of
        with _zero_queue_probe(engine):
            routes: List[Optional[str]] = []
            for group in engine.groups:
                if all(members[index_of[m]].stopped for m in group):
                    routes.append(None)
                    continue
                probe = campaign.Request(
                    index=-1, work=self.workload.work, group=group,
                    submitted_at=self.system.now,
                )
                routes.append(self.policy.pick(probe))
            return routes

    # -- outcome -------------------------------------------------------------------

    def _finish(self) -> "ScenarioOutcome":
        self._capture_samples()  # resolutions from the tail drain
        w = self.workload
        engine = self.engine
        slo = w.slo
        parts: List[np.ndarray] = []
        for kind, data in self._chunks:
            if kind == "fluid":
                parts.extend(ramp.values() for ramp in data)
            else:
                parts.append(np.asarray(data, dtype=np.float64))
        latencies = (np.concatenate(parts) if parts
                     else np.empty(0, dtype=np.float64))
        # Fluid work totals come from integer job counts times the unit
        # work -- one multiplication, not a million-term float sum -- so
        # the oracle's conservation splits hold to the same slack as a
        # discrete run even at 10^6 requests.
        fluid_work = self.fluid_jobs * w.work
        server_work = {}
        for k, name in enumerate(self.names):
            server_work[name] = (
                self.members[k].work_completed
                + int(self.member_jobs[k]) * w.work
                # Fluid-era share of jobs handed over mid-service.
                + engine.preseed_served.get(name, 0.0)
            )
        return campaign.ScenarioOutcome(
            workload=w.name,
            family=self.scenario.family,
            scenario_index=self.scenario.index,
            policy=self.policy.name,
            n_requests=len(engine.requests) + self.fluid_jobs + self.fluid_failed,
            slo=slo,
            latencies=latencies,
            slo_violations=int(np.count_nonzero(latencies > slo)),
            issued_work=engine.issued_work + fluid_work,
            completed_work=engine.completed_work + fluid_work,
            claimed_work=engine.claimed_work + fluid_work,
            wasted_work=engine.wasted_work,
            failed_work=engine.failed_work,
            outstanding_attempts=sum(r.outstanding for r in engine.requests),
            unresolved_requests=sum(1 for r in engine.requests if not r.resolved),
            failed_requests=engine.failed_requests + self.fluid_failed,
            server_work=server_work,
            engine="hybrid",
        )


def run_scenario_hybrid(workload: "CampaignWorkload", scenario: "Scenario",
                        policy, check: bool = True,
                        sink=None) -> "ScenarioOutcome":
    """One hybrid (scenario, policy) run on a fresh System; oracle-audited.

    Raises :class:`HybridInfeasible` when the workload/policy pair is
    outside the exact fluid regime (:func:`repro.faults.campaign.run_scenario`
    falls back to discrete and names the reason).  ``sink`` (a trace
    sink) is subscribed to the runner's telemetry bus, which exists
    only once bind-time feasibility is settled.
    """
    runner = HybridRunner(workload, scenario, policy)
    if sink is not None:
        runner.system.telemetry.subscribe_all(sink.on_record)
    outcome = runner.run()
    if check:
        outcome.violations.extend(campaign.InvariantOracle().check(outcome))
    return outcome
