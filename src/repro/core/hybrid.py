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

* **Announced transitions are exact.**  Every scheduled fault edge --
  a fail-stop, a stutter's onset, a stutter's restore -- gets its own
  discrete window opening ``2 * E[service]`` before the edge -- enough
  that all fluid-admitted work has drained before the rate changes --
  and closing only once the system is *fluid-safe* again: every DEGRADED
  member *parked*, nothing queued, and any job still in service is a
  fresh single attempt that provably completes before both its policy's
  earliest timer and its member's next fluid arrival (full quiescence is
  unreachable under continuous arrivals, since ``gap < E[service]``
  keeps some request in flight at every instant).  Residuals then drain
  as ordinary discrete events inside the fluid era.  Request counts,
  per-server work, and failure counts therefore match the discrete
  engine exactly; latencies match to float-accumulation noise.
* **A steady stutter runs fluid once routing avoids it.**  A degraded
  member is parked when it is idle and no group's zero-queue route
  probe picks it: every arrival then goes to a healthy member, as in a
  discrete run, so the member gets no fluid work and its detector no
  observation until its restore window hands it back.  A degraded
  member that a route still picks (a timer policy's name-first member,
  or a group stuttered whole) holds the onset window open until the
  restore, so those stretches stay discrete.
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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..faults import campaign
from ..faults.model import ComponentState
from ..sim.fluid import fifo_uniform_ramps
from ..sim.trace import COMPLETION

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
    delay = policy.hybrid_action_delay()
    if delay is None:
        # Timer-free policies extend into the saturated regime: the
        # per-era FIFO reconstruction is exact under queueing, and the
        # per-era checks in _fluid_flow enforce that any group which
        # actually queues is pinned to a single live member.
        return None
    shape = shape_feasibility(workload)
    if shape is not None:
        return (
            f"{shape} (fault-free servers must idle between arrivals for "
            "fluid exactness under the timer-bearing policy "
            f"{policy.name!r})"
        )
    service = workload.expected_service
    if delay <= service * (1.0 + 1e-9):
        return (
            f"policy {policy.name!r} may act after {delay:.6g}s, "
            f"within the nominal service time {service:.6g}s -- "
            "fault-free requests could trigger timers"
        )
    return None


def scale_workload(workload: "CampaignWorkload", n_requests: int) -> "CampaignWorkload":
    """The same workload, driven with ``n_requests`` arrivals (>= 1)."""
    return replace(workload, n_requests=n_requests)


def scale_scenario(workload: "CampaignWorkload", family: str, seed: int = 7,
                   index: int = 0) -> "Scenario":
    """Draw a scenario whose fault windows keep a *fixed* virtual extent.

    The stock families size onsets and durations from the workload's
    span, so scaling ``n_requests`` up would scale the faulty stretch
    with it and a hybrid run would stay mostly discrete.  For scale
    studies the interesting regime is the opposite: a fault window of
    the stock workload's extent embedded in a much longer fault-free
    run.  This draws the scenario against the stock request count for
    the workload's name (else the workload's own) and reuses it under
    the scaled workload -- valid because the component names do not
    depend on ``n_requests``.
    """
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


class HybridRunner:
    """One (scenario, policy) run: fluid between fault windows, discrete inside.

    The discrete windows run on a
    :class:`~repro.faults.campaign.CampaignEngine`, which builds the
    run's System, and the run's outcome comes from that engine's
    :meth:`~repro.faults.campaign.CampaignEngine.outcome` with the fluid
    eras' counts added, so the invariant oracle, the digest machinery
    and the scorecard aggregation all apply unchanged.  The constructor
    raises :class:`HybridInfeasible` for a pair outside the exact regime
    at bind time; :meth:`run` raises it for a per-era refusal.
    """

    def __init__(self, workload: "CampaignWorkload", scenario: "Scenario",
                 policy):
        self.workload = workload
        self.scenario = scenario
        self.policy = campaign._fresh_policy(policy)
        self.engine = campaign.CampaignEngine(workload, self.policy)
        self.system = self.engine.system
        # Bind-time feasibility, settled once the policy has bound and
        # before a caller can attach an observer (a trace sink) to
        # ``system``: an infeasible pair never yields a runner.
        self._action_delay = self.policy.hybrid_action_delay()
        reason = feasibility_reason(workload, self.policy)
        if reason is not None:
            raise HybridInfeasible(reason)
        self.names = self.engine.component_names()
        self.index_of = {name: k for k, name in enumerate(self.names)}
        self.members = list(self.engine.members.values())
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
        #: Chronological result chunks: ("fluid", [(first, step, count)
        #: ramp segment...]) or ("window", [latency...]).  Fluid ramps
        #: stay three numbers each until :meth:`_finish`.
        self._chunks: List[Tuple[str, object]] = []
        #: Fluid completions awaiting replay into the policy
        #: (name, count, work, latency), chronological.
        self._pending: List[Tuple[str, int, float, float]] = []
        #: Telemetry records the tap has seen: all of them, and the
        #: non-completion ones.  The close test memoises on these.
        self._records = 0
        self._signals = 0
        #: One zero-queue probe request per group, reused by every probe.
        self._probe_requests = [
            campaign.Request(index=-1, work=workload.work, group=group,
                             submitted_at=0.0)
            for group in self.engine.groups
        ]
        #: DEGRADED members, the probe requests of their groups and the
        #: live members of pinned groups, as of the non-completion
        #: record count ``_roster_at``.
        self._degraded: List = []
        self._degraded_probes: List = []
        self._pinned_routes: set = set()
        self._roster_at = -1
        #: The routes of the degraded members' groups, as of the record
        #: count ``_parking_at``.
        self._parking_routes: List[Optional[str]] = []
        self._parking_at = -1
        #: Set when the close test finds a degraded member busy: the
        #: test cannot pass before that member's job completes
        #: (``_blocked_until``) unless a state changes first (the
        #: non-completion record count moves off ``_blocked_at``).
        self._blocked_until = 0.0
        self._blocked_at = -1
        #: Slack when comparing completion instants with deadlines.
        self._margin = 1e-9 * workload.expected_service
        self.engine.on_request_resolved = self._on_resolved
        self.system.telemetry.subscribe_all(self._tap)
        self.routes = self._compute_routes()

    # -- bus tap / engine hooks --------------------------------------------------

    def _on_resolved(self, request) -> None:
        self._open.pop(request.index, None)

    def _tap(self, record) -> None:
        # Every record may change what a policy's route probe answers
        # (a detector observing a completion); only non-completion
        # records change component states.
        self._records += 1
        if record.kind == COMPLETION:
            return
        self._signals += 1
        # Inside a window the discrete engine is authoritative; outside,
        # any non-completion record is a rate-change signal that must
        # interrupt the fluid clock at this exact instant.
        if not self._in_window:
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
        # residual attempts from the last window complete.  Leftover
        # policy timers belong to resolved requests and are skipped
        # without a call.
        self.system.run(until=self.workload.horizon)
        return self._finish()

    def _plan_windows(self) -> List[Tuple[float, float]]:
        """Merged [start, min_end] discrete windows, one per fault edge.

        A stutter has two edges, its onset and its restore, and each
        gets its own window ``[edge - 2 * E[service], edge]``; a
        fail-stop has one.  Between a stutter's two windows the run goes
        fluid as soon as the close test parks the degraded member (see
        :meth:`_can_close`); until then the onset window simply stays
        open.  Windows that overlap or lie within one lead of each other
        merge.  An edge past the horizon gets none: the discrete engine
        stops before it.
        """
        lead = 2.0 * self.workload.expected_service
        horizon = self.workload.horizon
        raw = []
        for event in self.scenario.events:
            edges = (
                (event.onset, event.onset + event.duration)
                if event.kind == "stutter"
                else (event.onset,)
            )
            raw.extend((max(0.0, edge - lead), edge) for edge in edges
                       if edge <= horizon)
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

        Events in a fluid era are scheduled fault edges and the
        completions of residual jobs from the last window.  No policy
        timer fires in one: a window closes only when every open
        request resolves before its earliest timer, and a resolved
        request's timer is skipped, unseen by ``peek``.  The first event
        that emits a telemetry signal stops the advance at its own
        timestamp so the caller can open a window there.  Returns True
        when interrupted.
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
        ramps: List[Tuple[float, float, int]] = []
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
                ramps.extend(done)
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
            # The replay fed policy state without a bus record.
            self._parking_at = -1
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
                # A busy degraded member holds the window until its job
                # completes or a state changes; see _can_close.
                and (now >= self._blocked_until
                     or self._signals != self._blocked_at)
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
            elif pending > horizon:
                sim.run(until=horizon)  # where the discrete engine stops
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

        * every DEGRADED member is *parked*: it has nothing in service
          or queued, and no group's zero-queue route probe picks it.
          Every fluid arrival then goes to a healthy member, exactly as
          the discrete engine would route it, so a parked member gets
          no fluid work and its detector no observation until the
          restore window hands it back;
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

        The test runs after every event inside a window, so it stays
        cheap where parking is impossible.  A busy degraded member fails
        it until its job in service completes, unless a non-completion
        record (the only kind that changes a component's state) arrives
        first: :meth:`_run_window` checks that gate before calling here.
        The degraded members' groups are re-probed only after a record
        has arrived, since policy state changes only through the bus,
        and the DEGRADED roster is re-read only after a non-completion
        record.
        """
        if self._roster_at != self._signals:
            self._take_roster()
        w = self.workload
        margin = self._margin
        degraded = self._degraded
        if degraded:
            for component in degraded:
                if component.backlog:
                    eta = component.completion_eta()
                    self._blocked_until = (
                        math.inf if eta is None else eta - margin
                    )
                    self._blocked_at = self._signals
                    return False
            if self._parking_at != self._records:
                self._parking_routes = self._compute_routes(
                    self._degraded_probes
                )
                self._parking_at = self._records
            for component in degraded:
                if component.name in self._parking_routes:
                    return False
        delay = self._action_delay
        relaxed = self._pinned_routes
        deadlines = {}
        latest = self.system._now
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

    def _take_roster(self) -> None:
        """Re-read the DEGRADED members, with their groups' probe
        requests, and the live members of pinned groups.

        All change only with a component's state, which the bus
        announces with a non-completion record, so they are taken once
        per such record count.  Pinned routes may carry backlog across
        a close only under a timer-free policy.
        """
        self._degraded = [
            component for component in self.members
            if component.state is ComponentState.DEGRADED
        ]
        names = {component.name for component in self._degraded}
        self._degraded_probes = [
            probe for probe in self._probe_requests
            if names.intersection(probe.group)
        ]
        relaxed = set()
        if self._action_delay is None:
            for group in self.engine.groups:
                live = [
                    name for name in group
                    if not self.members[self.index_of[name]].stopped
                ]
                if len(live) == 1:
                    relaxed.add(live[0])
        self._pinned_routes = relaxed
        self._roster_at = self._signals
        self._parking_at = -1

    def _capture_samples(self) -> None:
        """Bank the engine's latencies accrued since the last capture."""
        samples = self.engine.latencies
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
        ramps: List[Tuple[float, float, int]] = []
        for m in sorted(self._pending_eras):
            era = self._pending_eras[m]
            if era.last_completion > horizon:
                raise HybridInfeasible(
                    f"backlog on {era.route!r} drains at "
                    f"t={era.last_completion:.6g}s, past the horizon "
                    f"{horizon:.6g}s -- the discrete engine would truncate"
                )
            ramps.extend(era.tail)
            self.member_jobs[m] += era.count
            self.fluid_jobs += era.count
        self._pending_eras.clear()
        if ramps:
            self._capture_samples()
            self._chunks.append(("fluid", ramps))

    def _compute_routes(self, probes=None) -> List[Optional[str]]:
        """The member each group's arrivals go to while the state holds.

        In a fluid era every pick sees zero queues and a fresh request,
        so the policy's choice is the same for every arrival; probing
        once per group captures it exactly.  Residual jobs still
        draining at a window close would show as transient depth, so the
        probe reads every backlog as the steady-state value (zero) --
        the close condition guarantees the residual is gone before any
        fluid arrival actually reaches the member.  The engine's
        ``route_probe`` flag says so to the picks, and it must never
        outlive the probe: a flag left set by a raising ``pick`` would
        silently zero every later routing decision in the run, so it is
        cleared in a ``finally``.  ``probes`` limits the probe to some
        groups' probe requests (default: every group, in order).
        """
        engine = self.engine
        members = engine.members
        pick = self.policy.pick
        now = self.system._now
        routes: List[Optional[str]] = []
        engine.route_probe = True
        try:
            for probe in self._probe_requests if probes is None else probes:
                for name in probe.group:
                    if not members[name].stopped:
                        break
                else:
                    routes.append(None)  # every member fail-stopped
                    continue
                probe.submitted_at = now
                routes.append(pick(probe))
        finally:
            engine.route_probe = False
        return routes

    # -- outcome -------------------------------------------------------------------

    def _finish(self) -> "ScenarioOutcome":
        self._capture_samples()  # resolutions from the tail drain
        parts: List[np.ndarray] = []
        for kind, data in self._chunks:
            if kind == "fluid":
                parts.extend(first + step * np.arange(count, dtype=np.float64)
                             for first, step, count in data)
            else:
                parts.append(np.asarray(data, dtype=np.float64))
        latencies = (np.concatenate(parts) if parts
                     else np.empty(0, dtype=np.float64))
        outcome = self.engine.outcome(
            self.scenario, latencies, self.fluid_jobs, self.fluid_failed,
            self.member_jobs,
        )
        outcome.engine = "hybrid"
        return outcome


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
