"""Deterministic fault campaigns: policies scored against scenario families.

One injected stutter tells an anecdote; the paper's argument needs the
distribution.  Treaster's fault-tolerance survey and Zhou et al.'s
framework for predicting performance under faults both evaluate
*mitigation policies* against *families* of faults, and this module does
the same for the reproduction: seeded generators draw whole families of
scenarios -- slowdown magnitude, onset time, episode duration, correlated
multi-component stutters, plain fail-stops -- over a replicated workload
built from registered Components, and every
:class:`~repro.policy.MitigationPolicy` runs against every scenario.

The output is a scorecard per (workload, family, policy) cell:
completion-time distribution, SLO-violation fraction, and wasted
duplicate work.  The engine -- not the policy -- owns all accounting
(issued / completed / claimed / wasted work), so the
:class:`InvariantOracle` can audit every run for work conservation,
no-hang, and byte-identical reruns under the same seed; a policy that
cheats or wedges is detected rather than silently mis-scored.

Determinism contract: all randomness is drawn up front by the scenario
generators from ``random.Random`` seeded with a string key (which hashes
via SHA-512, independent of ``PYTHONHASHSEED``); the simulation runs
themselves are RNG-free.  ``run_campaign(seed=7)`` is therefore
byte-identical across processes, which the oracle re-verifies by
running every scenario twice.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from heapq import heappush
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.report import Table
from ..core.system import System
from ..policy import POLICIES, MitigationPolicy, make_policy
from ..sim.engine import PRIORITY_NORMAL
from ..sim.metrics import ExactQuantile, LatencySummary, StreamingMoments, Tally
from .component import DegradableServer
from .spec import PerformanceSpec

__all__ = [
    "FaultEvent",
    "Scenario",
    "CampaignWorkload",
    "WORKLOADS",
    "FAMILIES",
    "generate_scenario",
    "generate_scenarios",
    "CampaignEngine",
    "Request",
    "ScenarioOutcome",
    "InvariantOracle",
    "run_scenario",
    "run_campaign",
    "CampaignResult",
    "SoakWindow",
    "SoakResult",
    "soak_table",
    "merge_soak_events",
    "run_soak",
]

#: Work-accounting comparisons use this absolute slack for float sums.
_EPS = 1e-6

#: Two engines' runs of one (scenario, policy) agree when every work
#: total, member's work and sorted latency differs by no more than this
#: share of the larger value (:meth:`InvariantOracle.check_equivalence`).
EQUIVALENCE_REL_TOL = 1e-9

#: Version of :meth:`ScenarioOutcome.digest`'s byte layout.  Version 1
#: hashed one JSON document with the latencies inlined as a list.
OUTCOME_DIGEST_VERSION = 2


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault in a scenario.

    ``kind`` is ``"stutter"`` (slow to ``factor`` of nominal between
    ``onset`` and ``onset + duration``) or ``"fail-stop"`` (halt at
    ``onset``; ``duration``/``factor`` unused).
    """

    component: str
    kind: str
    onset: float
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("stutter", "fail-stop"):
            raise ValueError(f"kind must be 'stutter' or 'fail-stop', got {self.kind!r}")
        if self.onset < 0:
            raise ValueError(f"onset must be >= 0, got {self.onset}")
        if self.kind == "stutter" and not (self.duration > 0 and 0 < self.factor < 1):
            raise ValueError("stutter needs duration > 0 and factor in (0, 1)")


@dataclass(frozen=True)
class Scenario:
    """One drawn member of a scenario family."""

    family: str
    index: int
    seed: int
    events: Tuple[FaultEvent, ...]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignWorkload:
    """A replicated open-loop workload the campaign drives.

    ``n_pairs`` replica groups of ``group_size`` :class:`DegradableServer`
    each (named ``{prefix}0 .. {prefix}{group_size*n_pairs-1}``, group *k*
    holding members ``group_size*k .. group_size*k+group_size-1``);
    ``n_requests`` requests of ``work`` units arrive one per ``gap``
    seconds, assigned round-robin across groups.  Any replicated
    substrate reachable through the ComponentRegistry can be expressed
    this way -- the stock instances model E1's RAID-10 mirrored reads
    (mirror pairs), E12's replicated DHT gets, and a saturated
    single-replica ingest tier (``group_size=1``) whose arrival spacing
    sits *below* the service time, so queues grow for the whole run.
    """

    name: str
    substrate: str
    prefix: str
    n_pairs: int
    rate: float
    work: float
    gap: float
    n_requests: int
    slo_factor: float = 12.0
    horizon_factor: float = 6.0
    group_size: int = 2
    tolerance: float = 0.2

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")

    @property
    def expected_service(self) -> float:
        """Nominal service time for one request on one member."""
        return self.work / self.rate

    @property
    def span(self) -> float:
        """The submission window: last arrival time."""
        return self.n_requests * self.gap

    @property
    def slo(self) -> float:
        """Per-request latency SLO."""
        return self.slo_factor * self.expected_service

    @property
    def horizon(self) -> float:
        """Simulated time budget; everything must drain before this."""
        return self.horizon_factor * self.span

    def group_names(self) -> List[Tuple[str, ...]]:
        """Replica-group member names, without building anything."""
        size = self.group_size
        return [
            tuple(f"{self.prefix}{size * k + j}" for j in range(size))
            for k in range(self.n_pairs)
        ]

    def build(self, system: System) -> List[Tuple[str, ...]]:
        """Construct and register the servers; returns the group names."""
        groups = self.group_names()
        spec = PerformanceSpec(self.rate, tolerance=self.tolerance)
        for pair in groups:
            for member in pair:
                DegradableServer(system, member, self.rate, spec=spec)
        return groups


# The stock registries are no longer hand-wired here: every workload
# and family is a declarative spec file under ``src/repro/scenarios/``
# (raid10 = E1's mirrored disk pairs, dht = E12's replicated bricks,
# surge = the saturated single-replica ingest tier; plus the five fault
# families), compiled by :mod:`repro.scenario` into exactly the objects
# the literals used to build -- byte-identical scenarios and scorecards,
# pinned by ``tests/scenario/test_bundle_migration.py``.  The import is
# safe mid-module: the bundle loader only needs ``CampaignWorkload``
# (defined above) at load time and defers ``FaultEvent`` lookups to
# generation time.
from ..scenario import bundle as _bundle  # noqa: E402  (needs CampaignWorkload)

#: The stock workloads the e26 experiment and the CLI campaign sweep.
WORKLOADS: Dict[str, CampaignWorkload]
#: Family name -> generator ``(rng, groups, span) -> [FaultEvent, ...]``
#: where ``span`` is the workload's submission window in seconds.
FAMILIES: Dict[str, Callable[..., List[FaultEvent]]]
WORKLOADS, FAMILIES = _bundle.load_stock_registries()


def generate_scenario(workload: CampaignWorkload, family: str, seed: int,
                      index: int) -> Scenario:
    """Draw one scenario; deterministic in (workload, family, seed, index)."""
    if family not in FAMILIES:
        known = ", ".join(FAMILIES)
        raise KeyError(f"no scenario family {family!r}; known: {known}")
    # String seeding hashes via SHA-512 inside random.Random -- stable
    # across processes and interpreter runs, unlike hash()-based seeds.
    rng = Random(f"campaign:{seed}:{workload.name}:{family}:{index}")
    events = FAMILIES[family](rng, workload.group_names(), workload.span)
    return Scenario(family=family, index=index, seed=seed, events=tuple(events))


def generate_scenarios(workload: CampaignWorkload, family: str, seed: int,
                       count: int) -> List[Scenario]:
    """Draw ``count`` scenarios from one family."""
    return [generate_scenario(workload, family, seed, i) for i in range(count)]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Request:
    """One logical request; attempts against replicas are tracked here.

    A request is also its own policy timer.
    :meth:`CampaignEngine.arm_timer` pushes the request itself onto the
    simulator's heap, so it carries the three fields the run loop reads
    from a heap entry: ``callbacks``, ``_ok`` and ``_defused``.
    ``callbacks`` is the policy's ``[on_timer]`` while a timer is
    pending and None otherwise.  The engine sets it to None when the
    request resolves, and the kernel then skips the dead entry without
    a call.
    """

    __slots__ = (
        "index", "work", "group", "submitted_at",
        "resolved", "failed", "latency", "attempts", "outstanding", "tried",
        "callbacks",
    )

    #: A timer never fails, so the run loop has no error to surface.
    _ok = True
    _defused = False

    def __init__(self, index: int, work: float, group: Tuple[str, ...],
                 submitted_at: float):
        self.index = index
        self.work = work
        self.group = group
        self.submitted_at = submitted_at
        self.resolved = False
        self.failed = False
        self.latency: Optional[float] = None
        self.attempts = 0
        self.outstanding = 0
        self.tried: Dict[str, int] = {}
        self.callbacks: Optional[list] = None


@dataclass
class ScenarioOutcome:
    """Everything one (scenario, policy) run produced, engine-audited.

    ``latencies`` holds one response time per resolved request, in
    resolution order, as a C-contiguous float64 array on both engines.
    ``engine`` names the engine that ran (``"discrete"`` or
    ``"hybrid"``); ``fallback`` is the
    :class:`~repro.core.hybrid.HybridInfeasible` message when a hybrid
    request ran discrete instead, else None; ``discrete_requests``
    counts the requests the discrete engine simulated (all of them on
    the discrete engine).  None of the three enters :meth:`digest`: the
    two engines' outcomes of one run digest alike.
    """

    workload: str
    family: str
    scenario_index: int
    policy: str
    n_requests: int
    slo: float
    latencies: np.ndarray
    slo_violations: int
    issued_work: float
    completed_work: float
    claimed_work: float
    wasted_work: float
    failed_work: float
    outstanding_attempts: int
    unresolved_requests: int
    failed_requests: int
    server_work: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    engine: str = "discrete"
    fallback: Optional[str] = None
    discrete_requests: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def execution(self) -> Dict[str, object]:
        """How the run executed: the trace's ``execution`` envelope."""
        return {
            "discrete_requests": self.discrete_requests,
            "engine": self.engine,
            "fallback": self.fallback,
        }

    def digest(self) -> str:
        """SHA-256 over the full-precision run outcome (oracle identity).

        Digest v2 hashes two parts: a canonical-JSON header line (digest
        version, identity fields, sample count, counters, sorted server
        work), then the latencies' little-endian float64 bytes.  The
        bytes are normalized first, so a big-endian or strided array of
        the same values digests the same.
        """
        latencies = np.ascontiguousarray(self.latencies, dtype="<f8")
        header = {
            "digest": OUTCOME_DIGEST_VERSION,
            "workload": self.workload,
            "family": self.family,
            "scenario_index": self.scenario_index,
            "policy": self.policy,
            "samples": int(latencies.size),
            "counters": [
                self.issued_work, self.completed_work, self.claimed_work,
                self.wasted_work, self.failed_work, self.outstanding_attempts,
                self.unresolved_requests, self.failed_requests,
            ],
            "servers": sorted(self.server_work.items()),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":"),
                          allow_nan=True) + "\n"
        digest = hashlib.sha256(blob.encode("utf-8"))
        digest.update(latencies)
        return digest.hexdigest()


class CampaignEngine:
    """Runs one scenario under one policy, owning all work accounting.

    The engine builds its own :class:`~repro.core.system.System` and
    registers the workload's replica groups on it, then binds the
    policy.  The policy routes; the engine issues.  Every attempt flows
    through :meth:`attempt`, every completion lands in
    :meth:`_on_attempt`, and the counters those maintain are what the
    oracle audits -- a policy cannot report success it did not earn.
    :meth:`outcome` is the one place a :class:`ScenarioOutcome` is
    built, on either engine.
    """

    def __init__(self, workload: CampaignWorkload, policy: MitigationPolicy):
        self.system = system = System()
        self.sim = system
        self.workload = workload
        self.groups = workload.build(system)
        self.policy = policy
        self.requests: List[Request] = []
        #: One response time per claimed request, in resolution order.
        self.latencies: List[float] = []
        self.issued_work = 0.0
        self.completed_work = 0.0
        self.claimed_work = 0.0
        self.wasted_work = 0.0
        self.failed_work = 0.0
        self.failed_requests = 0
        #: Work served *analytically* for jobs later handed to the
        #: discrete engine mid-service (fluid-era head jobs pre-seeded by
        #: the hybrid runner).  Keyed by member name; credited only when
        #: the handed-over job completes, so a fail-stop that kills the
        #: job leaves the fluid share uncounted, exactly as a full
        #: discrete run would.
        self.preseed_served: Dict[str, float] = {}
        #: Optional observer invoked with each request as it resolves
        #: (claimed or given up).  The hybrid runner uses this to decide
        #: when a discrete window has gone quiescent.
        self.on_request_resolved: Optional[Callable[[Request], None]] = None
        #: Member name -> its registered component, resolved once here
        #: (before the policy binds) so routing and attempts skip the
        #: registry on every request.
        components = system.components
        self.members: Dict[str, DegradableServer] = {
            name: components.get(name) for name in self.component_names()
        }
        #: True while :class:`~repro.core.hybrid.HybridRunner` probes
        #: fluid routes: every member's backlog then reads as zero to
        #: :meth:`pick_candidate` and to any policy ``pick``.
        self.route_probe = False
        #: The callback list of every armed request, shared: arming a
        #: timer allocates nothing.
        self._timer_callbacks = [policy.on_timer]
        #: The policy's completion hook, or None when its class keeps the
        #: base class's no-op.
        hook = type(policy).on_attempt_completed
        self._on_completed = (
            None if hook is MitigationPolicy.on_attempt_completed
            else policy.on_attempt_completed
        )
        policy.bind(self)

    # -- surface the policies program against --------------------------------------

    @property
    def now(self) -> float:
        return self.sim._now

    @property
    def expected_service(self) -> float:
        return self.workload.expected_service

    @property
    def nominal_rate(self) -> float:
        return self.workload.rate

    def component_names(self) -> List[str]:
        return [name for group in self.groups for name in group]

    def pick_candidate(self, request: Request) -> Optional[str]:
        """Default routing: untried first, then shortest queue, then name.

        The first live member with the smallest ``(tried, depth, name)``
        wins.  Depth is the member's backlog, or zero for every member
        while :attr:`route_probe` is set.
        """
        members = self.members
        tried = request.tried
        probing = self.route_probe
        best = best_key = None
        for name in request.group:
            member = members[name]
            if member._stopped:
                continue
            key = (tried.get(name, 0), 0 if probing else member.backlog, name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def arm_timer(self, request: Request, delay: float) -> None:
        """Call the policy's ``on_timer(request)`` after ``delay``.

        The request itself is the heap entry, keyed as
        ``Simulator.call_later`` keys its timers, so ties break in the
        same order.  A request has at most one pending timer, and the
        timer dies with its request: once the request resolves, the
        kernel skips the entry without a call.  Arming a request whose
        timer is pending, arming a resolved request and a NaN or
        negative delay each raise :class:`ValueError`.
        """
        if request.callbacks is not None:
            raise ValueError(
                f"request {request.index} already has a pending timer"
            )
        if request.resolved:
            raise ValueError(
                f"request {request.index} is resolved: a timer on it "
                "would never fire"
            )
        if not delay >= 0:  # also rejects NaN, which would poison the heap
            raise ValueError(f"timer delay must be >= 0, got {delay}")
        sim = self.sim
        sim._seq += 1
        request.callbacks = self._timer_callbacks
        heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, sim._seq, request))

    def attempt(self, request: Request, name: str) -> bool:
        """Issue one attempt on ``name``; False if it already fail-stopped."""
        component = self.members[name]
        if component._stopped:
            return False
        request.attempts += 1
        request.outstanding += 1
        request.tried[name] = request.tried.get(name, 0) + 1
        self.issued_work += request.work
        job = component.submit(request.work, (request, name, self.sim._now))
        job.callbacks.append(self._on_attempt)
        return True

    def preseed_request(self, index: int, submitted_at: float, name: str,
                        remaining: float,
                        service_started: Optional[float] = None) -> Request:
        """Materialize a fluid-era arrival as an already-queued discrete job.

        The hybrid runner calls this at window open for every request the
        fluid bank had admitted but not completed: the job re-enters the
        discrete world on member ``name`` with ``remaining`` work left
        (the full request work for queued jobs; the unserved residue for
        the one job mid-service) and its *historical* ``submitted_at``,
        so its eventual latency, accounting, and policy observation are
        exactly what an end-to-end discrete run would have produced.

        When the head job is mid-service (``remaining < work``), the
        component's own completion telemetry would report the residue and
        a partial service time; the report callback is replaced with one
        publishing the full work and the true in-service duration from
        ``service_started``, keeping stutter detectors blind to the
        handoff.
        """
        work = self.workload.work
        request = Request(
            index=index,
            work=work,
            group=self.groups[index % len(self.groups)],
            submitted_at=submitted_at,
        )
        self.requests.append(request)
        component = self.members[name]
        request.attempts += 1
        request.outstanding += 1
        request.tried[name] = request.tried.get(name, 0) + 1
        self.issued_work += work
        # ``started=submitted_at``: the attempt conceptually began at
        # arrival, so the policy's observed elapsed time is the full
        # response time -- the same number the discrete run feeds it.
        event = component.submit(remaining, (request, name, submitted_at))
        partial = remaining != work
        if partial and service_started is not None:
            bus = self.system.telemetry
            try:
                event.callbacks.remove(component._report_completion)
            except ValueError:
                pass  # telemetry inactive: nothing to correct
            else:
                started = service_started

                def _publish(ev, name=name, started=started):
                    if ev._ok:
                        bus.completion(name, work, self.sim.now - started)

                event.callbacks.append(_publish)
        if partial:
            bonus = work - remaining

            def _credit(ev, name=name, bonus=bonus):
                if ev._ok:
                    self.preseed_served[name] = (
                        self.preseed_served.get(name, 0.0) + bonus
                    )

            event.callbacks.append(_credit)
        event.callbacks.append(self._on_attempt)
        return request

    def give_up(self, request: Request) -> None:
        """Resolve a request as failed (no live replica remains)."""
        if request.resolved:
            return
        request.resolved = True
        request.callbacks = None
        request.failed = True
        self.failed_requests += 1
        if self.on_request_resolved is not None:
            self.on_request_resolved(request)

    # -- engine internals ----------------------------------------------------------

    def _on_attempt(self, job) -> None:
        """The one callback of every attempt's job, tagged at submit with
        ``(request, member, started)``."""
        request, name, started = job.stats.tag
        now = self.sim._now
        request.outstanding -= 1
        if not job._ok:
            self.failed_work += request.work
            self.policy.on_attempt_failed(request, name)
            return
        self.completed_work += request.work
        claimed = not request.resolved
        if claimed:
            latency = now - request.submitted_at
            request.resolved = True
            request.callbacks = None
            request.latency = latency
            self.claimed_work += request.work
            self.latencies.append(latency)
            if self.on_request_resolved is not None:
                self.on_request_resolved(request)
        else:
            self.wasted_work += request.work
        if self._on_completed is not None:
            self._on_completed(request, name, now - started, claimed)

    def _submit_one(self, index: int) -> None:
        request = Request(
            index=index,
            work=self.workload.work,
            group=self.groups[index % len(self.groups)],
            submitted_at=self.sim._now,
        )
        self.requests.append(request)
        self.policy.start(request)

    def _announce(self, name: str, source: str, action: str, kind: str) -> None:
        """Emit an ``injector-event`` record for one scheduled fault edge.

        These fire at the same instants as the fault calls themselves
        (scheduled first, so a listener hears the announcement before
        the rate actually changes).  A registered hybrid runner uses
        them -- alongside ``state-change`` -- to keep fluid segments
        from spanning an un-announced rate change.
        """
        bus = self.system.telemetry
        if bus.wants(name):
            bus.injector_event(name, source, action, kind=kind)

    def _apply_event(self, tag: int, event: FaultEvent) -> None:
        component = self.system.components.get(event.component)
        source = f"campaign-{tag}"
        if event.kind == "fail-stop":
            self.sim.call_at(event.onset, self._announce, event.component,
                             source, "onset", event.kind)
            self.sim.call_at(event.onset, component.stop, "campaign")
            return
        self.sim.call_at(event.onset, self._announce, event.component,
                         source, "onset", event.kind)
        self.sim.call_at(event.onset, component.set_slowdown, source, event.factor)
        self.sim.call_at(event.onset + event.duration, self._announce,
                         event.component, source, "restore", event.kind)
        self.sim.call_at(
            event.onset + event.duration, component.clear_slowdown, source
        )

    def run(self, scenario: Scenario) -> ScenarioOutcome:
        """Drive the workload under ``scenario`` to the drain horizon."""
        workload = self.workload
        for tag, fault in enumerate(scenario.events):
            self._apply_event(tag, fault)
        # Arrival i at i * gap, after every fault edge at the same instant.
        self.sim.call_series(workload.n_requests, workload.gap, self._submit_one)
        self.sim.run(until=workload.horizon)
        return self.outcome(scenario, np.array(self.latencies, dtype=np.float64))

    def outcome(self, scenario: Scenario, latencies: np.ndarray,
                fluid_jobs: int = 0, fluid_failed: int = 0,
                member_jobs: Sequence[int] = ()) -> ScenarioOutcome:
        """The run's outcome: the engine's counters plus any fluid share.

        ``latencies`` holds every resolved request's response time, in
        resolution order.  The hybrid runner also passes the requests
        its fluid eras resolved analytically (``fluid_jobs``, of which
        ``member_jobs`` counts each member's, in
        :meth:`component_names` order) and failed at arrival
        (``fluid_failed``); the discrete engine has none.
        """
        workload = self.workload
        work = workload.work
        # Fluid work totals come from integer job counts times the unit
        # work -- one multiplication, not a million-term float sum -- so
        # the oracle's conservation splits hold to the same slack as a
        # discrete run even at 10^6 requests.
        fluid_work = fluid_jobs * work
        fluid_served = dict(zip(self.members, member_jobs))
        requests = self.requests
        return ScenarioOutcome(
            workload=workload.name,
            family=scenario.family,
            scenario_index=scenario.index,
            policy=self.policy.name,
            n_requests=len(requests) + fluid_jobs + fluid_failed,
            slo=workload.slo,
            latencies=latencies,
            slo_violations=int(np.count_nonzero(latencies > workload.slo)),
            issued_work=self.issued_work + fluid_work,
            completed_work=self.completed_work + fluid_work,
            claimed_work=self.claimed_work + fluid_work,
            wasted_work=self.wasted_work,
            failed_work=self.failed_work,
            outstanding_attempts=sum(r.outstanding for r in requests),
            unresolved_requests=sum(1 for r in requests if not r.resolved),
            failed_requests=self.failed_requests + fluid_failed,
            server_work={
                name: (member.work_completed
                       + int(fluid_served.get(name, 0)) * work
                       # Fluid-era share of jobs handed over mid-service.
                       + self.preseed_served.get(name, 0.0))
                for name, member in self.members.items()
            },
            discrete_requests=len(requests),
        )


class InvariantOracle:
    """Audits engine counters for the four campaign invariants.

    * **Work conservation** -- completed work splits exactly into claimed
      plus wasted; issued work splits into completed, failed and still-
      outstanding; and the engine's completion counter matches what the
      servers themselves report having served.  A policy fabricating
      results (claiming work no server performed) breaks the split.
    * **No-hang** -- at the drain horizon every request is resolved and
      no attempt is still in flight.  A policy that drops requests on
      the floor is caught here rather than scored as zero-latency.
    * **Seed determinism** -- rerunning the same (scenario, policy) must
      take the same engine and reproduce the outcome digest
      byte-identically; hidden state across runs (module globals,
      wall-clock reads) is detected.
    * **Engine equivalence** -- one (scenario, policy) run on two
      engines must agree: counts exactly, work and latencies to
      :data:`EQUIVALENCE_REL_TOL`.
    """

    def check(self, outcome: ScenarioOutcome) -> List[str]:
        """Violation strings for one run ([] when all invariants hold)."""
        violations: List[str] = []
        split = outcome.claimed_work + outcome.wasted_work
        if abs(outcome.completed_work - split) > _EPS:
            violations.append(
                "work-conservation: completed "
                f"{outcome.completed_work:.6f} != claimed+wasted {split:.6f}"
            )
        accounted = outcome.completed_work + outcome.failed_work
        if outcome.outstanding_attempts == 0 and abs(
            outcome.issued_work - accounted
        ) > _EPS:
            violations.append(
                "work-conservation: issued "
                f"{outcome.issued_work:.6f} != completed+failed {accounted:.6f}"
            )
        served = sum(outcome.server_work.values())
        if abs(served - outcome.completed_work) > _EPS:
            violations.append(
                "work-conservation: servers served "
                f"{served:.6f} but engine completed {outcome.completed_work:.6f}"
            )
        if outcome.unresolved_requests:
            violations.append(
                f"no-hang: {outcome.unresolved_requests} requests unresolved at horizon"
            )
        if outcome.outstanding_attempts:
            violations.append(
                f"no-hang: {outcome.outstanding_attempts} attempts still in flight at horizon"
            )
        return violations

    def check_determinism(self, first: ScenarioOutcome,
                          second: ScenarioOutcome) -> List[str]:
        """Engine, then digest comparison for a same-seed rerun.

        The digest leaves the engine out (both engines' outcomes of one
        run digest alike), so a rerun that took the other engine is
        refused by name before the digests are compared.
        """
        if second.engine != first.engine:
            return [
                f"determinism: rerun took the {second.engine} engine "
                f"after a {first.engine} first run"
            ]
        a, b = first.digest(), second.digest()
        if a != b:
            return [f"determinism: rerun digest {b[:12]} != {a[:12]}"]
        return []

    def check_equivalence(self, reference: ScenarioOutcome,
                          candidate: ScenarioOutcome) -> List[str]:
        """Where ``candidate`` departs from ``reference``, the same
        (scenario, policy) run on another engine.

        The five counts must match exactly.  The five work totals, each
        member's served work and the sorted per-request latencies may
        differ by float noise only: the engines add the same values in
        different orders and forms, so a difference beyond
        :data:`EQUIVALENCE_REL_TOL` of the larger value is a divergence.
        """
        violations = []
        for name in ("n_requests", "slo_violations", "failed_requests",
                     "unresolved_requests", "outstanding_attempts"):
            a, b = getattr(reference, name), getattr(candidate, name)
            if a != b:
                violations.append(f"equivalence: {name} {b} != reference {a}")
        totals = [(name, getattr(reference, name), getattr(candidate, name))
                  for name in ("issued_work", "completed_work", "claimed_work",
                               "wasted_work", "failed_work")]
        members = sorted(reference.server_work.keys() | candidate.server_work.keys())
        totals += [(f"server_work[{member}]",
                    reference.server_work.get(member, 0.0),
                    candidate.server_work.get(member, 0.0))
                   for member in members]
        for name, a, b in totals:
            if abs(a - b) > EQUIVALENCE_REL_TOL * max(abs(a), abs(b)):
                violations.append(
                    f"equivalence: {name} {float(b)} != reference {float(a)}")
        a, b = np.sort(reference.latencies), np.sort(candidate.latencies)
        if a.size != b.size:
            violations.append(
                f"equivalence: {b.size} latencies != reference {a.size}")
        elif a.size:
            excess = np.abs(a - b) - EQUIVALENCE_REL_TOL * np.maximum(
                np.abs(a), np.abs(b))
            worst = int(np.argmax(excess))
            if excess[worst] > 0:
                violations.append(
                    f"equivalence: sorted latency {worst} {float(b[worst])} "
                    f"!= reference {float(a[worst])}")
        return violations


PolicyLike = Union[str, MitigationPolicy, Callable[[], MitigationPolicy]]


def _fresh_policy(policy: PolicyLike) -> MitigationPolicy:
    if isinstance(policy, str):
        return make_policy(policy)
    if isinstance(policy, MitigationPolicy):
        return policy
    return policy()


def run_scenario(workload: CampaignWorkload, scenario: Scenario,
                 policy: PolicyLike, check: bool = True,
                 engine: str = "discrete", sink=None) -> ScenarioOutcome:
    """One (scenario, policy) run on a fresh System; oracle-audited.

    ``policy`` is a roster name, a factory, or a ready instance.  The
    policy binds *before* any request is submitted, so telemetry
    subscriptions (stutter-aware detectors) are active from the first
    completion.

    ``engine`` selects the execution path: ``"discrete"`` (the exact
    oracle) simulates every request; ``"hybrid"`` resolves fault-free
    stretches analytically via :class:`~repro.core.hybrid.HybridRunner`
    and drops to discrete simulation inside stutter/fail-stop windows.
    A workload outside the hybrid engine's exactness preconditions
    falls back to a full discrete run, named in the outcome:
    ``outcome.engine`` says which engine ran and ``outcome.fallback``
    holds the :class:`~repro.core.hybrid.HybridInfeasible` message.

    ``sink`` (a :class:`~repro.telemetry.StreamingTraceSink`) receives
    every record on the run's telemetry bus from the first event on;
    the caller writes the trace's run-start and run-end lines around
    the call.  A hybrid pair that
    :class:`~repro.core.hybrid.HybridRunner` refuses when it is built
    leaves no records: the sink is subscribed only to the discrete
    run that replaces it.  A refusal raised while the hybrid run is
    under way comes after the sink is subscribed, so any records the
    abandoned run emitted stay in the trace.
    """
    if engine not in ("discrete", "hybrid"):
        raise ValueError(f"engine must be 'discrete' or 'hybrid', got {engine!r}")
    fallback = None
    if engine == "hybrid":
        from ..core.hybrid import HybridInfeasible, run_scenario_hybrid

        try:
            return run_scenario_hybrid(workload, scenario, policy, check=check,
                                       sink=sink)
        except HybridInfeasible as exc:
            # Outside the exact regime: the discrete oracle takes over.
            fallback = str(exc)
    campaign_engine = CampaignEngine(workload, _fresh_policy(policy))
    if sink is not None:
        campaign_engine.system.telemetry.subscribe_all(sink.on_record)
    outcome = campaign_engine.run(scenario)
    outcome.fallback = fallback
    if check:
        outcome.violations.extend(InvariantOracle().check(outcome))
    return outcome


# ---------------------------------------------------------------------------
# Campaign sweep + scorecard
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """Everything a campaign produced: every run's outcome, in run order."""

    seed: int
    scenarios_per_family: int
    outcomes: List[ScenarioOutcome]

    @property
    def violations(self) -> List[str]:
        """Every oracle violation in run order, prefixed with its run."""
        return [
            f"{o.workload}/{o.family}[{o.scenario_index}]/{o.policy}: {v}"
            for o in self.outcomes
            for v in o.violations
        ]

    def table(self) -> Table:
        """The scorecard, one row per (workload, family, policy) cell.

        Each row is folded from its cell's outcomes on every call.
        """
        table = Table(
            f"E26: fault-campaign scorecard (seed {self.seed}, "
            f"{self.scenarios_per_family} scenarios/family)",
            [
                "workload", "family", "policy", "mean_s", "p50_s", "p99_s",
                "max_s", "slo_viol_pct", "waste_pct", "oracle",
            ],
            note=(
                "Latencies in seconds over all scenarios of each family; "
                "SLO = 12x nominal service time; waste = duplicate work / "
                "issued work.  Oracle audits work conservation, no-hang "
                "and same-seed rerun determinism on every scenario."
            ),
        )
        cells: Dict[Tuple[str, str, str], List[ScenarioOutcome]] = {}
        for o in self.outcomes:
            cells.setdefault((o.workload, o.family, o.policy), []).append(o)
        for (workload, family, policy), runs in cells.items():
            summary = LatencySummary.of(np.concatenate([o.latencies for o in runs]))
            tally = sum(map(Tally.of, runs), Tally())
            bad = sum(len(o.violations) for o in runs)
            table.add_row(
                workload,
                family,
                policy,
                summary.mean,
                summary.p50,
                summary.p99,
                summary.maximum,
                100.0 * tally.slo_fraction,
                100.0 * tally.waste_fraction,
                "ok" if not bad else f"VIOLATED({bad})",
            )
        return table


def run_campaign(
    seed: int = 7,
    workloads: Sequence[str] = ("raid10", "dht"),
    families: Sequence[str] = ("magnitude", "correlated", "failstop"),
    policies: Optional[Sequence[str]] = None,
    scenarios_per_family: int = 3,
    n_requests: Optional[int] = None,
    verify_determinism: bool = True,
    engine: str = "discrete",
    sink=None,
) -> CampaignResult:
    """The full sweep: workloads x families x scenarios x policies.

    Every scenario runs under the invariant oracle; with
    ``verify_determinism`` (the default) each (scenario, policy) run is
    executed twice and the outcome digests compared, so the scorecard's
    ``oracle`` column certifies byte-identical reruns, not just
    plausible numbers.  ``n_requests`` overrides both workloads' request
    counts (used by fast test parameterisations).  ``engine`` selects
    discrete (exact) or hybrid (fluid between fault windows) execution
    for every run, rerun included.

    ``sink`` (a :class:`~repro.telemetry.StreamingTraceSink`) streams
    the campaign to disk: every primary run is written as a run-start
    line, its records and a run-end line, numbered in recording order.
    Determinism reruns are *not* recorded -- they exist to check the
    primary run, and recording them would double every record in the
    trace.
    """
    if scenarios_per_family < 1:
        raise ValueError(f"scenarios_per_family must be >= 1, got {scenarios_per_family}")
    if policies is None:
        policies = list(POLICIES)
    oracle = InvariantOracle()
    outcomes: List[ScenarioOutcome] = []
    for workload_name in workloads:
        workload = WORKLOADS[workload_name]
        if n_requests is not None:
            workload = replace(workload, n_requests=n_requests)
        for family in families:
            scenarios = generate_scenarios(workload, family, seed, scenarios_per_family)
            for scenario in scenarios:
                for policy_name in policies:
                    run = len(outcomes)
                    if sink is not None:
                        sink.write_run_start(
                            run=run, workload=workload.name,
                            family=scenario.family, index=scenario.index,
                            seed=scenario.seed, policy=policy_name,
                            engine=engine, events=scenario.events,
                        )
                    outcome = run_scenario(workload, scenario, policy_name,
                                           engine=engine, sink=sink)
                    if sink is not None:
                        sink.write_run_end(run, outcome)
                    if verify_determinism:
                        rerun = run_scenario(workload, scenario, policy_name,
                                             check=False, engine=engine)
                        outcome.violations.extend(
                            oracle.check_determinism(outcome, rerun)
                        )
                    outcomes.append(outcome)
    return CampaignResult(
        seed=seed,
        scenarios_per_family=scenarios_per_family,
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# Soak campaigns: long-horizon windows, rolling scorecards
# ---------------------------------------------------------------------------


@dataclass
class SoakWindow(Tally):
    """One soak window's scorecard: exact counters, exact statistics.

    The :class:`~repro.sim.metrics.Tally` fields are the window run's
    counters; ``moments``/``p50``/``p99`` are its latency distribution,
    folded from every sample with numpy
    (:meth:`~repro.sim.metrics.StreamingMoments.of`,
    :class:`~repro.sim.metrics.ExactQuantile`); the ``rolling_*`` fields
    cover the last ``rolling`` windows' samples together (mean and
    ``np.quantile`` p99 over their concatenation), which is what a
    production dashboard would alert on.  ``execution`` is the window
    run's :meth:`ScenarioOutcome.execution` envelope; a window replayed
    from a schema-3 trace has none.
    """

    index: int
    start: float
    end: float
    injectors: int
    moments: StreamingMoments
    p50: ExactQuantile
    p99: ExactQuantile
    rolling_windows: int
    rolling_requests: int
    rolling_slo_violations: int
    rolling_mean: float
    rolling_p99: float
    violations: List[str] = field(default_factory=list)
    execution: Optional[Dict[str, object]] = None

    @property
    def rolling_slo_fraction(self) -> float:
        if not self.rolling_requests:
            return 0.0
        return self.rolling_slo_violations / self.rolling_requests

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, exact (trace window records embed this)."""
        payload: Dict[str, object] = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "injectors": self.injectors,
            "requests": self.requests,
            "slo_violations": self.slo_violations,
            "failed_requests": self.failed_requests,
            "issued_work": self.issued_work,
            "wasted_work": self.wasted_work,
            "moments": self.moments.to_dict(),
            "p50": self.p50.to_dict(),
            "p99": self.p99.to_dict(),
            "rolling": {
                "windows": self.rolling_windows,
                "requests": self.rolling_requests,
                "slo_violations": self.rolling_slo_violations,
                "mean": self.rolling_mean,
                "p99": self.rolling_p99,
            },
            "oracle_violations": list(self.violations),
        }
        if self.execution is not None:
            payload["execution"] = dict(self.execution)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SoakWindow":
        """Rebuild a window serialized by :meth:`to_dict` (trace replay)."""
        rolling = payload["rolling"]
        return cls(
            index=int(payload["index"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            injectors=int(payload["injectors"]),
            requests=int(payload["requests"]),
            slo_violations=int(payload["slo_violations"]),
            failed_requests=int(payload["failed_requests"]),
            issued_work=float(payload["issued_work"]),
            wasted_work=float(payload["wasted_work"]),
            moments=StreamingMoments.from_dict(payload["moments"]),
            p50=ExactQuantile.from_dict(payload["p50"]),
            p99=ExactQuantile.from_dict(payload["p99"]),
            rolling_windows=int(rolling["windows"]),
            rolling_requests=int(rolling["requests"]),
            rolling_slo_violations=int(rolling["slo_violations"]),
            rolling_mean=float(rolling["mean"]),
            rolling_p99=float(rolling["p99"]),
            violations=list(payload.get("oracle_violations", [])),
            execution=payload.get("execution"),
        )


@dataclass
class SoakResult(Tally):
    """A whole soak campaign, windows optionally dropped as they stream.

    The :class:`~repro.sim.metrics.Tally` fields sum every window's.
    With ``retain_windows=False`` (the flat-memory production mode)
    only the merged whole-soak statistics and the final rolling
    aggregates survive in RAM -- per-window scorecards live in the
    attached trace sink instead.
    """

    seed: int
    workload: str
    family: str
    policy: str
    engine: str
    n_windows: int
    window_span: float
    injectors: int
    moments: StreamingMoments
    final_rolling_mean: float
    final_rolling_p99: float
    windows: List[SoakWindow] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def horizon(self) -> float:
        """Total virtual time driven, in seconds."""
        return self.n_windows * self.window_span

    def table(self) -> Table:
        """Per-window scorecard (needs ``retain_windows=True``)."""
        if not self.windows and self.n_windows:
            raise ValueError(
                "windows were streamed to the sink, not retained; "
                "run with retain_windows=True or replay the trace"
            )
        return soak_table(
            self.windows,
            title=(
                f"Soak: {self.workload} x {self.family} x {self.policy} "
                f"({self.engine}, seed {self.seed}, {self.n_windows} windows, "
                f"{self.horizon / 3600.0:.1f}h virtual)"
            ),
        )


def soak_table(windows: Sequence[SoakWindow], title: str) -> Table:
    """Render window scorecards (live or trace-replayed) as one table."""
    table = Table(
        title,
        [
            "window", "start_s", "injectors", "requests", "mean_s", "p99_s",
            "slo_viol_pct", "roll_p99_s", "roll_slo_pct", "oracle",
        ],
        note=(
            "One row per soak window (each a fresh run over the window's "
            "virtual span); roll_* columns cover the trailing windows' "
            "samples together (exact np.quantile p99) -- the rolling "
            "scorecard a production alert would watch."
        ),
    )
    for w in windows:
        table.add_row(
            w.index,
            w.start,
            w.injectors,
            w.requests,
            w.moments.mean if w.moments.count else 0.0,
            w.p99.value(),
            100.0 * w.slo_fraction,
            w.rolling_p99,
            100.0 * w.rolling_slo_fraction,
            "ok" if not w.violations else f"VIOLATED({len(w.violations)})",
        )
    return table


def merge_soak_events(draws: Sequence[Scenario],
                      extra: Sequence[FaultEvent] = (),
                      ) -> Tuple[FaultEvent, ...]:
    """Union overlapping injector schedules into one runnable schedule.

    Thousands of independent draws can disagree about a component's
    fate; the physical rule is that a fail-stop is final.  Events are
    ordered by onset and every event landing on a component at or after
    its first fail-stop is dropped (``DegradableMixin`` would ignore
    the slowdown anyway; dropping it keeps the injector-event stream in
    the trace honest).  Overlapping stutters on one component survive
    as separate injector channels and compound multiplicatively.
    """
    merged = sorted(
        [e for s in draws for e in s.events] + list(extra),
        key=lambda e: (e.onset, e.component, e.kind, e.duration, e.factor),
    )
    stopped: Dict[str, float] = {}
    kept: List[FaultEvent] = []
    for event in merged:
        cut = stopped.get(event.component)
        if cut is not None and event.onset >= cut:
            continue
        kept.append(event)
        if event.kind == "fail-stop":
            stopped[event.component] = event.onset
    return tuple(kept)


def run_soak(
    seed: int = 7,
    workload: Union[str, CampaignWorkload] = "raid10",
    family: str = "magnitude",
    policy: PolicyLike = "stutter-aware",
    n_windows: int = 6,
    injectors_per_window: int = 2,
    n_requests: Optional[int] = None,
    engine: str = "hybrid",
    rolling: int = 4,
    extra_events: Sequence[Tuple[int, FaultEvent]] = (),
    sink=None,
    check: bool = True,
    retain_windows: bool = True,
) -> SoakResult:
    """A long-horizon soak: ``n_windows`` windows of overlapping injectors.

    Window *w* covers virtual time ``[w*H, (w+1)*H)`` where ``H`` is the
    workload's drain horizon; each window is an independent oracle-audited
    run (a fresh ``System`` -- faults do not cross window edges) whose
    fault schedule is the merged union of ``injectors_per_window`` family
    draws (indices ``w*k .. w*k+k-1``, so no draw repeats across the
    soak) plus any ``extra_events`` pinned to that window as
    ``(window_index, event)`` pairs in window-local time.

    Fault extents are drawn from the workload each window runs, with
    ``n_requests`` applied, so onsets and durations scale with the
    window's span.  A window smaller than stock keeps its fault edges
    inside its horizon; a window larger than stock stutters for the
    same share of its span as a stock one, unlike
    :func:`repro.core.hybrid.scale_scenario`, which draws stock-sized
    faults.

    Every window statistic is exact: mean, p50 and p99 come from the
    window's whole latency array, and the rolling mean and p99 from the
    trailing ``rolling`` windows' arrays taken together
    (``np.quantile``).  Memory is O(rolling x window size) plus the
    windows retained: those trailing arrays are all that is kept, and
    with ``retain_windows=False`` each window's scorecard is streamed to
    ``sink`` (any :class:`repro.telemetry.StreamingTraceSink`-shaped
    object) and dropped, so memory stays flat as the virtual horizon
    grows (``tests/faults/test_outcome_columnar.py`` pins it).
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if rolling < 1:
        raise ValueError(f"rolling must be >= 1, got {rolling}")
    if injectors_per_window < 0:
        raise ValueError(f"injectors_per_window must be >= 0, got {injectors_per_window}")
    base = WORKLOADS[workload] if isinstance(workload, str) else workload
    scaled = base if n_requests is None else replace(base, n_requests=n_requests)
    span = scaled.horizon
    extras: Dict[int, List[FaultEvent]] = {}
    for window_index, event in extra_events:
        if not 0 <= window_index < n_windows:
            raise ValueError(
                f"extra event pinned to window {window_index}, but the soak "
                f"has windows 0..{n_windows - 1}"
            )
        extras.setdefault(window_index, []).append(event)

    policy_name = policy if isinstance(policy, str) else _fresh_policy(policy).name
    recent: deque = deque(maxlen=rolling)
    windows: List[SoakWindow] = []
    total_moments = StreamingMoments()
    total = Tally()
    injectors = 0
    violations: List[str] = []
    rolling_mean = 0.0
    rolling_p99 = 0.0
    for w in range(n_windows):
        start = w * span
        draws = [
            generate_scenario(scaled, family, seed, w * injectors_per_window + j)
            for j in range(injectors_per_window)
        ]
        events = merge_soak_events(draws, extras.get(w, ()))
        scenario = Scenario(family=family, index=w, seed=seed, events=events)
        if sink is not None:
            sink.time_offset = start
            sink.write_run_start(
                run=w, workload=scaled.name, family=family, index=w,
                seed=seed, policy=policy_name, engine=engine, events=events,
                start=start,
            )
        outcome = run_scenario(scaled, scenario, policy, check=check,
                               engine=engine, sink=sink)
        latencies = outcome.latencies
        moments = StreamingMoments.of(latencies)
        p50, p99 = ExactQuantile.of(latencies, (0.5, 0.99))
        window_violations = [f"window[{w}]: {v}" for v in outcome.violations]
        tally = Tally.of(outcome)
        recent.append((latencies, tally))
        trailing = np.concatenate([lat for lat, __ in recent])
        rolling_mean = rolling_p99 = 0.0
        if trailing.size:
            rolling_mean = float(np.mean(trailing))
            # The concatenation is a private copy: partition it in place
            # (after the order-sensitive mean) rather than copy it again.
            rolling_p99 = float(np.quantile(trailing, 0.99, overwrite_input=True))
        del trailing
        trailing_tally = sum((t for __, t in recent), Tally())
        score = SoakWindow(
            **asdict(tally),
            index=w,
            start=start,
            end=start + span,
            injectors=len(events),
            moments=moments,
            p50=p50,
            p99=p99,
            rolling_windows=len(recent),
            rolling_requests=trailing_tally.requests,
            rolling_slo_violations=trailing_tally.slo_violations,
            rolling_mean=rolling_mean,
            rolling_p99=rolling_p99,
            violations=window_violations,
            execution=outcome.execution(),
        )
        if sink is not None:
            sink.write_window(score.to_dict())
        total_moments.merge(moments)
        total += tally
        injectors += len(events)
        violations.extend(window_violations)
        if retain_windows:
            windows.append(score)
        # Everything per-window but the latency array the rolling deque
        # still holds is now folded into the aggregates above; dropping
        # it here, and collecting the window's System (a reference
        # cycle the generational collector may hold for many windows),
        # is what keeps memory flat as the horizon grows.
        del outcome, latencies, score, moments, p50, p99
        gc.collect()
    return SoakResult(
        **asdict(total),
        seed=seed,
        workload=scaled.name,
        family=family,
        policy=policy_name,
        engine=engine,
        n_windows=n_windows,
        window_span=span,
        injectors=injectors,
        moments=total_moments,
        final_rolling_mean=rolling_mean,
        final_rolling_p99=rolling_p99,
        windows=windows,
        violations=violations,
    )
