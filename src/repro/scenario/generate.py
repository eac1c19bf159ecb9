"""Seeded generative scenario sampling: random specs within bounds.

The generator inverts the bundled-spec workflow: instead of a human
writing one spec file, :func:`generate_spec` draws a whole random
scenario -- substrate, replica-group topology, rates, arrival schedule,
fault schedule, policy binding -- from ``Random(f"scenario:{seed}:{index}")``
(string seeding hashes via SHA-512, independent of ``PYTHONHASHSEED``,
the same determinism discipline the campaign generators use), bounded
by a declared :class:`SweepBounds` envelope.  Every draw lands inside
the spec grammar's validity region, so a generated spec always parses,
compiles and -- with the headroom and horizon margins below -- drains
before its horizon, which is what lets the sweep driver
(:mod:`repro.scenario.sweep`) use the
:class:`~repro.faults.campaign.InvariantOracle` as a universal
pass/fail over thousands of machine-generated scenarios.

Bounds are chosen so the oracle *should* always pass; a violation is a
finding about the engine or a policy, not about the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Optional, Tuple

from ..faults.model import FaultEvent
from .spec import ArrivalSchedule, GroupTopology, ScenarioSpec

__all__ = ["SweepBounds", "generate_spec", "generate_specs"]

#: Substrate -> member-name prefix for generated topologies.  The prefix
#: is all the drawn substrate changes: ``CampaignWorkload.build`` makes
#: every member a ``DegradableServer`` whatever the substrate.
_PREFIXES = {
    "storage": "disk",
    "network": "link",
    "processor": "cpu",
    "cluster": "node",
    "core": "unit",
}


@dataclass(frozen=True)
class SweepBounds:
    """The envelope generated scenarios are drawn from.

    The defaults keep every draw inside the engines' well-behaved
    region:

    * ``headroom`` (per-member arrival spacing over nominal service
      time) stays above 1, so fault-free groups never saturate and the
      drain horizon is a real bound, not a race.
    * ``factor`` stays at or above 0.25, so a stuttered server still
      retires work at a quarter rate: even a fault window lasting
      ``duration_frac`` of the span drains well inside the
      ``horizon_factor`` margin.
    * fault components are sampled *without replacement*, so no
      component carries overlapping windows and fail-stops never
      collide with stutters.
    """

    substrates: Tuple[str, ...] = ("storage", "network", "processor", "cluster")
    groups: Tuple[int, int] = (2, 6)
    group_size: Tuple[int, int] = (1, 3)
    rate: Tuple[float, float] = (2.0, 150.0)
    service: Tuple[float, float] = (0.04, 0.15)
    headroom: Tuple[float, float] = (1.6, 3.0)
    requests: Tuple[int, int] = (120, 360)
    events: Tuple[int, int] = (1, 3)
    onset_frac: Tuple[float, float] = (0.05, 0.5)
    duration_frac: Tuple[float, float] = (0.1, 0.4)
    factor: Tuple[float, float] = (0.25, 0.7)
    failstop_prob: float = 0.2
    policies: Tuple[str, ...] = (
        "fixed-timeout", "adaptive-timeout", "retry-backoff",
        "hedged", "stutter-aware", "no-mitigation",
    )
    slo_factor: float = 12.0
    horizon_factor: float = 8.0


def generate_spec(seed: int, index: int,
                  bounds: Optional[SweepBounds] = None) -> ScenarioSpec:
    """Draw generated scenario ``index`` of sweep ``seed``.

    Deterministic in ``(seed, index, bounds)``; the spec is named
    ``gen-{seed}-{index}`` and always validates against the spec
    grammar (the draws cannot leave it).
    """
    bounds = bounds if bounds is not None else SweepBounds()
    rng = Random(f"scenario:{seed}:{index}")
    substrate = bounds.substrates[rng.randrange(len(bounds.substrates))]
    count = rng.randint(*bounds.groups)
    size = rng.randint(*bounds.group_size)
    rate = rng.uniform(*bounds.rate)
    service = rng.uniform(*bounds.service)
    work = service * rate
    headroom = rng.uniform(*bounds.headroom)
    # Per-member spacing is gap * count; headroom > 1 keeps it above the
    # nominal service time, so fault-free groups idle between arrivals.
    gap = service * headroom / count
    requests = rng.randint(*bounds.requests)
    groups = GroupTopology(
        substrate=substrate,
        prefix=_PREFIXES[substrate],
        count=count,
        size=size,
        rate=rate,
    )
    arrivals = ArrivalSchedule(work=work, gap=gap, requests=requests)
    span = requests * gap
    n_events = rng.randint(*bounds.events)
    members = groups.member_names()
    components = rng.sample(members, min(n_events, len(members)))
    events: List[FaultEvent] = []
    for component in components:
        if rng.random() < bounds.failstop_prob:
            events.append(FaultEvent(component, "fail-stop",
                                     onset=rng.uniform(*bounds.onset_frac) * span))
        else:
            events.append(FaultEvent(component, "stutter",
                                     onset=rng.uniform(*bounds.onset_frac) * span,
                                     duration=rng.uniform(*bounds.duration_frac) * span,
                                     factor=rng.uniform(*bounds.factor)))
    policy = bounds.policies[rng.randrange(len(bounds.policies))]
    return ScenarioSpec(
        name=f"gen-{seed}-{index}",
        groups=groups,
        arrivals=arrivals,
        slo_factor=bounds.slo_factor,
        horizon_factor=bounds.horizon_factor,
        events=tuple(events),
        policy=policy,
    )


def generate_specs(seed: int, count: int,
                   bounds: Optional[SweepBounds] = None) -> List[ScenarioSpec]:
    """Generated scenarios ``0 .. count-1`` of sweep ``seed``."""
    return [generate_spec(seed, index, bounds) for index in range(count)]
