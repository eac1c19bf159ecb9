"""Compile declarative specs into the campaign stack's runtime objects.

:func:`compile_spec` turns a :class:`~repro.scenario.spec.ScenarioSpec`
into a :class:`CompiledScenario`: the spec's topology and arrival
schedule become a :class:`~repro.faults.campaign.CampaignWorkload`
(which the :class:`~repro.faults.campaign.CampaignEngine` builds as
:class:`~repro.faults.component.DegradableServer` instances registered
through the ComponentRegistry), its fault binding becomes a
:class:`~repro.faults.campaign.Scenario` factory, and engine eligibility
(discrete / hybrid) is probed from the spec via the *same*
predicates the engines enforce at runtime
(:func:`repro.core.hybrid.feasibility_reason`), so a compiled spec runs
through the existing ``CampaignEngine`` / ``InvariantOracle`` /
``run_scenario`` machinery unchanged.

:func:`compile_family` turns a
:class:`~repro.scenario.spec.FamilySpec` into a generator callable with
the registry signature ``(rng, groups, span) -> [FaultEvent, ...]``.
The RNG draw order is fixed by the spec shape -- target group, target
member, then onset / duration / factor in that order, with ``fixed``
cells consuming no draws and ``per_member`` factors drawn inside the
member loop -- which is exactly the order the hand-wired stock closures
used, so the bundled family specs reproduce their scenarios
byte-identically (pinned by ``tests/scenario/test_bundle_migration.py``).

All imports of :mod:`repro.faults.campaign` are deferred into function
bodies: campaign's own module bottom loads the stock registries from
:mod:`repro.scenario.bundle`, and this module must be importable at
that moment.  ``FaultEvent`` comes from :mod:`repro.faults.model`,
which never imports this package, so it is imported at the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..faults.model import FaultEvent
from .spec import FamilySpec, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults.campaign import CampaignWorkload, Scenario

__all__ = [
    "CompiledScenario",
    "compile_family",
    "compile_spec",
]

def compile_family(spec: FamilySpec) -> Callable:
    """A registry-shaped generator ``(rng, groups, span) -> events``.

    The returned callable carries its source spec as ``.spec`` so
    registries loaded from bundled files remain introspectable.
    """

    def generator(rng, groups, span) -> List[FaultEvent]:
        if spec.target == "member":
            pair = groups[rng.randrange(len(groups))]
            members = (pair[rng.randrange(len(pair))],)
        else:
            members = tuple(groups[rng.randrange(len(groups))])
        onset = spec.onset.sample(rng, span)
        if spec.fault == "fail-stop":
            return [FaultEvent(m, "fail-stop", onset=onset) for m in members]
        duration = spec.duration.sample(rng, span)
        if spec.factor.per_member:
            return [
                FaultEvent(m, "stutter", onset=onset, duration=duration,
                           factor=spec.factor.sample(rng, span))
                for m in members
            ]
        factor = spec.factor.sample(rng, span)
        return [
            FaultEvent(m, "stutter", onset=onset, duration=duration,
                       factor=factor)
            for m in members
        ]

    generator.spec = spec
    generator.__name__ = f"family_{spec.name}"
    generator.__qualname__ = generator.__name__
    generator.__doc__ = (
        f"Compiled fault family {spec.name!r}: one {spec.fault} on a drawn "
        f"{spec.target}."
    )
    return generator


@dataclass(frozen=True)
class CompiledScenario:
    """One spec, compiled: the workload plus scenario/eligibility hooks.

    Run it through :func:`repro.faults.campaign.run_scenario` with
    ``workload`` and :meth:`scenario`.
    """

    spec: ScenarioSpec
    workload: "CampaignWorkload"

    @property
    def name(self) -> str:
        return self.spec.name

    def digest(self) -> str:
        """The spec digest: compiled identity is spec identity."""
        return self.spec.digest()

    def scenario(self, seed: int = 7, index: int = 0) -> "Scenario":
        """The spec's fault schedule as a runnable ``Scenario``.

        Explicit ``events`` pin the schedule (``seed``/``index`` become
        labels only); a ``family`` reference draws scenario ``index``
        from the named registered family, deterministic in
        ``(workload, family, seed, index)`` exactly like the campaign
        sweep; a fault-free spec yields the empty schedule.
        """
        from ..faults import campaign

        if self.spec.family is None:
            return campaign.Scenario(family=self.spec.name, index=index,
                                     seed=seed, events=self.spec.events)
        return campaign.generate_scenario(self.workload, self.spec.family,
                                          seed, index)

    def eligibility(self, policy: Optional[str] = None) -> Dict[str, Tuple[bool, str]]:
        """Engine -> (eligible, reason), resolved from the spec.

        The hybrid verdict uses the same bind-time predicate the runner
        enforces (:func:`repro.core.hybrid.feasibility_reason`), so
        "eligible" here means "will not raise ``HybridInfeasible`` at
        bind time" -- per-era refusals (queueing on a multi-live group)
        remain runtime checks, and ``run_scenario`` falls back to
        discrete on any of them.  Without a policy the verdict is
        shape-level: which part of the roster binds.
        """
        from ..core.hybrid import feasibility_reason, shape_feasibility

        verdicts: Dict[str, Tuple[bool, str]] = {
            "discrete": (True, "exact oracle; always eligible"),
        }
        chosen = policy if policy is not None else self.spec.policy
        if chosen is not None:
            reason = feasibility_reason(self.workload, self._bound_policy(chosen))
            verdicts["hybrid"] = (
                (True, f"binds under {chosen!r}") if reason is None
                else (False, reason)
            )
        else:
            shape = shape_feasibility(self.workload)
            verdicts["hybrid"] = (
                (True, "all policies bind") if shape is None
                else (True, f"timer-free policies only ({shape})")
            )
        return verdicts

    def _bound_policy(self, name: str):
        """A fresh policy bound to a throwaway engine on this workload.

        Timer parameters (``base_timeout``, estimator floors, hedge
        delays) only exist after ``bind``, so the feasibility probe
        binds against real wiring -- the ``CampaignEngine`` that
        ``run_scenario`` builds -- and discards it.
        """
        from ..faults import campaign

        return campaign.CampaignEngine(
            self.workload, campaign._fresh_policy(name)
        ).policy


def compile_spec(spec: ScenarioSpec) -> CompiledScenario:
    """Compile one scenario spec into its runtime workload wiring."""
    if isinstance(spec, FamilySpec):
        raise TypeError(
            f"{spec.name!r} is a family spec; compile it with compile_family()"
        )
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"compile_spec needs a ScenarioSpec, got {type(spec).__name__}"
        )
    from ..faults.campaign import CampaignWorkload

    workload = CampaignWorkload(
        name=spec.name,
        substrate=spec.groups.substrate,
        prefix=spec.groups.prefix,
        n_pairs=spec.groups.count,
        rate=spec.groups.rate,
        work=spec.arrivals.work,
        gap=spec.arrivals.gap,
        n_requests=spec.arrivals.requests,
        slo_factor=spec.slo_factor,
        horizon_factor=spec.horizon_factor,
        group_size=spec.groups.size,
        tolerance=spec.groups.tolerance,
    )
    return CompiledScenario(spec=spec, workload=workload)
