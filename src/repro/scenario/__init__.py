"""Declarative scenario specifications: scenarios as data, not code.

The campaign stack (:mod:`repro.faults.campaign`) used to be extended by
hand-wiring Python -- a new workload meant a new
:class:`~repro.faults.campaign.CampaignWorkload` constructor call, a new
fault family meant a new closure.  This package inverts that: a scenario
is a *datum* -- a small JSON/TOML document -- and the Python objects are
compiled from it.

* :mod:`repro.scenario.spec` -- the typed spec dataclasses
  (:class:`ScenarioSpec`, :class:`FamilySpec`) with a strict validating
  loader and a stable ``to_dict``/``from_dict``/``digest`` round-trip
  mirroring :class:`repro.analysis.report.Table`'s.
* :mod:`repro.scenario.compile` -- ``compile_spec``: spec ->
  :class:`CompiledScenario` (a ``CampaignWorkload`` wired through the
  ComponentRegistry, a ``Scenario`` factory, and engine-eligibility
  probes), so compiled specs run through the existing
  ``CampaignEngine``/``InvariantOracle``/``run_scenario`` unchanged.
* :mod:`repro.scenario.bundle` -- the bundled spec files under
  ``src/repro/scenarios/``; the stock ``WORKLOADS``/``FAMILIES``
  registries in :mod:`repro.faults.campaign` are loaded from here at
  import, byte-identical to the hand-wired originals they replaced.
* :mod:`repro.scenario.generate` -- a seeded generator of random
  scenario specs (topology, rates, fault schedules) within declared
  bounds, ``Random("scenario:{seed}:{index}")`` string-derived draws.
* :mod:`repro.scenario.sweep` -- ``run_sweep``: N generated scenarios
  against the universal :class:`~repro.faults.campaign.InvariantOracle`,
  rolled up into one scorecard with a replay-stable digest.
"""

from .compile import CompiledScenario, compile_family, compile_spec
from .generate import SweepBounds, generate_spec, generate_specs
from .spec import (
    ArrivalSchedule,
    Draw,
    FamilySpec,
    FaultEventSpec,
    GroupTopology,
    ScenarioSpec,
    SpecError,
    load_spec,
    parse_spec,
)
from .sweep import SweepResult, run_sweep

__all__ = [
    "ArrivalSchedule",
    "CompiledScenario",
    "Draw",
    "FamilySpec",
    "FaultEventSpec",
    "GroupTopology",
    "ScenarioSpec",
    "SpecError",
    "SweepBounds",
    "SweepResult",
    "compile_family",
    "compile_spec",
    "generate_spec",
    "generate_specs",
    "load_spec",
    "parse_spec",
    "run_sweep",
]
