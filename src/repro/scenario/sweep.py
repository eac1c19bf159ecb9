"""Generative sweeps: N random scenarios vs. the invariant oracle.

:func:`run_sweep` generates ``count`` scenarios from
:mod:`repro.scenario.generate`, compiles each, and runs it under its
drawn policy with the :class:`~repro.faults.campaign.InvariantOracle`
as the universal pass/fail: work conservation, no-hang at the horizon,
and (by default) a same-seed rerun that must take the same engine and
match the outcome digest byte-for-byte.  The :class:`SweepResult` keeps
each run as a ``(spec digest, ScenarioOutcome)`` pair; its scorecard
aggregates per policy, and :meth:`SweepResult.digest` hashes every
run's ``(spec digest, outcome digest, engine)`` triple -- the replay
identity ``python -m repro sweep`` prints and CI compares across
reruns.

With ``engine="hybrid"`` each scenario first attempts the hybrid
fluid/discrete path; a scenario outside the exact regime (at bind time
or per-era) falls back to the discrete oracle *by name*: the
:class:`~repro.core.hybrid.HybridInfeasible` reason, which
:func:`~repro.faults.campaign.run_scenario` keeps as the outcome's
``fallback``, is listed by ``SweepResult.fallbacks`` rather than
silently swallowed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .compile import compile_spec
from .generate import SweepBounds, generate_spec

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..faults.campaign import ScenarioOutcome

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """Everything one generative sweep produced.

    ``runs`` holds one ``(spec digest, outcome)`` pair per generated
    scenario, in generation order; each outcome's ``workload`` is its
    spec's name and its ``violations`` include the determinism check.
    """

    seed: int
    count: int
    engine: str
    runs: List[Tuple[str, "ScenarioOutcome"]]

    @property
    def fallbacks(self) -> List[Tuple[str, str]]:
        """``(spec name, HybridInfeasible reason)`` per discrete fallback."""
        return [
            (outcome.workload, outcome.fallback)
            for __, outcome in self.runs
            if outcome.fallback is not None
        ]

    @property
    def violations(self) -> List[str]:
        return [
            f"{outcome.workload}[{outcome.policy}]: {violation}"
            for __, outcome in self.runs
            for violation in outcome.violations
        ]

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """SHA-256 over every run's (spec, outcome, engine) identity."""
        payload = [
            [spec_digest, outcome.digest(), outcome.engine]
            for spec_digest, outcome in self.runs
        ]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def table(self):
        """The rolled-up scorecard, one row per policy drawn."""
        from ..analysis.report import Table
        from ..sim.metrics import LatencySummary, Tally

        by_policy: Dict[str, List["ScenarioOutcome"]] = {}
        for __, outcome in self.runs:
            by_policy.setdefault(outcome.policy, []).append(outcome)
        table = Table(
            f"Generative sweep: seed {self.seed}, {self.count} scenarios, "
            f"engine {self.engine}",
            [
                "policy", "scenarios", "hybrid_runs", "requests", "mean_s",
                "p99_s", "slo_viol_pct", "waste_pct", "failed_pct", "oracle",
            ],
            note=(
                "Scenarios are machine-generated within SweepBounds; the "
                "invariant oracle (work conservation, no-hang, rerun "
                "determinism) is the universal pass/fail.  hybrid_runs "
                "counts scenarios the hybrid engine executed end-to-end; "
                "the rest fell back to the discrete oracle by name."
            ),
        )
        for policy in sorted(by_policy):
            runs = by_policy[policy]
            summary = LatencySummary.of(np.concatenate([r.latencies for r in runs]))
            tally = sum(map(Tally.of, runs), Tally())
            bad = sum(len(r.violations) for r in runs)
            table.add_row(
                policy,
                len(runs),
                sum(1 for r in runs if r.engine == "hybrid"),
                tally.requests,
                summary.mean,
                summary.p99,
                100.0 * tally.slo_fraction,
                100.0 * tally.waste_fraction,
                100.0 * tally.failed_fraction,
                "ok" if not bad else f"VIOLATED({bad})",
            )
        return table


def run_sweep(
    seed: int = 7,
    count: int = 25,
    engine: str = "discrete",
    verify_determinism: bool = True,
    bounds: Optional[SweepBounds] = None,
) -> SweepResult:
    """Run ``count`` generated scenarios; every run oracle-audited.

    With ``verify_determinism`` (the default) each scenario runs twice
    and the oracle's determinism check compares them -- under
    ``engine="hybrid"`` the rerun retries the hybrid path, so an
    unstable fallback decision would surface as a determinism
    violation, not vanish.
    """
    if engine not in ("discrete", "hybrid"):
        raise ValueError(
            f"engine must be 'discrete' or 'hybrid', got {engine!r}"
        )
    from ..faults.campaign import InvariantOracle, run_scenario

    oracle = InvariantOracle()
    runs: List[Tuple[str, "ScenarioOutcome"]] = []
    for index in range(count):
        spec = generate_spec(seed, index, bounds)
        compiled = compile_spec(spec)
        scenario = compiled.scenario(seed=seed, index=index)
        outcome = run_scenario(compiled.workload, scenario, spec.policy,
                               engine=engine)
        if verify_determinism:
            rerun = run_scenario(compiled.workload, scenario, spec.policy,
                                 check=False, engine=engine)
            outcome.violations.extend(oracle.check_determinism(outcome, rerun))
        runs.append((spec.digest(), outcome))
    return SweepResult(seed=seed, count=count, engine=engine, runs=runs)
