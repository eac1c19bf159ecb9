"""E28: generative scenario sweeps under the universal invariant oracle.

The campaign experiments (E26, E27) argue over *curated* scenarios:
three workloads and five fault families a human wired up.  The paper's
thesis is broader -- fail-stutter behaviour matters whatever the
topology and workload shape -- and Zhou et al.'s formal framework
(PAPERS.md) shows how to earn that breadth: make fault scenarios
first-class data and sweep machine-generated ones against a universal
correctness oracle.  This experiment does exactly that with the
:mod:`repro.scenario` stack: ``count`` scenarios are drawn from seeded
bounds (replica-group topology, rates, open-loop arrival schedule,
stutter/fail-stop schedule, policy binding), compiled to the same
engine objects the curated experiments use, and every run is audited
by the :class:`~repro.faults.campaign.InvariantOracle` --
work conservation, no-hang at the horizon, byte-identical same-seed
reruns.  A substrate is drawn too, but it only picks the members' name
prefix: ``CampaignWorkload.build`` makes every member a
:class:`~repro.faults.component.DegradableServer`.

The expected shape of the table: every row's ``oracle`` column says
``ok`` on both engines, the discrete and hybrid rows agree on request
counts and failure counts per policy, and the sweep digest printed in
the note is replay-stable -- the machinery, not any particular
scenario, is what is being certified.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..scenario import run_sweep

__all__ = ["run"]


def run(
    seed: int = 7,
    count: int = 100,
    engines: tuple = ("discrete", "hybrid"),
    verify_determinism: bool = True,
) -> Table:
    """Regenerate the E28 scorecard: engine x policy over generated scenarios."""
    table = Table(
        f"E28: generative sweep, {count} machine-generated scenarios "
        f"(seed {seed})",
        [
            "engine", "policy", "scenarios", "hybrid_runs", "requests",
            "mean_s", "p99_s", "slo_viol_pct", "waste_pct", "failed_pct",
            "oracle", "sweep_digest",
        ],
        note=(
            "Scenarios are drawn from SweepBounds (topology, rates, "
            "arrival schedule, fault schedule, policy; every member is a "
            "DegradableServer, and the drawn substrate only names it); "
            "the invariant oracle is the universal pass/fail.  "
            "hybrid-ineligible scenarios fall back to the discrete oracle "
            "by name; the sweep digest is replay-stable per engine."
        ),
    )
    for engine in engines:
        result = run_sweep(seed=seed, count=count, engine=engine,
                           verify_determinism=verify_determinism)
        digest = result.digest()[:12]
        for row in result.table().rows:
            table.add_row(engine, *row, digest)
    return table
