"""E27: hybrid fluid/discrete execution -- exactness and million-client scale.

The paper's setting is systems "comprised of ever larger numbers of
components", where the law of large numbers guarantees somebody is
always stuttering.  The discrete campaign engine simulates every request
as heap events, which caps a sweep at ~10^5 requests -- three orders of
magnitude short of the fleet sizes the paper worries about.  The hybrid
engine (:mod:`repro.core.hybrid`) removes that cap: closed-form fluid
fast-forwarding between fault transitions, exact event simulation inside
a window bracketing each transition.

This experiment certifies the trade is free, then uses it:

* **Overlap rows** -- at a size both engines can run, each policy's
  scenario is executed discretely *and* hybrid.  The ``check`` column
  says ``exact`` only if the invariant oracle's equivalence check
  passes: the request, SLO-miss, failure, unresolved and in-flight
  counts match exactly, and the work totals, each member's work and
  every sorted response time agree to 1e-9 relative.  A pair outside
  the hybrid engine's exact regime runs discrete, as ``run_scenario``
  does for any caller; its row names the engine that ran and says
  ``infeasible``, and the pair gets no scale row.
* **Scale rows** -- the same scenario shape driven with 10^6 clients,
  hybrid only (a discrete run at this size takes minutes; hybrid takes
  milliseconds), so these runs raise rather than fall back to the
  discrete engine.  The ``check`` column reruns the scenario and says
  ``replay-ok`` only if the invariant oracle's determinism check passes
  (same engine, byte-identical outcome digest); the
  ``oracle`` column audits work conservation and no-hang exactly as the
  discrete engine's runs are audited.
* **Saturated rows** -- the same certification on the ``surge``
  workload, where arrivals outpace service (~25% sustained overload)
  and the fluid path must reconstruct per-request FIFO queueing delays
  in closed form.  Only timer-free policies are in the exact regime
  there (``no-mitigation`` and ``stutter-aware``); timer-bearing
  policies are refused at bind
  (:class:`~repro.core.hybrid.HybridInfeasible`) and read ``infeasible``.

No wall-clock columns appear here (EXPERIMENTS.md must be byte-stable);
the repo benchmark's ``scale`` workload times the 10^6-client rows
(``python3 perfbench/run.py --workload scale``).
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.report import Table
from ..core.hybrid import run_scenario_hybrid, scale_scenario, scale_workload
from ..faults import campaign
from ..sim.metrics import LatencySummary, Tally

__all__ = ["run"]

def _row(table: Table, workload: str, policy: str, outcome,
         engine: str, check: str) -> None:
    summary = LatencySummary.of(outcome.latencies)
    tally = Tally.of(outcome)
    table.add_row(
        workload,
        policy,
        tally.requests,
        engine,
        round(summary.mean, 6),
        round(summary.p99, 6),
        round(100.0 * tally.slo_fraction, 4),
        round(100.0 * tally.waste_fraction, 4),
        check,
        "ok" if not outcome.violations else "VIOLATION",
    )


def run(
    seed: int = 7,
    family: str = "magnitude",
    overlap_requests: int = 2400,
    scale_requests: int = 1_000_000,
    workloads: Sequence[str] = ("raid10", "dht"),
    policies: Sequence[str] = ("fixed-timeout", "adaptive-timeout",
                               "retry-backoff", "hedged", "stutter-aware"),
    saturated_workloads: Sequence[str] = ("surge",),
    saturated_policies: Sequence[str] = ("no-mitigation", "stutter-aware"),
) -> Table:
    """Regenerate the E27 table: overlap equivalence + million-client scale."""
    table = Table(
        "E27: hybrid fluid/discrete engine -- exact at overlap sizes, "
        "exact and fast at a million clients",
        ["workload", "policy", "clients", "engine", "mean_s", "p99_s",
         "slo_viol_pct", "waste_pct", "check", "oracle"],
        note=(
            "check column: 'exact' = hybrid matches the discrete run "
            "(counts and work identical, mean/p99 within 1e-9 relative); "
            "'replay-ok' = same-seed hybrid rerun is digest-identical.  "
            "Oracle audits work conservation and no-hang on every run.  "
            f"Scenario family: {family!r}, fault extent pinned to the "
            "stock workload span (scale_scenario), so scaling clients "
            "grows the fault-free stretch the fluid fast path covers.  "
            "The 'surge' rows are saturated (arrivals ~25% faster than "
            "service): the fluid path reconstructs FIFO queueing delays "
            "in closed form and hands the backlog across window edges."
        ),
    )
    oracle = campaign.InvariantOracle()
    for name in list(workloads) + list(saturated_workloads):
        cell_policies = saturated_policies if name in saturated_workloads else policies
        stock = campaign.WORKLOADS[name]
        overlap = scale_workload(stock, overlap_requests)
        big = scale_workload(stock, scale_requests)
        overlap_scenario = scale_scenario(overlap, family, seed, 0)
        big_scenario = scale_scenario(big, family, seed, 0)
        for policy in cell_policies:
            discrete = campaign.run_scenario(overlap, overlap_scenario, policy)
            _row(table, name, policy, discrete, "discrete", "--")
            hybrid = campaign.run_scenario(overlap, overlap_scenario, policy,
                                           engine="hybrid")
            if hybrid.fallback is not None:
                _row(table, name, policy, hybrid, hybrid.engine, "infeasible")
                continue
            _row(table, name, policy, hybrid, hybrid.engine,
                 "DIVERGED" if oracle.check_equivalence(discrete, hybrid)
                 else "exact")
            # Hybrid or raise: a fallback would run 10^6 requests discretely.
            first = run_scenario_hybrid(big, big_scenario, policy)
            rerun = run_scenario_hybrid(big, big_scenario, policy)
            replay = ("REPLAY-DIFF" if oracle.check_determinism(first, rerun)
                      else "replay-ok")
            _row(table, name, policy, first, "hybrid", replay)
    return table
