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
  says ``exact`` only if request counts, SLO violations, failure counts
  and work totals match exactly and mean/p99 latency match to float
  noise (1e-9 relative).
* **Scale rows** -- the same scenario shape driven with 10^6 clients,
  hybrid only (a discrete run at this size takes minutes; hybrid takes
  milliseconds).  The ``check`` column reruns the scenario and says
  ``replay-ok`` only if the outcome digest is byte-identical; the
  ``oracle`` column audits work conservation and no-hang exactly as the
  discrete engine's runs are audited.
* **Saturated rows** -- the same certification on the ``surge``
  workload, where arrivals outpace service (~25% sustained overload)
  and the fluid path must reconstruct per-request FIFO queueing delays
  in closed form.  Only timer-free policies are in the exact regime
  there (``no-mitigation`` and ``stutter-aware``); timer-bearing
  policies raise :class:`~repro.core.hybrid.HybridInfeasible` at bind.

No wall-clock columns appear here (EXPERIMENTS.md must be byte-stable);
the repo benchmark's ``scale`` workload times the 10^6-client rows
(``python3 perfbench/run.py --workload scale``).
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

import numpy as np

from ..analysis.report import Table
from ..core.hybrid import (
    HybridInfeasible,
    run_scenario_hybrid,
    scale_scenario,
    scale_workload,
)
from ..faults import campaign

__all__ = ["run"]

_REL_TOL = 1e-9


def _p99(latencies: Sequence[float]) -> float:
    if not len(latencies):
        return 0.0
    arr = np.asarray(latencies)
    k = int(0.99 * (arr.size - 1))
    return float(np.partition(arr, k)[k])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1e-30)


def _matches(d, h) -> bool:
    """Discrete/hybrid equivalence: counts exact, latencies to float noise."""
    if (d.n_requests, d.slo_violations, d.failed_requests) != (
        h.n_requests, h.slo_violations, h.failed_requests
    ):
        return False
    for field in ("issued_work", "completed_work", "claimed_work",
                  "wasted_work", "failed_work"):
        if abs(getattr(d, field) - getattr(h, field)) > _REL_TOL:
            return False
    if len(d.latencies) != len(h.latencies):
        return False
    if len(d.latencies) and not (
        _close(statistics.fmean(d.latencies), statistics.fmean(h.latencies))
        and _close(_p99(d.latencies), _p99(h.latencies))
    ):
        return False
    return True


def _row(table: Table, workload: str, policy: str, outcome,
         engine: str, check: str) -> None:
    n = outcome.n_requests
    mean = statistics.fmean(outcome.latencies) if len(outcome.latencies) else 0.0
    issued = outcome.issued_work
    table.add_row(
        workload,
        policy,
        n,
        engine,
        round(mean, 6),
        round(_p99(outcome.latencies), 6),
        round(100.0 * outcome.slo_violations / n, 4) if n else 0.0,
        round(100.0 * outcome.wasted_work / issued, 4) if issued else 0.0,
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
            try:
                hybrid = run_scenario_hybrid(overlap, overlap_scenario, policy)
            except HybridInfeasible:
                table.add_row(name, policy, overlap_requests, "hybrid",
                              0.0, 0.0, 0.0, 0.0, "infeasible", "--")
                continue
            _row(table, name, policy, hybrid, "hybrid",
                 "exact" if _matches(discrete, hybrid) else "DIVERGED")
            first = run_scenario_hybrid(big, big_scenario, policy)
            rerun = run_scenario_hybrid(big, big_scenario, policy)
            replay = "replay-ok" if first.digest() == rerun.digest() else "REPLAY-DIFF"
            _row(table, name, policy, first, "hybrid", replay)
    return table
