"""A7: the hedging threshold -- completion time vs wasted work.

Section 4 credits Shasha & Turek with slow-down tolerance "by simply
issuing new processes to do the work elsewhere, and reconciling properly
so as to avoid work replication."  The open design choice is *when* to
issue the duplicate: hedge too eagerly and healthy runs drown in wasted
copies; hedge too lazily and stragglers dominate completion time.

Sweep ``hedge_after`` on a pool with one intermittently stalling worker
and report both sides: makespan and duplicates/wasted completions.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.report import Table
from ..core.hedging import HedgingScheduler
from ..faults.component import DegradableServer
from ..sim.engine import Simulator

__all__ = ["run"]

import random


def _one(hedge_after, n_tasks: int, n_workers: int, seed: int):
    sim = Simulator()
    workers = [DegradableServer(sim, f"w{i}", 1.0) for i in range(n_workers)]
    # One worker degrades severely shortly into the run.
    sim.schedule(2.0, workers[-1].set_slowdown, "wedge", 0.05)
    # Heterogeneous task sizes: an eager threshold cannot tell a big
    # healthy task from a stalled one, so it burns duplicates on both.
    rng = random.Random(seed)
    tasks = [rng.uniform(0.5, 3.0) for __ in range(n_tasks)]
    scheduler = HedgingScheduler(hedge_after=hedge_after)
    result = sim.run(
        until=scheduler.run(
            sim, tasks, n_workers, lambda w, t: workers[w].submit(t)
        )
    )
    return result


def run(
    thresholds: Sequence[float] = (1.2, 2.0, 4.0, 8.0, 1e6),
    n_tasks: int = 48,
    n_workers: int = 4,
    seed: int = 67,
) -> Table:
    """Regenerate the A7 table: hedge threshold vs makespan and waste."""
    table = Table(
        "A7: hedge-after threshold -- heterogeneous tasks, one worker "
        "wedging mid-run",
        ["hedge after (s)", "makespan (s)", "duplicates", "wasted completions"],
        note="eager hedging burns duplicate work; lazy hedging (1e6 = "
        "disabled) lets the straggler set the completion time",
    )
    for threshold in thresholds:
        result = _one(threshold, n_tasks, n_workers, seed)
        table.add_row(threshold, result.duration, result.duplicates_launched,
                      result.wasted_completions)
    return table
