"""E22: River's distributed queue vs static partitioning (Section 4).

River (the authors' system, cited as the starting point for fail-stutter
storage): its distributed queue routes records to consumers by credit so
that "consistent and high performance" survives "erratic performance in
underlying components."

Sweep one consumer's perturbation factor; static hash partitioning
tracks the slow consumer while the credit DQ degrades only by the
capacity actually lost.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.report import Table
from ..core.river import DistributedQueue
from ..faults.component import DegradableServer
from ..sim.engine import Simulator

__all__ = ["run"]


def _drain_throughput(policy: str, factor: float, n_consumers: int, n_records: int):
    sim = Simulator()
    consumers = [DegradableServer(sim, f"c{i}", 1.0) for i in range(n_consumers)]
    if factor < 1.0:
        consumers[0].set_slowdown("perturb", factor)
    backlog = 2 if policy == "credit" else None
    dq = DistributedQueue(sim, consumers, policy=policy, max_backlog=backlog)
    result = sim.run(until=dq.drain([f"k{i}" for i in range(n_records)]))
    return result.throughput


def run(
    factors: Sequence[float] = (1.0, 0.5, 0.25, 0.1),
    n_consumers: int = 4,
    n_records: int = 120,
) -> Table:
    """Regenerate the E22 table: perturbation vs DQ/hash throughput."""
    table = Table(
        f"E22: distributed queue vs static partitioning, {n_consumers} "
        "consumers, one perturbed",
        [
            "consumer factor",
            "hash rec/s",
            "credit DQ rec/s",
            "ideal capacity rec/s",
            "DQ efficiency",
        ],
        note="River's shape: the DQ loses only the perturbed capacity; "
        "static partitioning tracks the slow consumer",
    )
    for factor in factors:
        hash_tp = _drain_throughput("hash", factor, n_consumers, n_records)
        credit_tp = _drain_throughput("credit", factor, n_consumers, n_records)
        capacity = (n_consumers - 1) + factor
        table.add_row(factor, hash_tp, credit_tp, capacity, credit_tp / capacity)
    return table
