"""E23: workload modification without fear (Section 3.3).

"New workloads (and the imbalances they may bring) can be introduced
into the system without fear, as those imbalances are handled by the
performance-fault tolerance mechanisms."

The workload change: a uniformly spread put stream becomes heavily
skewed (Zipf-like popularity, as when a new application arrives).
Under hashed placement, the hot pairs saturate -- an *induced*
performance fault with no hardware misbehaving at all.  Adaptive
placement absorbs the skew because the overload looks exactly like any
other backlog.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..analysis.report import Table
from ..cluster.dht import ReplicatedDht
from ..sim.engine import Simulator
from ..sim.metrics import LatencySummary

__all__ = ["run"]


def _zipf_keys(n_ops: int, n_hot: int, hot_fraction: float, rng: random.Random):
    """Keys where ``hot_fraction`` of puts hit ``n_hot`` hot keys."""
    keys = []
    for i in range(n_ops):
        if rng.random() < hot_fraction:
            keys.append(f"hot{rng.randrange(n_hot)}")
        else:
            keys.append(f"cold{i}")
    return keys


def _drive(placement: str, hot_fraction: float, n_ops: int, gap: float, seed: int):
    sim = Simulator()
    dht = ReplicatedDht(sim, n_pairs=4, brick_rate=30.0, op_work=1.0,
                        placement=placement)
    rng = random.Random(seed)
    keys = _zipf_keys(n_ops, n_hot=3, hot_fraction=hot_fraction, rng=rng)
    latencies = []

    def one(key):
        latency = yield dht.put(key)
        latencies.append(latency)

    def source():
        for key in keys:
            sim.process(one(key))
            yield sim.timeout(gap)

    sim.process(source())
    sim.run(until=n_ops * gap * 20)
    return LatencySummary.of(latencies)


def run(
    hot_fractions: Sequence[float] = (0.0, 0.5, 0.8),
    n_ops: int = 600,
    gap: float = 0.012,
    seed: int = 53,
) -> Table:
    """Regenerate the E23 table: skew vs placement put latency."""
    table = Table(
        "E23: a new, skewed workload arrives -- hashed vs adaptive placement",
        ["hot-key fraction", "placement", "p50 (s)", "p99 (s)"],
        note="skew saturates the hot pairs under hashing (an induced "
        "performance fault); adaptive placement absorbs the imbalance "
        "for new keys",
    )
    for hot_fraction in hot_fractions:
        for placement in ("hash", "adaptive"):
            summary = _drive(placement, hot_fraction, n_ops, gap, seed)
            table.add_row(hot_fraction, placement, summary.p50, summary.p99)
    return table
