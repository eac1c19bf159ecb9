"""E12: GC pauses make one DHT node fall behind its mirror (Gribble).

Section 2.2.1: "untimely garbage collection causes one node to fall
behind its mirror in a replicated update.  The result is that one
machine over-saturates and thus is the bottleneck."

Compare put latency under: no GC; GC with hashed placement; GC with
adaptive (fail-stutter) placement of new keys.
"""

from __future__ import annotations

import random

from ..analysis.report import Table
from ..cluster.dht import ReplicatedDht
from ..core.system import System
from ..faults.library import PeriodicBackground
from ..sim.metrics import LatencySummary

__all__ = ["run"]


def _drive(sim, dht, n_ops: int, gap: float, reuse: float, seed: int) -> LatencySummary:
    """Insert-heavy stream (the DDS workload): mostly new keys, some reuse."""
    rng = random.Random(seed)
    latencies = []

    def one(key):
        latency = yield dht.put(key)
        latencies.append(latency)

    def source():
        for i in range(n_ops):
            if rng.random() < reuse and i > 0:
                key = f"k{rng.randrange(i)}"
            else:
                key = f"k{i}"
            sim.process(one(key))
            yield sim.timeout(gap)

    sim.process(source())
    sim.run(until=max(1000.0, n_ops * gap * 20))
    return LatencySummary.of(latencies)


def _one(gc: bool, placement: str, n_ops: int, gap: float, seed: int) -> LatencySummary:
    sim = System()
    ReplicatedDht(sim, n_pairs=4, brick_rate=100.0, op_work=1.0, placement=placement)
    dht = sim.components.get("dht")
    if gc:
        # Registry wiring: the GC pause lands on the brick by name.
        sim.inject("brick0", PeriodicBackground(period=5.0, duration=1.0, factor=0.0))
    # Insert-only, as in the DDS write benchmark: adaptive placement can
    # steer every key, so the contrast with hashing is the policy's full
    # effect.  (Keys already resident on the GC'd pair cannot move; any
    # reuse fraction dilutes the benefit accordingly.)
    return _drive(sim, dht, n_ops, gap, reuse=0.0, seed=seed)


CONFIGURATIONS = (
    ("no GC, hashed", False, "hash"),
    ("GC, hashed", True, "hash"),
    ("GC, adaptive placement", True, "adaptive"),
)


def run(n_ops: int = 800, gap: float = 0.02, seed: int = 3) -> Table:
    """Regenerate the E12 table: GC x placement put latency."""
    table = Table(
        "E12: replicated DHT put latency under stop-the-world GC on one brick",
        ["configuration", "p50 (s)", "p99 (s)", "max (s)"],
        note="paper: the GC'd node falls behind its mirror and saturates; "
        "adaptive placement of new keys limits the damage",
    )
    for label, gc, placement in CONFIGURATIONS:
        summary = _one(gc, placement, n_ops, gap, seed)
        table.add_row(label, summary.p50, summary.p99, summary.maximum)
    return table
