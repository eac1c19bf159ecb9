#!/usr/bin/env python
"""Replicated DHT with stop-the-world GC on one brick (Gribble's DDS).

Section 2.2.1: "untimely garbage collection causes one node to fall
behind its mirror in a replicated update.  The result is that one
machine over-saturates and thus is the bottleneck."

An insert-heavy put stream runs against a four-pair replicated hash
table while one brick pauses for GC once every five seconds.  Hashed
placement rides the pauses (tail latency explodes); adaptive placement
steers new keys to healthy pairs, at the cost of a per-key location map
-- the same bookkeeping-for-robustness trade as Section 3.2's adaptive
striping.

Run:  python examples/dht_gc.py
"""

import random

from repro.cluster import ReplicatedDht
from repro.core import System
from repro.faults import PeriodicBackground
from repro.sim import LatencySummary

N_OPS = 800
GAP = 0.02  # 50 puts/s offered


def run_config(label, with_gc, placement, seed=3):
    sim = System()
    dht = ReplicatedDht(
        sim, n_pairs=4, brick_rate=100.0, op_work=1.0, placement=placement
    )
    if with_gc:
        # Registry wiring: the GC pause reaches the brick by its name.
        sim.inject("brick0", PeriodicBackground(period=5.0, duration=1.0, factor=0.0))
    latencies = []
    rng = random.Random(seed)

    def one(key):
        latency = yield dht.put(key)
        latencies.append(latency)

    def client():
        for i in range(N_OPS):
            sim.process(one(f"key-{i}"))
            yield sim.timeout(GAP)

    sim.process(client())
    sim.run(until=N_OPS * GAP * 20)
    summary = LatencySummary.of(latencies)
    print(f"  {label:<28} p50 {summary.p50 * 1000:7.1f} ms   "
          f"p99 {summary.p99 * 1000:7.1f} ms   "
          f"max {summary.maximum * 1000:7.1f} ms   "
          f"map entries: {dht.bookkeeping_entries}")
    return summary


def main():
    print(f"insert-heavy stream: {N_OPS} puts at {1 / GAP:.0f}/s, "
          "4 mirror pairs, GC pauses one brick 1s of every 5s\n")
    baseline = run_config("no GC, hashed", False, "hash")
    hashed = run_config("GC, hashed placement", True, "hash")
    adaptive = run_config("GC, adaptive placement", True, "adaptive")
    print(f"\nGC inflated hashed-placement p99 by "
          f"{hashed.p99 / baseline.p99:.0f}x; adaptive placement brought it "
          f"back within {adaptive.p99 / baseline.p99:.1f}x of baseline")
    assert hashed.p99 > 10 * baseline.p99
    assert adaptive.p99 < 0.3 * hashed.p99


if __name__ == "__main__":
    main()
