"""Unit tests for the replicated DHT (E12 shapes)."""

import random

import pytest

from repro.cluster import ReplicatedDht
from repro.faults import ComponentStopped, PeriodicBackground
from repro.sim import LatencySummary, Simulator


def make_dht(sim, placement="hash", n_pairs=4, brick_rate=100.0):
    return ReplicatedDht(
        sim, n_pairs=n_pairs, brick_rate=brick_rate, op_work=1.0, placement=placement
    )


def drive_puts(sim, dht, n_ops, gap, key_fn):
    """Open-loop put stream; returns the put latencies' summary."""
    latencies = []

    def one(key):
        latency = yield dht.put(key)
        latencies.append(latency)

    def source():
        for i in range(n_ops):
            sim.process(one(key_fn(i)))
            yield sim.timeout(gap)

    sim.process(source())
    sim.run(until=max(500.0, n_ops * gap * 10))
    return LatencySummary.of(latencies)


class TestBasicOperation:
    def test_put_get_roundtrip(self):
        sim = Simulator()
        dht = make_dht(sim)
        sim.run(until=dht.put("k1", "hello"))
        assert sim.run(until=dht.get("k1")) == "hello"

    def test_put_writes_both_mirrors(self):
        sim = Simulator()
        dht = make_dht(sim)
        sim.run(until=dht.put("k1", "v"))
        pair = dht.pair_of("k1")
        a, b = dht.pair_members(pair)
        assert a.jobs_completed == 1
        assert b.jobs_completed == 1

    def test_put_latency_is_max_of_mirrors(self):
        sim = Simulator()
        dht = make_dht(sim, brick_rate=10.0)  # 0.1 s per op
        pair = dht.pair_of("k1")
        a, __ = dht.pair_members(pair)
        a.set_slowdown("gc", 0.1)  # 1 s per op on one member
        latency = sim.run(until=dht.put("k1"))
        assert latency == pytest.approx(1.0)

    def test_hash_placement_deterministic(self):
        sim = Simulator()
        dht = make_dht(sim)
        assert dht.pair_of("somekey") == dht.pair_of("somekey")
        assert dht.bookkeeping_entries == 0

    def test_put_survives_one_dead_mirror(self):
        sim = Simulator()
        dht = make_dht(sim)
        pair = dht.pair_of("k1")
        a, __ = dht.pair_members(pair)
        a.stop()
        latency = sim.run(until=dht.put("k1", "v"))
        assert latency >= 0
        assert sim.run(until=dht.get("k1")) == "v"

    def test_pair_fully_dead_raises(self):
        sim = Simulator()
        dht = make_dht(sim)
        pair = dht.pair_of("k1")
        a, b = dht.pair_members(pair)
        a.stop()
        b.stop()
        with pytest.raises(ComponentStopped):
            sim.run(until=dht.put("k1"))

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ReplicatedDht(sim, n_pairs=0)
        with pytest.raises(ValueError):
            ReplicatedDht(sim, brick_rate=0.0)
        with pytest.raises(ValueError):
            ReplicatedDht(sim, placement="magic")


class TestGcPauseShapes:
    def test_gc_inflates_tail_latency(self):
        """E12: a GC-pausing brick stalls puts to its pair."""

        def run(with_gc):
            sim = Simulator()
            dht = make_dht(sim, brick_rate=100.0)
            if with_gc:
                PeriodicBackground(period=5.0, duration=1.0, factor=0.0).attach(
                    sim, dht.bricks[0]
                )
            rng = random.Random(0)
            return drive_puts(
                sim, dht, n_ops=400, gap=0.02, key_fn=lambda i: f"k{rng.randrange(64)}"
            )

        healthy = run(False)
        paused = run(True)
        assert paused.p99 > 20 * healthy.p99
        assert paused.maximum > 0.5  # a put rode out most of a pause

    def test_gc_pair_becomes_the_bottleneck(self):
        """The Gribble observation: the mirror of the GC'd node saturates
        (its queue of unacknowledged updates grows)."""
        sim = Simulator()
        dht = make_dht(sim, brick_rate=10.0, n_pairs=2)
        PeriodicBackground(period=4.0, duration=2.0, factor=0.0).attach(
            sim, dht.bricks[0]
        )
        rng = random.Random(1)

        def source():
            for i in range(200):
                dht.put(f"k{rng.randrange(32)}")
                yield sim.timeout(0.06)

        sim.process(source())
        sim.run(until=5.9)  # inside the second pause window [2,4) .. [6,8)
        gc_member = dht.bricks[0]
        mirror = dht.bricks[1]
        other_pair_load = max(
            dht.bricks[2].queue_length, dht.bricks[3].queue_length
        )
        assert gc_member.queue_length > 3
        assert gc_member.queue_length > other_pair_load

    def test_adaptive_placement_routes_new_keys_away(self):
        sim = Simulator()
        dht = make_dht(sim, placement="adaptive", brick_rate=10.0)
        dht.bricks[0].set_slowdown("gc", 0.0)  # pair 0 permanently stalled
        # Fill some backlog on pair 0 so its queue is visibly long.
        dht.put("seed0")

        def load():
            for i in range(40):
                dht.put(f"new{i}")
                yield sim.timeout(0.05)

        sim.process(load())
        sim.run(until=10.0)
        placements = [dht.pair_of(f"new{i}") for i in range(40)]
        assert placements.count(0) < 5
        assert dht.bookkeeping_entries >= 40

    def test_adaptive_existing_keys_cannot_move(self):
        sim = Simulator()
        dht = make_dht(sim, placement="adaptive")
        sim.run(until=dht.put("stuck", 1))
        original = dht.pair_of("stuck")
        a, b = dht.pair_members(original)
        a.set_slowdown("gc", 0.1)
        sim.run(until=dht.put("stuck", 2))
        assert dht.pair_of("stuck") == original

    def test_stats_counters(self):
        sim = Simulator()
        dht = make_dht(sim, placement="adaptive")
        sim.run(until=dht.put("a"))
        sim.run(until=dht.put("a"))
        sim.run(until=dht.get("a"))
        assert dht.stats.puts == 2
        assert dht.stats.gets == 1
        assert dht.stats.new_keys == 1
