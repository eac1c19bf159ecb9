"""Unit tests for RAID levels (timing and data correctness)."""

import pytest

from repro.faults import ComponentStopped
from repro.sim import Simulator
from repro.storage import Disk, DiskParams, Raid0, Raid1Pair, uniform_geometry

FAST_PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_disks(sim, n, rate=5.5):
    return [
        Disk(sim, f"d{i}", geometry=uniform_geometry(100_000, rate), params=FAST_PARAMS)
        for i in range(n)
    ]


class TestRaid0:
    def test_locate_round_robin(self):
        sim = Simulator()
        raid = Raid0(sim, make_disks(sim, 4))
        assert raid.locate(0) == (0, 0)
        assert raid.locate(1) == (1, 0)
        assert raid.locate(3) == (3, 0)
        assert raid.locate(4) == (0, 1)
        assert raid.locate(9) == (1, 2)

    def test_locate_with_stripe_unit(self):
        sim = Simulator()
        raid = Raid0(sim, make_disks(sim, 2), stripe_unit=4)
        assert raid.locate(0) == (0, 0)
        assert raid.locate(3) == (0, 3)
        assert raid.locate(4) == (1, 0)
        assert raid.locate(8) == (0, 4)

    def test_write_read_roundtrip(self):
        sim = Simulator()
        raid = Raid0(sim, make_disks(sim, 4))
        sim.run(until=raid.write(7, value=123))
        value = sim.run(until=raid.read(7))
        assert value == 123

    def test_parallel_write_uses_all_disks(self):
        sim = Simulator()
        disks = make_disks(sim, 4)
        raid = Raid0(sim, disks)
        sim.run(until=raid.write_all(range(16), value=1))
        assert all(d.writes == 4 for d in disks)

    def test_slow_disk_dominates_parallel_write(self):
        """E2 shape: one slow disk drags the whole stripe down."""
        sim = Simulator()
        disks = make_disks(sim, 4)
        disks[2].set_slowdown("skew", 0.25)
        raid = Raid0(sim, disks)
        done = raid.write_all(range(64), value=1)
        sim.run(until=done)
        # Finish time tracks the slow disk: ~4x the healthy per-disk time.
        healthy_time = disks[0].service_time(0, 1) + 15 * (0.5 / 5.5)
        assert sim.now == pytest.approx(4 * healthy_time, rel=0.05)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Raid0(sim, make_disks(sim, 1))
        with pytest.raises(ValueError):
            Raid0(sim, make_disks(sim, 2), stripe_unit=0)
        raid = Raid0(sim, make_disks(sim, 2))
        with pytest.raises(ValueError):
            raid.locate(-1)


class TestRaid1Pair:
    def test_write_goes_to_both(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        sim.run(until=pair.write(0, 1, value=5))
        assert d1.peek(0) == 5
        assert d2.peek(0) == 5
        assert pair.consistent_at(0)

    def test_write_time_is_max_of_members(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        d2.set_slowdown("skew", 0.5)
        pair = Raid1Pair(sim, d1, d2)
        done = pair.write(0, 11, value=1)
        sim.run(until=done)
        slow_time = 2 * (d2.params.positioning_time + 1.0)
        assert sim.now == pytest.approx(slow_time)

    def test_effective_rate_is_min(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        d2.set_slowdown("skew", 0.3)
        pair = Raid1Pair(sim, d1, d2)
        assert pair.effective_rate == pytest.approx(0.3)

    def test_read_prefers_less_loaded_member(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        sim.run(until=pair.write(0, 1, value=9))
        # Load up d1's queue, then read: must come from d2.
        d1.read(100, 200)
        d1.read(400, 200)
        before = d2.reads
        sim.run(until=pair.read(0, 1))
        assert d2.reads == before + 1

    def test_read_alternates_when_balanced(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        sim.run(until=pair.write(0, 1, value=9))
        for __ in range(4):
            sim.run(until=pair.read(0, 1))
        assert d1.reads >= 1 and d2.reads >= 1

    def test_survives_one_member_failure(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        d1.stop()
        sim.run(until=pair.write(0, 1, value=7))
        assert d2.peek(0) == 7
        value = sim.run(until=pair.read(0, 1))
        assert value == 7
        assert not pair.failed

    def test_write_retries_on_member_death_midflight(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        done = pair.write(0, 11, value=3)  # ~1.02s on both
        sim.schedule(0.5, d1.stop)  # d1 dies mid-write
        sim.run(until=done)
        assert d2.peek(0) == 3

    def test_both_members_dead_raises(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        d1.stop()
        d2.stop()
        assert pair.failed
        assert pair.effective_rate == 0.0
        with pytest.raises(ComponentStopped):
            sim.run(until=pair.write(0, 1, value=1))

    def test_nominal_service_time_is_max(self):
        sim = Simulator()
        d1, d2 = make_disks(sim, 2)
        pair = Raid1Pair(sim, d1, d2)
        assert pair.nominal_service_time(0, 11) == pytest.approx(1.0)
