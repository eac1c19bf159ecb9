"""Equivalence of the analytic model fast paths and their references.

The PR that introduced the analytic paths kept the original interpreted
loops as ``*_reference`` methods — the executable spec.  These tests
drive both sides over a few hundred seeded random geometries, remap
populations and request streams and require *exact* agreement (``==``,
not ``approx``) everywhere the fast path claims bit-identity; only the
closed-form ``ZoneGeometry.transfer_seconds`` is allowed a float-rounding
tolerance.
"""

import math
import random

from repro.sim.engine import Simulator
from repro.sim.metrics import AvailabilityMeter
from repro.storage.badblocks import BadBlockMap
from repro.storage.disk import Disk, DiskParams
from repro.storage.geometry import Zone, ZoneGeometry, zoned_geometry


def _random_geometry(rng: random.Random) -> ZoneGeometry:
    """Uneven zone sizes and arbitrary (non-monotone) rates."""
    zones = [
        Zone(rng.randint(1, 2000), rng.uniform(0.5, 40.0))
        for _ in range(rng.randint(1, 20))
    ]
    return ZoneGeometry(zones)


def _random_disk(rng: random.Random, remap_rate: float) -> Disk:
    geometry = _random_geometry(rng)
    badblocks = BadBlockMap.random(geometry.capacity_blocks, remap_rate, rng)
    params = DiskParams(
        rpm=rng.choice([5400.0, 7200.0, 10_000.0]),
        avg_seek=rng.uniform(0.0, 0.02),
        block_size_mb=rng.choice([0.064, 0.5, 1.0]),
    )
    return Disk(Simulator(), "prop", geometry=geometry, params=params,
                badblocks=badblocks)


class TestServiceTimeEquivalence:
    def test_service_time_bit_identical_to_reference(self):
        """300 random disks x several requests: exact float equality."""
        rng = random.Random(0xD15C)
        for _ in range(300):
            disk = _random_disk(rng, rng.choice([0.0, 0.01, 0.2]))
            capacity = disk.geometry.capacity_blocks
            for _ in range(8):
                lba = rng.randrange(capacity)
                nblocks = rng.randint(1, capacity - lba)
                hint = rng.random() < 0.5
                assert disk.service_time(lba, nblocks, hint) == \
                    disk.service_time_reference(lba, nblocks, hint)

    def test_whole_disk_and_single_block_requests(self):
        rng = random.Random(7)
        for _ in range(50):
            disk = _random_disk(rng, 0.05)
            capacity = disk.geometry.capacity_blocks
            assert disk.service_time(0, capacity) == \
                disk.service_time_reference(0, capacity)
            assert disk.service_time(capacity - 1, 1) == \
                disk.service_time_reference(capacity - 1, 1)

    def test_head_state_respected_both_paths(self):
        """The sequential-head fast path must agree after real reads."""
        rng = random.Random(21)
        disk = _random_disk(rng, 0.02)
        capacity = disk.geometry.capacity_blocks
        at = 0
        for _ in range(200):
            nblocks = rng.randint(1, 64)
            if at + nblocks > capacity:
                at = 0
            assert disk.service_time(at, nblocks) == \
                disk.service_time_reference(at, nblocks)
            disk.read(at, nblocks)
            at += nblocks if rng.random() < 0.7 else rng.randrange(capacity // 2)


class TestSpanEndEquivalence:
    @staticmethod
    def _span_end_linear(geometry: ZoneGeometry, lba: int) -> int:
        """The original linear scan, inlined here as the reference."""
        bound = 0
        for zone in geometry.zones:
            bound += zone.blocks
            if lba < bound:
                return bound
        raise ValueError(f"lba {lba} out of range")

    def test_span_end_matches_linear_scan(self):
        rng = random.Random(99)
        for _ in range(200):
            geometry = _random_geometry(rng)
            for _ in range(10):
                lba = rng.randrange(geometry.capacity_blocks)
                assert geometry.span_end(lba) == self._span_end_linear(geometry, lba)
            # Boundary blocks are where an off-by-one would hide.
            bound = 0
            for zone in geometry.zones:
                assert geometry.span_end(bound) == bound + zone.blocks
                bound += zone.blocks
                assert geometry.span_end(bound - 1) == bound


class TestTransferSecondsClosedForm:
    def test_matches_per_span_loop_within_float_rounding(self):
        """The prefix-table form agrees with a fresh per-span summation
        to float rounding.  Subtracting two large cumulative entries to
        get a small interval cancels, so the achievable absolute error
        scales with the *table* magnitude, not the interval — which is
        exactly why Disk.service_time keeps the sequential accumulation
        instead of the closed form."""
        rng = random.Random(4242)
        for _ in range(300):
            geometry = _random_geometry(rng)
            block_size_mb = rng.choice([0.064, 0.5, 1.0])
            for _ in range(5):
                lba = rng.randrange(geometry.capacity_blocks)
                nblocks = rng.randint(1, geometry.capacity_blocks - lba)
                loop = 0.0
                at, remaining = lba, nblocks
                while remaining > 0:
                    span = min(remaining, geometry.span_end(at) - at)
                    loop += span * block_size_mb / geometry.rate_at(at)
                    at += span
                    remaining -= span
                closed = geometry.transfer_seconds(lba, nblocks, block_size_mb)
                cancellation = 1e-12 * geometry._prefix[-1] * block_size_mb
                assert math.isclose(closed, loop, rel_tol=1e-9, abs_tol=cancellation)

    def test_prefix_table_strictly_increasing(self):
        rng = random.Random(5)
        for _ in range(100):
            geometry = _random_geometry(rng)
            prefix = geometry._prefix
            assert len(prefix) == len(geometry.zones) + 1
            assert all(b > a for a, b in zip(prefix, prefix[1:]))


class TestRemapCountEquivalence:
    def test_random_maps_and_ranges(self):
        rng = random.Random(314)
        for _ in range(300):
            capacity = rng.randint(1, 50_000)
            bmap = BadBlockMap.random(capacity, rng.choice([0.0, 0.001, 0.05, 0.5]), rng)
            for _ in range(10):
                lba = rng.randrange(capacity)
                nblocks = rng.randint(1, capacity - lba) if capacity > lba else 1
                assert bmap.remapped_in_range(lba, nblocks) == \
                    bmap.remapped_in_range_reference(lba, nblocks)

    def test_grown_defects_keep_sorted_invariant(self):
        rng = random.Random(8)
        bmap = BadBlockMap([5, 1, 9])
        for _ in range(500):
            bmap.remap(rng.randrange(10_000))
        assert bmap._sorted == sorted(bmap._sorted)
        assert set(bmap._sorted) == bmap._remapped
        for _ in range(100):
            lba = rng.randrange(10_000)
            nblocks = rng.randint(1, 500)
            assert bmap.remapped_in_range(lba, nblocks) == \
                bmap.remapped_in_range_reference(lba, nblocks)


class TestStreamingMetricEquivalence:
    def test_availability_at_cached_equals_rescan(self):
        """The cached bisect answers exactly what the old linear rescan
        answered, across interleaved records and queries."""
        rng = random.Random(161)
        meter = AvailabilityMeter(slo=0.5)
        for i in range(2000):
            meter.record(None if rng.random() < 0.02 else rng.expovariate(2.0))
            if i % 50 == 0:
                slo = rng.uniform(0.01, 3.0)
                rescan = sum(1 for r in meter.response_times if r <= slo) / meter.offered
                assert meter.availability_at(slo) == rescan
