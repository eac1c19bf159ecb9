"""Unit tests for workload generators."""

import random

import pytest

from repro.sim import Simulator
from repro.storage import (
    Disk,
    DiskParams,
    file_layout,
    read_layout,
    sequential_scan,
    uniform_geometry,
)

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_disk(sim, rate=5.5, capacity=100_000):
    return Disk(sim, "d0", geometry=uniform_geometry(capacity, rate), params=PARAMS)


class TestSequentialScan:
    def test_bandwidth_close_to_zone_rate(self):
        sim = Simulator()
        disk = make_disk(sim)
        result = sim.run(until=sequential_scan(sim, disk, nblocks=2000))
        assert result.bandwidth_mb_s == pytest.approx(5.5, rel=0.01)

    def test_chunking_preserves_blocks(self):
        sim = Simulator()
        disk = make_disk(sim)
        result = sim.run(until=sequential_scan(sim, disk, nblocks=130, chunk=64))
        assert result.nblocks == 130
        assert disk.reads == 3  # 64 + 64 + 2

    def test_validation(self):
        sim = Simulator()
        disk = make_disk(sim)
        with pytest.raises(ValueError):
            sequential_scan(sim, disk, nblocks=0)
        with pytest.raises(ValueError):
            sequential_scan(sim, disk, nblocks=10, chunk=0)


class TestFileLayout:
    def test_fresh_layout_is_sequential(self):
        layout = file_layout(100, 0.0, 100_000, random.Random(0))
        assert layout == list(range(100))

    def test_fully_fragmented_layout_jumps(self):
        layout = file_layout(100, 1.0, 100_000, random.Random(0))
        sequential_steps = sum(
            1 for a, b in zip(layout, layout[1:]) if b == a + 1
        )
        assert sequential_steps < 5

    def test_deterministic_per_seed(self):
        a = file_layout(50, 0.3, 1000, random.Random(9))
        b = file_layout(50, 0.3, 1000, random.Random(9))
        assert a == b

    def test_addresses_in_bounds(self):
        layout = file_layout(500, 0.5, 1000, random.Random(2))
        assert all(0 <= lba < 1000 for lba in layout)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            file_layout(0, 0.5, 100, rng)
        with pytest.raises(ValueError):
            file_layout(10, 1.5, 100, rng)
        with pytest.raises(ValueError):
            file_layout(200, 0.5, 100, rng)


class TestReadLayout:
    def test_fresh_layout_fast_fragmented_slow(self):
        """E13 shape: aging costs up to ~2x on sequential reads."""
        sim = Simulator()
        disk = make_disk(sim)
        fresh = sim.run(
            until=read_layout(sim, disk, file_layout(1000, 0.0, 100_000, random.Random(1)))
        )
        sim2 = Simulator()
        disk2 = make_disk(sim2)
        aged = sim2.run(
            until=read_layout(
                sim2, disk2, file_layout(1000, 0.02, 100_000, random.Random(1))
            )
        )
        assert fresh.bandwidth_mb_s > aged.bandwidth_mb_s

    def test_coalesces_contiguous_runs(self):
        sim = Simulator()
        disk = make_disk(sim)
        sim.run(until=read_layout(sim, disk, [0, 1, 2, 50, 51, 9]))
        assert disk.reads == 3

    def test_empty_layout_rejected(self):
        sim = Simulator()
        disk = make_disk(sim)
        with pytest.raises(ValueError):
            read_layout(sim, disk, [])
