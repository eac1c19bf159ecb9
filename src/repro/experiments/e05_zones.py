"""E5: multi-zone geometry -- a factor of two within one disk.

Section 2.1.2 (Van Meter): "disks have multiple zones, with performance
across zones differing by up to a factor of two.  ...unless disks are
treated identically, different disks will have different layouts and
thus different performance characteristics."

Measure streaming bandwidth per zone, then show the layout corollary:
the *same* file placed at different offsets on identical disks reads at
different speeds.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..sim.engine import Simulator
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import zoned_geometry
from ..storage.workload import sequential_scan

__all__ = ["run"]


def _zone_scan(
    index: int,
    start: int,
    outer_rate: float,
    inner_rate: float,
    n_zones: int,
    capacity_blocks: int,
    scan_blocks: int,
) -> float:
    """One zone's streaming scan as an independent simulation.

    Each scan builds its own disk (the geometry is a pure function of
    the parameters), so no zone shares simulator state with another.
    """
    sim = Simulator()
    params = DiskParams(rpm=7200, avg_seek=0.009, block_size_mb=0.5)
    geometry = zoned_geometry(capacity_blocks, outer_rate, inner_rate, n_zones)
    disk = Disk(sim, "zoned", geometry=geometry, params=params)
    blocks = min(scan_blocks, geometry.zones[index].blocks)
    result = sim.run(until=sequential_scan(sim, disk, start=start, nblocks=blocks))
    return result.bandwidth_mb_s


def run(
    outer_rate: float = 11.0,
    inner_rate: float = 5.5,
    n_zones: int = 8,
    capacity_blocks: int = 160_000,
    scan_blocks: int = 4000,
) -> Table:
    """Regenerate the E5 table: per-zone streaming bandwidth."""
    table = Table(
        f"E5: zoned-disk bandwidth, {n_zones} zones, "
        f"{outer_rate}->{inner_rate} MB/s",
        ["zone", "start lba", "measured MB/s", "zone nominal MB/s"],
        note="paper: outer zones up to 2x the inner zones",
    )
    geometry = zoned_geometry(capacity_blocks, outer_rate, inner_rate, n_zones)
    start = 0
    for index, zone in enumerate(geometry.zones):
        bandwidth = _zone_scan(index, start, outer_rate, inner_rate, n_zones,
                               capacity_blocks, scan_blocks)
        table.add_row(index, start, bandwidth, zone.rate)
        start += zone.blocks
    outer = table.rows[0][2]
    inner = table.rows[-1][2]
    table.note += f"; measured outer/inner ratio = {outer / inner:.2f}"
    return table
