"""Reference models: the interpreted loops the storage fast paths replaced.

``Disk.service_time`` walks the geometry's boundary and rate arrays with
one bisect, and ``BadBlockMap.remapped_in_range`` counts with two
bisects over a sorted list.  The functions here are the loops they
replaced, kept as the executable spec:
``tests/property/test_model_equivalence.py`` requires the fast paths to
match them bit for bit.  The code is kept as it was, apart from taking
the disk or map as an argument instead of ``self``.
"""

from __future__ import annotations

from repro.storage.badblocks import BadBlockMap
from repro.storage.disk import Disk


def service_time_reference(disk: Disk, lba: int, nblocks: int,
                           sequential_hint: bool = False) -> float:
    """The original per-zone interpreted loop behind ``Disk.service_time``."""
    if nblocks <= 0:
        raise ValueError(f"nblocks must be > 0, got {nblocks}")
    if not (0 <= lba and lba + nblocks <= disk.geometry.capacity_blocks):
        raise ValueError(
            f"request [{lba}, {lba + nblocks}) outside disk of "
            f"{disk.geometry.capacity_blocks} blocks"
        )
    sequential = sequential_hint or (disk._head is not None and lba == disk._head)
    time = 0.0 if sequential else disk.params.positioning_time
    # Transfer charged per-zone so requests spanning zones are exact.
    remaining = nblocks
    at = lba
    while remaining > 0:
        zone = disk.geometry.zone_of(at)
        # Blocks left in this zone from `at`.
        zone_end = zone_end_reference(disk, at)
        span = min(remaining, zone_end - at)
        time += span * disk.params.block_size_mb / zone.rate
        at += span
        remaining -= span
    time += remapped_in_range_reference(disk.badblocks, lba, nblocks) \
        * disk.params.effective_remap_penalty
    return time


def zone_end_reference(disk: Disk, lba: int) -> int:
    """Linear-scan forebear of ``ZoneGeometry.span_end``."""
    bound = 0
    for zone in disk.geometry.zones:
        bound += zone.blocks
        if lba < bound:
            return bound
    raise ValueError(f"lba {lba} out of range")


def remapped_in_range_reference(bmap: BadBlockMap, lba: int, nblocks: int) -> int:
    """The original scan-the-smaller-side count behind
    ``BadBlockMap.remapped_in_range``."""
    if nblocks <= 0:
        return 0
    if len(bmap._remapped) < nblocks:
        return sum(1 for b in bmap._remapped if lba <= b < lba + nblocks)
    return sum(1 for b in range(lba, lba + nblocks) if b in bmap._remapped)
