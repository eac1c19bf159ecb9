"""I/O workload generators.

Covers the access patterns the paper's evidence relies on:

* sequential scans (the Hawk bandwidth experiment, E3);
* aged/fragmented file layouts (Section 2.2.1 "File Layout": sequential
  read performance across aged file systems varies by up to a factor of
  two, E13).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..sim.engine import Process, Simulator
from .disk import Disk

__all__ = [
    "ScanResult",
    "sequential_scan",
    "file_layout",
    "read_layout",
]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a timed scan."""

    nblocks: int
    duration: float
    bandwidth_mb_s: float


def sequential_scan(
    sim: Simulator, disk: Disk, start: int = 0, nblocks: int = 1000, chunk: int = 64
) -> Process:
    """Stream ``nblocks`` from ``start`` in ``chunk``-block requests.

    The process returns a :class:`ScanResult`; bandwidth reflects zone
    rates, remap penalties and any active performance fault.
    """
    if nblocks <= 0 or chunk <= 0:
        raise ValueError("nblocks and chunk must be > 0")

    def go():
        begin = sim.now
        at = start
        remaining = nblocks
        while remaining > 0:
            span = min(chunk, remaining)
            yield disk.read(at, span)
            at += span
            remaining -= span
        duration = sim.now - begin
        mb = nblocks * disk.params.block_size_mb
        return ScanResult(nblocks, duration, mb / duration if duration > 0 else float("inf"))

    return sim.process(go())


def file_layout(
    n_blocks: int,
    fragmentation: float,
    capacity_blocks: int,
    rng: random.Random,
    start: int = 0,
) -> List[int]:
    """Block addresses of one file on an aged file system.

    With probability ``1 - fragmentation`` the next block is contiguous
    with the previous one; otherwise it jumps to a random free-ish spot.
    ``fragmentation = 0`` is a freshly created file system (purely
    sequential layout); higher values model aging.
    """
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be > 0, got {n_blocks}")
    if not 0.0 <= fragmentation <= 1.0:
        raise ValueError(f"fragmentation must be in [0, 1], got {fragmentation}")
    if capacity_blocks < n_blocks:
        raise ValueError("file larger than disk")
    layout = [start]
    for __ in range(n_blocks - 1):
        if rng.random() < fragmentation:
            layout.append(rng.randrange(capacity_blocks))
        else:
            layout.append(min(layout[-1] + 1, capacity_blocks - 1))
    return layout


def read_layout(sim: Simulator, disk: Disk, layout: Sequence[int]) -> Process:
    """Read a file's blocks in layout order; returns a :class:`ScanResult`.

    Contiguous runs are coalesced into single requests, as a file system
    read-ahead would issue them.
    """
    if not layout:
        raise ValueError("layout must be non-empty")

    def go():
        begin = sim.now
        run_start = layout[0]
        run_len = 1
        for lba in list(layout[1:]) + [None]:
            if lba is not None and lba == run_start + run_len:
                run_len += 1
                continue
            yield disk.read(run_start, run_len)
            if lba is not None:
                run_start, run_len = lba, 1
        duration = sim.now - begin
        mb = len(layout) * disk.params.block_size_mb
        return ScanResult(len(layout), duration, mb / duration if duration > 0 else float("inf"))

    return sim.process(go())
