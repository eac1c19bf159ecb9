"""E21: incremental growth and plug-and-play (Section 3.3).

"Such a system can be incrementally grown, allowing newer, faster
components to be added; adding these faster components to incrementally
scale the system is handled naturally, because the older components
simply appear to be performance-faulty versions of the new ones."

Start from an array of old disks and add new-generation disks that are
2x faster.  Uniform striping (the fail-stop illusion: all components
identical) wastes the new capacity -- throughput stays pinned at
N_total * old_rate.  Adaptive striping exploits each disk at its own
speed with zero reconfiguration: true plug-and-play.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.report import Table
from ..sim.engine import Simulator
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import uniform_geometry
from ..storage.raid import Raid1Pair
from ..storage.striping import AdaptiveStriping, UniformStriping

__all__ = ["run"]

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def _mixed_array(sim, n_old: int, n_new: int, old_rate: float, new_rate: float):
    pairs = []
    for i in range(n_old):
        d1 = Disk(sim, f"old{2*i}", uniform_geometry(200_000, old_rate), PARAMS)
        d2 = Disk(sim, f"old{2*i+1}", uniform_geometry(200_000, old_rate), PARAMS)
        pairs.append(Raid1Pair(sim, d1, d2))
    for i in range(n_new):
        d1 = Disk(sim, f"new{2*i}", uniform_geometry(200_000, new_rate), PARAMS)
        d2 = Disk(sim, f"new{2*i+1}", uniform_geometry(200_000, new_rate), PARAMS)
        pairs.append(Raid1Pair(sim, d1, d2))
    return pairs


def _throughput(policy, n_old, n_new, old_rate, new_rate, n_blocks):
    sim = Simulator()
    pairs = _mixed_array(sim, n_old, n_new, old_rate, new_rate)
    result = sim.run(until=policy.run(sim, pairs, n_blocks, block_value=1))
    return result.throughput_mb_s


def run(
    n_old: int = 4,
    new_counts: Sequence[int] = (0, 1, 2, 4),
    old_rate: float = 5.5,
    new_rate: float = 11.0,
    n_blocks: int = 600,
) -> Table:
    """Regenerate the E21 table: added fast pairs vs policy throughput."""
    table = Table(
        f"E21: incremental growth -- {n_old} old pairs ({old_rate} MB/s) plus "
        f"new pairs at {new_rate} MB/s",
        [
            "new pairs added",
            "uniform MB/s",
            "adaptive MB/s",
            "aggregate capacity",
            "adaptive efficiency",
        ],
        note="uniform striping treats new disks as identical to old ones "
        "and wastes them; adaptive striping is plug-and-play",
    )
    for n_new in new_counts:
        capacity = n_old * old_rate + n_new * new_rate
        uniform = _throughput(UniformStriping(), n_old, n_new, old_rate, new_rate, n_blocks)
        adaptive = _throughput(AdaptiveStriping(), n_old, n_new, old_rate, new_rate, n_blocks)
        table.add_row(n_new, uniform, adaptive, capacity, adaptive / capacity)
    return table
