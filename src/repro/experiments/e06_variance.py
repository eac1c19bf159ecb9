"""E6: run-to-run variance under transient stutters (Vesta).

Section 2.1.2: "there was typically a cluster of measurements that gave
near-peak results, while the other measurements were spread relatively
widely down to as low as 15-20% of peak performance."

Repeat the same fixed read benchmark many times on a component subject
to random transient stutters, and report the distribution relative to
peak -- the cluster-plus-tail shape is the target.

Each repetition is an *independent* simulation: its stutter process is
seeded per run (:func:`~repro.sim.random.derive_seed`) and the benchmark
starts at a random phase of that process, so a run samples the same
stationary behavior a long shared timeline would.
"""

from __future__ import annotations

import random

from ..analysis.report import Table
from ..core.system import System
from ..faults.distributions import Exponential, Uniform
from ..faults.library import TransientStutter
from ..sim.random import derive_seed
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import uniform_geometry
from ..storage.workload import sequential_scan

__all__ = ["run"]


def _one_benchmark(
    run_index: int,
    nblocks: int,
    stutter_mean_gap: float,
    stutter_mean_duration: float,
    seed: int,
) -> float:
    """Bandwidth of one benchmark repetition (independent sweep point)."""
    sim = System()
    params = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)
    disk = Disk(sim, "vesta", geometry=uniform_geometry(2_000_000, 5.5), params=params)
    # Registry wiring: the injector reaches the disk by registered name.
    sim.inject(
        "vesta",
        TransientStutter(
            interarrival=Exponential(stutter_mean_gap),
            duration=Exponential(stutter_mean_duration),
            factor=Uniform(0.1, 0.3),
        ),
        random.Random(derive_seed(seed, f"e06/fault/{run_index}")),
    )
    # Start the benchmark at a random phase of the stutter process (two
    # full mean cycles of headroom), as the next run in a long shared
    # timeline would: some runs begin mid-episode, most in a quiet gap.
    phase_rng = random.Random(derive_seed(seed, f"e06/phase/{run_index}"))
    sim.run(until=phase_rng.uniform(0.0, 2.0 * (stutter_mean_gap + stutter_mean_duration)))
    result = sim.run(until=sequential_scan(sim, disk, start=0, nblocks=nblocks))
    return result.bandwidth_mb_s


def run(
    n_runs: int = 60,
    nblocks: int = 22,
    stutter_mean_gap: float = 15.0,
    stutter_mean_duration: float = 4.0,
    seed: int = 11,
) -> Table:
    """Regenerate the E6 table: benchmark-time distribution vs peak.

    Each run takes ~2 s against stutter episodes averaging 4 s every
    ~19 s: most runs miss the episodes entirely (the near-peak cluster),
    while an unlucky run sits mostly inside one and lands at the
    episode's rate factor -- the paper's 15-20%-of-peak tail.
    """
    bandwidths = [
        _one_benchmark(i, nblocks, stutter_mean_gap, stutter_mean_duration, seed)
        for i in range(n_runs)
    ]
    peak = max(bandwidths)
    fractions = sorted(b / peak for b in bandwidths)
    near_peak = sum(1 for f in fractions if f >= 0.9) / len(fractions)

    table = Table(
        f"E6: {n_runs} repeated runs of one benchmark under transient stutters",
        ["statistic", "fraction of peak"],
        note="paper: a near-peak cluster plus a tail down to 15-20% of peak",
    )
    table.add_row("best", 1.0)
    table.add_row("median", fractions[len(fractions) // 2])
    table.add_row("p10", fractions[max(0, len(fractions) // 10)])
    table.add_row("worst", fractions[0])
    table.add_row("share of runs within 10% of peak", near_peak)
    return table

