"""E4: SCSI timeouts, parity errors and chain-wide resets.

Section 2.1.2, from Talagala & Patterson's 400-disk farm over 6 months:
"SCSI timeouts and parity errors make up 49% of all errors; when network
errors are removed, this figure rises to 87%" -- about two per day --
and "these errors often lead to SCSI bus resets, affecting the
performance of all disks on the degraded SCSI chain."

Two parts: (a) the error-accounting table over a long simulated window;
(b) the performance impact of resets on a streaming scan sharing the
chain.
"""

from __future__ import annotations

import random

from ..analysis.report import Table
from ..faults.distributions import Exponential, Fixed
from ..sim.engine import Simulator
from ..storage.bus import TALAGALA_MIX, ScsiBus
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import uniform_geometry
from ..storage.workload import sequential_scan

__all__ = ["run"]

DAY = 86_400.0


def _chain(sim: Simulator, n_disks: int):
    params = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)
    return [
        Disk(sim, f"d{i}", geometry=uniform_geometry(2_000_000, 5.5), params=params)
        for i in range(n_disks)
    ]


def _scan_bandwidth(
    with_resets: bool, n_disks: int, reset_seconds: float, seed: int
) -> float:
    """Part (b): streaming-scan bandwidth on a quiet or resetting chain."""
    sim = Simulator()
    disks = _chain(sim, n_disks)
    if with_resets:
        bus = ScsiBus(
            sim,
            disks,
            error_interarrival=Exponential(20.0),  # accelerated cadence
            reset_duration=Fixed(reset_seconds),
            mix=TALAGALA_MIX,
            rng=random.Random(seed),
        )
        bus.start()
    result = sim.run(until=sequential_scan(sim, disks[0], nblocks=4000, chunk=64))
    return result.bandwidth_mb_s


def run(
    n_disks: int = 8,
    days: float = 30.0,
    errors_per_day: float = 2.0,
    reset_seconds: float = 2.0,
    seed: int = 7,
) -> Table:
    """Regenerate the E4 table: error accounting plus reset impact."""
    # Part (a): accounting over a long window.
    sim = Simulator()
    disks = _chain(sim, n_disks)
    bus = ScsiBus(
        sim,
        disks,
        error_interarrival=Exponential(DAY / errors_per_day),
        reset_duration=Fixed(reset_seconds),
        mix=TALAGALA_MIX,
        rng=random.Random(seed),
    )
    bus.start()
    sim.run(until=days * DAY)
    observed_per_day = len(bus.errors) / days

    # Part (b): scan bandwidth with a fast reset cadence to expose impact.
    clean = _scan_bandwidth(False, n_disks, reset_seconds, seed)
    noisy = _scan_bandwidth(True, n_disks, reset_seconds, seed)

    table = Table(
        f"E4: SCSI chain errors over {days:.0f} simulated days ({n_disks}-disk chain)",
        ["metric", "measured", "paper"],
        note="scan rows use an accelerated error cadence to expose the reset cost",
    )
    table.add_row("errors/day", observed_per_day, errors_per_day)
    table.add_row("SCSI fraction of all errors", bus.scsi_error_fraction(), 0.49)
    table.add_row(
        "SCSI fraction excl. network", bus.scsi_error_fraction(exclude_network=True), 0.87
    )
    table.add_row("chain resets", float(bus.reset_count), float("nan"))
    table.add_row("scan MB/s, quiet chain", clean, 5.5)
    table.add_row("scan MB/s, resetting chain", noisy, float("nan"))
    return table
