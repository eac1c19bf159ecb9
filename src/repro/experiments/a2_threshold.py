"""A2: choosing the correctness threshold T (Section 3.1).

"To distinguish the two cases, the model may include a performance
threshold within the definition of a correctness fault, i.e., if the
disk request takes longer than T seconds to service, consider it
absolutely failed."

The tension: a low T kills slow-but-working components (wasting their
capacity -- the paper's explicit warning), while a high T leaves
requests pinned to a truly wedged component.  The pool here has one 4x
slow server (should be kept) and one fully stalled server (should be
killed); sweep T and measure availability and how many servers end up
fail-stopped.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..analysis.report import Table
from ..core.system import FailStutterSystem, WeightedRouter
from ..faults.component import DegradableServer
from ..faults.spec import PerformanceSpec
from ..sim.engine import Simulator
from ..sim.metrics import AvailabilityMeter

__all__ = ["run"]


def _one(t_value: float, n_servers: int, n_requests: int, gap: float, slo: float,
         seed: int):
    sim = Simulator()
    spec = PerformanceSpec(nominal_rate=10.0, tolerance=0.2, correctness_timeout=t_value)
    servers = [DegradableServer(sim, f"s{i}", 10.0) for i in range(n_servers)]
    system = FailStutterSystem(sim, servers, spec, router=WeightedRouter(), use_watchdog=True)
    servers[-1].set_slowdown("slow", 0.25)  # slow but working: keep it
    sim.schedule(1.0, servers[-2].set_slowdown, "wedge", 0.0)  # dead: kill it

    meter = AvailabilityMeter(slo=slo)
    rng = random.Random(seed)

    def one():
        issued = sim.now
        try:
            yield system.submit(1.0)
        except Exception:
            meter.record(None)
            return
        meter.record(sim.now - issued)

    def source():
        for __ in range(n_requests):
            sim.process(one())
            yield sim.timeout(rng.expovariate(1.0 / gap))

    sim.process(source())
    sim.run(until=n_requests * gap * 20)
    while meter.offered < n_requests:
        meter.record(None)
    killed = sum(1 for s in servers if s.stopped)
    slow_killed = servers[-1].stopped
    return meter.availability(), killed, slow_killed


def run(
    t_values: Sequence[float] = (0.3, 1.0, 3.0, 10.0, 60.0),
    n_servers: int = 4,
    n_requests: int = 400,
    gap: float = 0.06,
    slo: float = 0.6,
    seed: int = 23,
) -> Table:
    """Regenerate the A2 table: T vs availability and promotions."""
    table = Table(
        "A2: correctness threshold T -- one 4x-slow server (keep) + one "
        "wedged server (kill)",
        ["T (s)", "availability", "servers fail-stopped", "slow server killed"],
        note="low T wastes the working-but-slow server; high T strands "
        "requests on the wedged one",
    )
    for t_value in t_values:
        availability, killed, slow_killed = _one(
            t_value, n_servers, n_requests, gap, slo, seed
        )
        table.add_row(t_value, availability, killed, slow_killed)
    return table
