"""E14: availability under performance faults (Section 3.3).

Gray & Reuter availability: "the fraction of the offered load that is
processed with acceptable response times."  The paper argues: "A system
that only utilizes the fail-stop model is likely to deliver poor
performance under even a single performance failure; if performance
does not meet the threshold, availability decreases.  In contrast, a
system that takes performance failures into account is likely to
deliver consistent, high performance, thus increasing availability."

One server pool, one mid-run performance fault, four routing designs:

* ``round-robin``  -- fail-stop illusion (components identical);
* ``jsq``          -- load-aware but rate-blind;
* ``weighted``     -- fail-stutter: least expected delay by observed rate;
* ``weighted+T``   -- fail-stutter plus the correctness watchdog, for the
  stall case where the faulty server never completes anything.
"""

from __future__ import annotations

import random
from typing import Optional

from ..analysis.report import Table
from ..core.system import (
    FailStutterSystem,
    JsqRouter,
    RoundRobinRouter,
    System,
    WeightedRouter,
)
from ..faults.component import DegradableServer
from ..faults.model import ComponentStopped
from ..faults.spec import PerformanceSpec
from ..sim.metrics import AvailabilityMeter

__all__ = ["run"]

ROUTERS = {
    "round-robin": RoundRobinRouter,
    "jsq": JsqRouter,
    "weighted": WeightedRouter,
}


def _run_policy(
    policy: str,
    fault_factor: Optional[float],
    n_servers: int,
    n_requests: int,
    arrival_gap: float,
    slo: float,
    seed: int,
) -> float:
    sim = System()
    use_watchdog = policy == "weighted+T"
    spec = PerformanceSpec(
        nominal_rate=10.0,
        tolerance=0.2,
        correctness_timeout=5.0 if use_watchdog else None,
    )
    servers = [
        DegradableServer(sim, f"s{i}", spec.nominal_rate, spec=spec)
        for i in range(n_servers)
    ]
    router_cls = ROUTERS["weighted" if use_watchdog else policy]
    system = FailStutterSystem(
        sim, servers, spec, router=router_cls(), use_watchdog=use_watchdog
    )
    # The fault lands a fifth of the way through the request stream, on
    # the last server -- addressed via the registry, not the local list.
    fault_at = n_requests * arrival_gap / 5
    if fault_factor is not None:
        faulted = sim.components.get(f"s{n_servers - 1}")
        sim.schedule(fault_at, faulted.set_slowdown, "fault", fault_factor)

    meter = AvailabilityMeter(slo=slo)
    rng = random.Random(seed)

    def one():
        issued = sim.now
        try:
            yield system.submit(1.0)
        except (ComponentStopped, TimeoutError):
            meter.record(None)
            return
        meter.record(sim.now - issued)

    def source():
        for __ in range(n_requests):
            sim.process(one())
            yield sim.timeout(rng.expovariate(1.0 / arrival_gap))

    sim.process(source())
    horizon = n_requests * arrival_gap * 10
    sim.run(until=horizon)
    # Anything still outstanding at the horizon counts as unserved.
    while meter.offered < n_requests:
        meter.record(None)
    return meter.availability()


def run(
    n_servers: int = 4,
    n_requests: int = 600,
    arrival_gap: float = 0.05,
    slo: float = 0.5,
    seed: int = 17,
) -> Table:
    """Regenerate the E14 table: policy x fault availability.

    Every (policy, fault) cell is an independent simulation seeded from
    ``seed``.
    """
    table = Table(
        f"E14: availability (SLO {slo}s) of a {n_servers}-server pool, "
        "one server faulted mid-run",
        ["policy", "no fault", "20x slowdown", "full stall"],
        note="paper: fail-stop designs lose availability under a single "
        "performance fault; fail-stutter designs keep it",
    )
    policies = ("round-robin", "jsq", "weighted", "weighted+T")
    faults = (None, 0.05, 0.0)
    for policy in policies:
        cells = [
            _run_policy(policy, fault, n_servers, n_requests, arrival_gap, slo, seed)
            for fault in faults
        ]
        table.add_row(policy, *cells)
    return table

