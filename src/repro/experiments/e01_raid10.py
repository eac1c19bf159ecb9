"""E1: the Section 3.2 worked example -- RAID-10 under three designs.

Workload: write D data blocks in parallel across N mirror pairs.

Paper's analysis, with N pairs at B MB/s and one pair at b < B:

* scenario 1 (fail-stop design, uniform striping): throughput ``N * b``;
* scenario 2 (static-fault-aware, proportional striping): ``(N-1)*B + b``
  under a static skew, but back to tracking the slow disk if rates shift
  after installation;
* scenario 3 (general faults, adaptive striping): near the full available
  bandwidth under both static and dynamic faults, at the cost of
  per-block bookkeeping.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.system import System
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import uniform_geometry
from ..storage.raid import Raid1Pair
from ..storage.striping import AdaptiveStriping, ProportionalStriping, UniformStriping

__all__ = ["run"]

POLICIES = {
    "uniform": UniformStriping,
    "proportional": ProportionalStriping,
    "adaptive": AdaptiveStriping,
}


def _make_pairs(sim: System, n_pairs: int, rate: float):
    params = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)
    pairs = []
    for i in range(n_pairs):
        d1 = Disk(sim, f"d{2*i}", geometry=uniform_geometry(200_000, rate), params=params)
        d2 = Disk(sim, f"d{2*i+1}", geometry=uniform_geometry(200_000, rate), params=params)
        pairs.append(Raid1Pair(sim, d1, d2))
    return pairs


def _one_run(policy_name: str, scenario: str, n_pairs: int, rate_b: float,
             slow_factor: float, n_blocks: int) -> float:
    sim = System()
    pairs = _make_pairs(sim, n_pairs, rate_b)
    # Registry wiring: the faulted disk is addressed by registered name,
    # not by position in the builder's return value.
    slow_disk = sim.components.get(f"d{2 * n_pairs - 2}")
    if scenario == "static-fault":
        slow_disk.set_slowdown("skew", slow_factor)
    elif scenario == "dynamic-fault":
        sim.schedule(1.0, slow_disk.set_slowdown, "skew", slow_factor)
    policy = POLICIES[policy_name]()
    result = sim.run(until=policy.run(sim, pairs, n_blocks, block_value=1))
    return result.throughput_mb_s


def analytic(scenario: str, policy: str, n: int, big: float, small: float) -> float:
    """The paper's closed-form prediction for each cell."""
    if scenario == "healthy":
        return n * big
    if policy == "uniform":
        return n * small
    if policy == "proportional" and scenario == "dynamic-fault":
        # Gauged equal at install, so behaves like uniform once the fault
        # lands (exact value depends on when; the shape is 'tracks b').
        return n * small
    return (n - 1) * big + small


def run(n_pairs: int = 4, rate_b: float = 5.5, slow_factor: float = 0.5,
        n_blocks: int = 400) -> Table:
    """Regenerate the E1 table: policy x scenario throughput."""
    small = rate_b * slow_factor
    table = Table(
        "E1: Section 3.2 RAID-10 write throughput (MB/s), "
        f"N={n_pairs} pairs, B={rate_b}, b={small}",
        ["scenario", "policy", "measured MB/s", "paper analytic MB/s", "bookkeeping"],
        note="dynamic-fault analytic values are the 'tracks the slow disk' bound",
    )
    for scenario in ("healthy", "static-fault", "dynamic-fault"):
        for policy in ("uniform", "proportional", "adaptive"):
            measured = _one_run(policy, scenario, n_pairs, rate_b, slow_factor, n_blocks)
            bookkeeping = n_blocks if policy == "adaptive" else 0
            table.add_row(
                scenario,
                policy,
                measured,
                analytic(scenario, policy, n_pairs, rate_b, small),
                bookkeeping,
            )
    return table
