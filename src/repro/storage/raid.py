"""RAID levels over simulated disks.

Implements the arrays the paper's examples are built on:

* :class:`Raid0` -- striping, no redundancy.  The Section 1 claim: "if
  performance of a single disk is consistently lower than the rest, the
  performance of the entire storage system tracks that of the single,
  slow disk" (E2).
* :class:`Raid1Pair` -- a mirrored pair.  Writes go to both members
  (completion is the *max*, so "the rate of each mirror is determined by
  the rate of its slowest disk", Section 3.2); reads are served by the
  less-loaded live member.

All data paths move real (modelled) content, so the test suite can check
*data* invariants (mirrors identical, rebuilds exact), not just timing.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ..core.component import CompositeComponent
from ..faults.model import ComponentStopped
from ..faults.spec import PerformanceSpec
from ..sim.engine import Event, Process, Simulator
from .disk import Disk

__all__ = ["Raid0", "Raid1Pair"]


def _member_spec_sum(disks: Sequence[Disk]) -> PerformanceSpec:
    """Aggregate spec for a striped array: sum of member nominal rates."""
    return PerformanceSpec(sum(d.spec.nominal_rate for d in disks))


class Raid0(CompositeComponent):
    """Block-striped array with no redundancy."""

    substrate = "storage"

    def __init__(self, sim: Simulator, disks: Sequence[Disk], stripe_unit: int = 1,
                 name: str = ""):
        if len(disks) < 2:
            raise ValueError("striping needs >= 2 disks")
        if stripe_unit < 1:
            raise ValueError(f"stripe_unit must be >= 1, got {stripe_unit}")
        self.sim = sim
        self.disks: List[Disk] = list(disks)
        self.stripe_unit = stripe_unit
        self._init_component(
            sim,
            name or f"raid0({','.join(d.name for d in self.disks)})",
            self.disks,
            _member_spec_sum(self.disks),
        )

    @property
    def width(self) -> int:
        """Number of member disks."""
        return len(self.disks)

    def locate(self, block: int) -> Tuple[int, int]:
        """Map logical ``block`` to ``(disk_index, lba)``."""
        if block < 0:
            raise ValueError(f"block must be >= 0, got {block}")
        chunk, offset = divmod(block, self.stripe_unit)
        row, disk_index = divmod(chunk, self.width)
        return disk_index, row * self.stripe_unit + offset

    def write(self, block: int, value: Any = None) -> Event:
        """Write one logical block."""
        disk_index, lba = self.locate(block)
        return self.disks[disk_index].write(lba, 1, value=value)

    def read(self, block: int) -> Process:
        """Read one logical block; the process returns its value."""
        disk_index, lba = self.locate(block)

        def go():
            yield self.disks[disk_index].read(lba, 1)
            return self.disks[disk_index].peek(lba)

        return self.sim.process(go())

    def write_all(self, blocks: Sequence[int], value: Any = None) -> Event:
        """Write many logical blocks in parallel; fires when all are done."""
        return self.sim.all_of([self.write(b, value) for b in blocks])


class Raid1Pair(CompositeComponent):
    """A mirrored pair of disks."""

    substrate = "storage"

    def __init__(self, sim: Simulator, primary: Disk, secondary: Disk, name: str = ""):
        self.sim = sim
        self.primary = primary
        self.secondary = secondary
        self._read_toggle = 0
        # The mirrored-write rate is gated by the slowest member, so the
        # pair's spec is the min over members, not the sum.
        self._init_component(
            sim,
            name or f"pair({primary.name},{secondary.name})",
            [],
            PerformanceSpec(min(d.spec.nominal_rate for d in (primary, secondary))),
        )

    def _component_children(self) -> List[Disk]:
        # Live view: reconstruction swaps a spare in for a dead member.
        return [self.primary, self.secondary]

    def delivered_rate(self) -> float:
        """Mirrored-write delivery: the slowest live member's rate."""
        return self.effective_rate

    @property
    def disks(self) -> Tuple[Disk, Disk]:
        """Both members."""
        return (self.primary, self.secondary)

    @property
    def live_disks(self) -> List[Disk]:
        """Members that have not fail-stopped."""
        return [d for d in self.disks if not d.stopped]

    @property
    def failed(self) -> bool:
        """True when both members have fail-stopped (data loss)."""
        return not self.live_disks

    @property
    def effective_rate(self) -> float:
        """The pair's current write rate factor: min over live members.

        Section 3.2: "the rate of each mirror is determined by the rate of
        its slowest disk."  With one member dead, the survivor's rate rules.
        """
        live = self.live_disks
        if not live:
            return 0.0
        return min(d.effective_rate for d in live)

    def nominal_service_time(self, lba: int, nblocks: int = 1) -> float:
        """Fault-free mirrored-write time (max over members)."""
        return max(d.service_time(lba, nblocks, sequential_hint=True) for d in self.disks)

    def write(self, lba: int, nblocks: int = 1, value: Any = None) -> Process:
        """Mirrored write: completes when every live member has written."""

        def go():
            live = self.live_disks
            if not live:
                raise ComponentStopped(self.name)
            events = [d.write(lba, nblocks, value=value) for d in live]
            try:
                yield self.sim.all_of(events)
            except ComponentStopped:
                # A member died mid-write; the data is safe iff one member
                # committed.  Re-check liveness and committed state.
                survivors = self.live_disks
                if not survivors:
                    raise
                committed = [d for d in survivors if d.peek(lba) == value]
                if not committed:
                    yield self.sim.all_of(
                        [d.write(lba, nblocks, value=value) for d in survivors]
                    )
            return None

        return self.sim.process(go())

    def read(self, lba: int, nblocks: int = 1) -> Process:
        """Read from the less-loaded live member; returns the value."""

        def go():
            live = self.live_disks
            if not live:
                raise ComponentStopped(self.name)
            if len(live) == 1:
                disk = live[0]
            else:
                q0, q1 = live[0].queue_length, live[1].queue_length
                if q0 != q1:
                    disk = live[0] if q0 < q1 else live[1]
                else:
                    self._read_toggle ^= 1
                    disk = live[self._read_toggle]
            yield disk.read(lba, nblocks)
            return disk.peek(lba)

        return self.sim.process(go())

    def consistent_at(self, lba: int) -> bool:
        """True when both live members agree on the content at ``lba``."""
        live = self.live_disks
        if len(live) < 2:
            return True
        return live[0].peek(lba) == live[1].peek(lba)
