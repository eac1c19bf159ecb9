"""The disk model.

A :class:`Disk` is a :class:`~repro.faults.component.DegradableServer`
whose work unit is *nominal service seconds*: for each request the disk
computes how long it would take on a healthy device (positioning +
zone-rate transfer + remap penalties) and submits that as work to a
server running at rate 1.0.  Every fault in the injector library then
composes naturally -- a 0.5 slowdown makes all service take twice as
long, a stall freezes the head mid-transfer, and fail-stop kills queued
requests detectably.

The model is calibrated against the paper's 5400-RPM Seagate Hawk era
(~5.5 MB/s sequential) by default but everything is parameterised.

A content store (block -> value) rides along so RAID layers above can be
tested for *data* correctness (mirror consistency, exact rebuilds), not
just timing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..faults.component import DegradableServer
from ..faults.spec import PerformanceSpec
from ..sim.engine import Event, Simulator
from .badblocks import BadBlockMap
from .geometry import ZoneGeometry, uniform_geometry

__all__ = ["DiskParams", "Disk", "HAWK_PARAMS"]


@dataclass(frozen=True)
class DiskParams:
    """Mechanical parameters of a disk model.

    ``avg_seek`` and the rotational latency (half a revolution at ``rpm``)
    are charged on every non-sequential access; ``block_size_mb`` converts
    block counts to megabytes; ``remap_penalty`` is the extra positioning
    cost per remapped block touched.
    """

    rpm: float = 5400.0
    avg_seek: float = 0.011  # seconds
    block_size_mb: float = 0.5
    remap_penalty: Optional[float] = None  # defaults to seek + rotation

    def __post_init__(self):
        if self.rpm <= 0:
            raise ValueError(f"rpm must be > 0, got {self.rpm}")
        if self.avg_seek < 0:
            raise ValueError(f"avg_seek must be >= 0, got {self.avg_seek}")
        if self.block_size_mb <= 0:
            raise ValueError(f"block_size_mb must be > 0, got {self.block_size_mb}")
        if self.remap_penalty is not None and self.remap_penalty < 0:
            raise ValueError(f"remap_penalty must be >= 0, got {self.remap_penalty}")

    @property
    def rotational_latency(self) -> float:
        """Average rotational delay: half a revolution, in seconds."""
        return 0.5 * 60.0 / self.rpm

    @property
    def positioning_time(self) -> float:
        """Average seek plus rotational latency."""
        return self.avg_seek + self.rotational_latency

    @property
    def effective_remap_penalty(self) -> float:
        """Extra time charged per remapped block."""
        if self.remap_penalty is not None:
            return self.remap_penalty
        return self.positioning_time


#: Parameters matching the paper's 5400-RPM Seagate Hawk measurements.
HAWK_PARAMS = DiskParams(rpm=5400.0, avg_seek=0.011, block_size_mb=0.5)


class Disk(DegradableServer):
    """A single disk drive with zones, bad blocks and the fault surface.

    ``read``/``write`` return events that fire with
    :class:`~repro.sim.resources.JobStats` when the I/O completes.
    Requests are served FIFO; sequential requests (starting where the
    previous request ended) skip positioning, which is what makes
    fragmented layouts slower (E13).
    """

    substrate = "storage"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        geometry: Optional[ZoneGeometry] = None,
        params: DiskParams = HAWK_PARAMS,
        badblocks: Optional[BadBlockMap] = None,
        spec: Optional[PerformanceSpec] = None,
    ):
        self.geometry = geometry or uniform_geometry(1_000_000, 5.5)
        # Work unit = nominal service seconds, served at 1.0 per second.
        # The default spec lives in the same units (delivered service
        # seconds per second), matching the completion telemetry; MB/s
        # views stay available as nominal/effective_bandwidth.
        super().__init__(sim, name, nominal_rate=1.0, spec=spec)
        self.params = params
        self.badblocks = badblocks or BadBlockMap()
        self._head: Optional[int] = None  # lba following the last request
        self._content: Dict[int, Any] = {}
        self.reads = 0
        self.writes = 0

    # -- service-time model ----------------------------------------------------

    def service_time(self, lba: int, nblocks: int, sequential_hint: bool = False) -> float:
        """Nominal (fault-free) service time for a request.

        Exposed so striping policies can gauge disks analytically and so
        tests can pin the model.

        The transfer charge walks the geometry's precomputed boundary and
        rate arrays directly: one bisect locates the first zone, then each
        touched zone costs O(1).  The per-span arithmetic and accumulation
        order are identical to the historical per-zone loop, so results
        are bit-identical to it (the equivalence property tests keep that
        loop as their reference and compare with ``==``, not ``approx``).
        """
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        geometry = self.geometry
        end = lba + nblocks
        if not (0 <= lba and end <= geometry.capacity_blocks):
            raise ValueError(
                f"request [{lba}, {end}) outside disk of "
                f"{geometry.capacity_blocks} blocks"
            )
        sequential = sequential_hint or (self._head is not None and lba == self._head)
        time = 0.0 if sequential else self.params.positioning_time
        block_size_mb = self.params.block_size_mb
        bounds = geometry._bounds
        rates = geometry._rates
        i = bisect_right(bounds, lba)
        at = lba
        while True:
            zone_end = bounds[i]
            if end <= zone_end:
                time += (end - at) * block_size_mb / rates[i]
                break
            time += (zone_end - at) * block_size_mb / rates[i]
            at = zone_end
            i += 1
        time += self.badblocks.remapped_in_range(lba, nblocks) * self.params.effective_remap_penalty
        return time

    # -- I/O surface ---------------------------------------------------------------

    def read(self, lba: int, nblocks: int = 1) -> Event:
        """Issue a read; event fires with JobStats at completion."""
        work = self.service_time(lba, nblocks)
        self._head = lba + nblocks
        self.reads += 1
        return self.submit(work, tag=("read", lba, nblocks))

    def write(self, lba: int, nblocks: int = 1, value: Any = None) -> Event:
        """Issue a write; stores ``value`` in the content model.

        The value is recorded at completion (not submission) so that a
        fail-stop mid-queue leaves the content untouched, matching what a
        real halted disk would have committed.
        """
        work = self.service_time(lba, nblocks)
        self._head = lba + nblocks
        self.writes += 1
        event = self.submit(work, tag=("write", lba, nblocks))
        if value is not None:
            def commit(ev: Event) -> None:
                if ev._ok:
                    for i in range(nblocks):
                        self._content[lba + i] = value
            event.callbacks.append(commit)
        return event

    def peek(self, lba: int) -> Any:
        """Content-model read (no timing): last committed value at ``lba``."""
        return self._content.get(lba)

    def clone_content_from(self, source: "Disk", lba: int, nblocks: int) -> None:
        """Copy another disk's committed content (rebuild data path).

        Timing must be charged separately via :meth:`read`/:meth:`write`;
        this only moves the modelled bytes.
        """
        if nblocks < 0:
            raise ValueError(f"nblocks must be >= 0, got {nblocks}")
        for block in range(lba, lba + nblocks):
            value = source.peek(block)
            if value is not None:
                self._content[block] = value

    # -- bandwidth views -------------------------------------------------------------

    @property
    def nominal_bandwidth(self) -> float:
        """Headline MB/s: the fastest zone at nominal rate."""
        return self.geometry.max_rate

    @property
    def effective_bandwidth(self) -> float:
        """Headline MB/s scaled by the active fault factors."""
        return self.geometry.max_rate * self.effective_rate

    def sequential_bandwidth(self, lba: int = 0, nblocks: int = 1000) -> float:
        """Nominal streaming MB/s over ``[lba, lba+nblocks)`` incl. remaps."""
        time = self.service_time(lba, nblocks, sequential_hint=True)
        return nblocks * self.params.block_size_mb / time

    def __repr__(self) -> str:
        return (
            f"<Disk {self.name} {self.nominal_bandwidth:.2f} MB/s nominal, "
            f"state={self.state.value}>"
        )
