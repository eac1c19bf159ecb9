"""Storage substrate: disks, buses, RAID and the Section 3.2 policies.

* :mod:`repro.storage.geometry` -- multi-zone disk geometry.
* :mod:`repro.storage.badblocks` -- transparent bad-block remapping.
* :mod:`repro.storage.disk` -- the disk model (a degradable server).
* :mod:`repro.storage.bus` -- SCSI chains with correlated reset stalls.
* :mod:`repro.storage.raid` -- RAID-0/1 with a real content model.
* :mod:`repro.storage.striping` -- uniform / proportional / adaptive
  striping (the paper's three scenarios).
* :mod:`repro.storage.workload` -- scans and aged layouts.
"""

from .badblocks import BadBlockMap
from .bus import TALAGALA_MIX, BusError, ErrorMix, ScsiBus
from .disk import HAWK_PARAMS, Disk, DiskParams
from .geometry import Zone, ZoneGeometry, uniform_geometry, zoned_geometry
from .raid import Raid0, Raid1Pair
from .reconstruct import RebuildResult, Reconstructor
from .striping import (
    AdaptiveStriping,
    ProportionalStriping,
    StripingPolicy,
    StripingResult,
    UniformStriping,
)
from .workload import (
    ScanResult,
    file_layout,
    read_layout,
    sequential_scan,
)

__all__ = [
    "Zone",
    "ZoneGeometry",
    "uniform_geometry",
    "zoned_geometry",
    "BadBlockMap",
    "Disk",
    "DiskParams",
    "HAWK_PARAMS",
    "ScsiBus",
    "ErrorMix",
    "BusError",
    "TALAGALA_MIX",
    "Raid0",
    "Raid1Pair",
    "Reconstructor",
    "RebuildResult",
    "StripingPolicy",
    "StripingResult",
    "UniformStriping",
    "ProportionalStriping",
    "AdaptiveStriping",
    "ScanResult",
    "sequential_scan",
    "file_layout",
    "read_layout",
]
