"""Bad-block remapping.

Section 2.1.2 ("Fault Masking"): a Seagate Hawk with three times the
block faults of its peers delivered 5.0 MB/s instead of 5.5 MB/s on
sequential reads, because "SCSI bad-block remappings, transparent to both
users and file systems, were the culprit."

A :class:`BadBlockMap` records which logical blocks have been remapped to
spare sectors.  Accessing a remapped block costs an extra positioning
penalty (the head must detour to the spare area and back), which is how a
handful of remaps silently shaves percent-level bandwidth off an
otherwise healthy disk.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Iterable, List, Optional, Set

__all__ = ["BadBlockMap"]


class BadBlockMap:
    """The set of remapped logical blocks on one disk.

    Membership is a set (O(1) :meth:`is_remapped`); a parallel sorted
    list makes :meth:`remapped_in_range` two bisects instead of a scan
    over the range or the whole map.
    """

    def __init__(self, remapped: Optional[Iterable[int]] = None):
        self._remapped: Set[int] = set(remapped or ())
        if any(lba < 0 for lba in self._remapped):
            raise ValueError("block addresses must be >= 0")
        self._sorted: List[int] = sorted(self._remapped)

    @classmethod
    def random(
        cls,
        capacity_blocks: int,
        fault_rate: float,
        rng: random.Random,
    ) -> "BadBlockMap":
        """Remap each block independently with probability ``fault_rate``.

        The Hawk experiment's "three times the block faults" is expressed
        by giving one disk 3x the ``fault_rate`` of its peers.
        """
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity_blocks}")
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if fault_rate == 0.0:
            return cls()
        # Draw the count then sample distinct addresses: much faster than a
        # per-block Bernoulli loop for realistic (tiny) fault rates.
        count = sum(1 for __ in range(capacity_blocks) if rng.random() < fault_rate) \
            if capacity_blocks <= 4096 else cls._binomial(capacity_blocks, fault_rate, rng)
        count = min(count, capacity_blocks)
        return cls(rng.sample(range(capacity_blocks), count))

    @staticmethod
    def _binomial(n: int, p: float, rng: random.Random) -> int:
        """Normal approximation to Binomial(n, p) for large n."""
        mean = n * p
        std = (n * p * (1 - p)) ** 0.5
        return max(0, min(n, round(rng.gauss(mean, std))))

    def is_remapped(self, lba: int) -> bool:
        """True if ``lba`` was remapped to a spare sector."""
        return lba in self._remapped

    def remap(self, lba: int) -> None:
        """Mark ``lba`` remapped (grown defect)."""
        if lba < 0:
            raise ValueError(f"lba must be >= 0, got {lba}")
        if lba not in self._remapped:
            self._remapped.add(lba)
            insort(self._sorted, lba)

    def remapped_in_range(self, lba: int, nblocks: int) -> int:
        """How many blocks of ``[lba, lba + nblocks)`` are remapped.

        Two bisects over the sorted remap list: O(log remaps) whatever
        the request size or map density.
        """
        if nblocks <= 0:
            return 0
        return bisect_left(self._sorted, lba + nblocks) - bisect_left(self._sorted, lba)

    def __len__(self) -> int:
        return len(self._remapped)

    def __repr__(self) -> str:
        return f"BadBlockMap({len(self._remapped)} remapped)"
