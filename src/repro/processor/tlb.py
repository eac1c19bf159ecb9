"""TLB with deterministic or nondeterministic replacement (Section 2.1.1).

Bressoud & Schneider, building hypervisor-based primary/backup fault
tolerance, found: "The TLB replacement policy on our HP 9000/720
processors was non-deterministic.  An identical series of
location-references and TLB-insert operations at the processors running
the primary and backup virtual machines could lead to different TLB
contents."

:class:`Tlb` supports LRU (deterministic) and RANDOM (nondeterministic,
explicitly seeded) replacement so the divergence experiment can replay
one reference stream through two "identical" TLBs and count how far
their contents and miss sequences drift apart.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

__all__ = ["Tlb", "divergence"]


class Tlb:
    """A fully-associative TLB of ``entries`` page translations."""

    #: Substrate tag, read by :func:`repro.experiments.experiment_substrates`.
    substrate = "processor"

    POLICIES = ("lru", "random")

    def __init__(
        self,
        entries: int = 64,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
    ):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        if policy == "random" and rng is None:
            raise ValueError("random policy needs an explicit rng")
        self.capacity = entries
        self.policy = policy
        self.rng = rng
        self._entries: List[int] = []  # LRU order, most recent last
        self.hits = 0
        self.misses = 0

    def translate(self, page: int) -> bool:
        """Reference ``page``; returns True on TLB hit."""
        if page < 0:
            raise ValueError(f"page must be >= 0, got {page}")
        if page in self._entries:
            self.hits += 1
            if self.policy == "lru":
                self._entries.remove(page)
                self._entries.append(page)
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            if self.policy == "lru":
                self._entries.pop(0)
            else:
                victim = self.rng.randrange(len(self._entries))
                self._entries.pop(victim)
        self._entries.append(page)
        return False

    def contents(self) -> Set[int]:
        """Snapshot of currently resident pages."""
        return set(self._entries)

    def miss_rate(self) -> float:
        """Misses over references (0 if never referenced)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total


def divergence(a: Tlb, b: Tlb) -> float:
    """Fraction of entries on which two TLBs disagree (Jaccard distance).

    0.0 means identical contents; 1.0 means fully disjoint.
    """
    ca, cb = a.contents(), b.contents()
    union = ca | cb
    if not union:
        return 0.0
    return 1.0 - len(ca & cb) / len(union)
