"""Set-associative cache with fault masking (Section 2.1.1).

The paper's processor evidence starts with *fault masking*: "chips with
different characteristics are sold as identical."  The Viking study
found parts whose specified 16 KB 4-way level-one cache measured as 4 KB
direct-mapped because TI had turned portions off to preserve yield --
costing up to 40% in application performance.  The Vax-11/780 disabled
one set of its 2-way cache under faults; the Vax-11/750 shut off the
whole cache.

:class:`Cache` is a trace-driven set-associative cache with true-LRU
replacement and a masking surface: individual ways can be disabled
globally (yield masking) or per-set (bad-line mapping, as in the HP
PA-RISC).  :func:`run_trace` converts hits/misses into cycles so
"identical" chips can be compared on runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["CacheConfig", "Cache", "RunCost", "run_trace"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache."""

    size_bytes: int = 16 * 1024
    ways: int = 4
    line_bytes: int = 32

    def __post_init__(self):
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("all cache parameters must be > 0")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible by ways*line "
                f"({self.ways}*{self.line_bytes})"
            )

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)


class Cache:
    """Trace-driven set-associative cache with LRU and fault masking."""

    #: Substrate tag, read by :func:`repro.experiments.experiment_substrates`.
    substrate = "processor"

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        # Per set: list of (tag) in LRU order, most recent last.
        self._sets: List[List[int]] = [[] for __ in range(config.n_sets)]
        #: Ways disabled in every set (yield masking).
        self._masked_ways = 0
        #: Per-set extra masking: set index -> ways disabled there.
        self._masked_lines: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    # -- fault masking ---------------------------------------------------------

    def mask_ways(self, n: int) -> None:
        """Disable ``n`` ways in every set (sold-as-identical masking).

        The Viking case: ``CacheConfig(16KB, 4 ways)`` with
        ``mask_ways(3)`` measures as a 4 KB direct-mapped cache.
        """
        if not 0 <= n < self.config.ways:
            raise ValueError(f"can mask 0..{self.config.ways - 1} ways, got {n}")
        self._masked_ways = n
        self._trim_all()

    def mask_set(self, set_index: int, n: int) -> None:
        """Disable ``n`` additional ways in one set (bad-line mapping)."""
        if not 0 <= set_index < self.config.n_sets:
            raise ValueError(f"set {set_index} out of range")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._masked_lines[set_index] = n
        self._trim_all()

    def effective_ways(self, set_index: int) -> int:
        """Usable ways in ``set_index`` after masking (may be zero)."""
        ways = self.config.ways - self._masked_ways - self._masked_lines.get(set_index, 0)
        return max(0, ways)

    @property
    def effective_size_bytes(self) -> int:
        """Usable capacity after masking."""
        return sum(
            self.effective_ways(i) * self.config.line_bytes
            for i in range(self.config.n_sets)
        )

    def _trim_all(self) -> None:
        for index, entries in enumerate(self._sets):
            limit = self.effective_ways(index)
            if len(entries) > limit:
                # Oldest entries (front of list) fall out first.
                del entries[: len(entries) - limit]

    # -- accesses ---------------------------------------------------------------

    def _locate(self, address: int):
        line = address // self.config.line_bytes
        set_index = line % self.config.n_sets
        tag = line // self.config.n_sets
        return set_index, tag

    def access(self, address: int) -> bool:
        """Reference ``address``; returns True on hit."""
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address}")
        set_index, tag = self._locate(address)
        entries = self._sets[set_index]
        limit = self.effective_ways(set_index)
        if tag in entries:
            entries.remove(tag)
            entries.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if limit <= 0:
            return False  # set fully masked: everything misses
        entries.append(tag)
        if len(entries) > limit:
            entries.pop(0)  # evict LRU
        return False

    @property
    def accesses(self) -> int:
        """Total references."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hits over accesses (0 if never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset_counters(self) -> None:
        """Zero hit/miss counters (keeps contents and masking)."""
        self.hits = 0
        self.misses = 0


@dataclass(frozen=True)
class RunCost:
    """Cycle accounting for one trace run."""

    accesses: int
    hits: int
    misses: int
    cycles: int

    @property
    def cpi(self) -> float:
        """Cycles per access."""
        if self.accesses == 0:
            return 0.0
        return self.cycles / self.accesses


def run_trace(
    cache: Cache,
    trace: Iterable[int],
    hit_cycles: int = 1,
    miss_cycles: int = 20,
) -> RunCost:
    """Replay ``trace`` through ``cache`` and account cycles."""
    if hit_cycles <= 0 or miss_cycles <= 0:
        raise ValueError("cycle costs must be > 0")
    start_hits, start_misses = cache.hits, cache.misses
    cycles = 0
    count = 0
    for address in trace:
        if cache.access(address):
            cycles += hit_cycles
        else:
            cycles += miss_cycles
        count += 1
    return RunCost(
        accesses=count,
        hits=cache.hits - start_hits,
        misses=cache.misses - start_misses,
        cycles=cycles,
    )
