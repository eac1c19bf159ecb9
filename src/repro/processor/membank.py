"""Scalar-vector memory bank interference (Section 2.2.2).

Raghavan & Hayes: "perturbations to a vector reference stream can reduce
memory system efficiency by up to a factor of two."

The model: ``n_banks`` interleaved memory banks, each busy for
``bank_busy`` cycles after a reference.  An unperturbed stride-1 vector
stream visits banks round-robin and never waits (as long as
``n_banks >= bank_busy``).  Scalar references injected into the stream
hit arbitrary banks; a scalar landing on a recently used bank stalls the
pipeline until the bank recovers, and the vector stream behind it eats
the bubble.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["BankedMemory", "StreamResult", "run_stream", "perturbed_stream"]


class BankedMemory:
    """Interleaved banks with a fixed recovery time."""

    #: Substrate tag, read by :func:`repro.experiments.experiment_substrates`.
    substrate = "processor"

    def __init__(self, n_banks: int = 8, bank_busy: int = 8):
        if n_banks < 1 or bank_busy < 1:
            raise ValueError("n_banks and bank_busy must be >= 1")
        self.n_banks = n_banks
        self.bank_busy = bank_busy
        #: Cycle at which each bank becomes free again.
        self._free_at: List[int] = [0] * n_banks
        self.references = 0
        self.stall_cycles = 0

    def reference(self, address: int, now: int) -> int:
        """Issue a reference at cycle ``now``; returns the completion cycle.

        If the addressed bank is still busy, the request (and the stream
        behind it) stalls until the bank recovers.
        """
        if address < 0 or now < 0:
            raise ValueError("address and now must be >= 0")
        bank = address % self.n_banks
        self.references += 1
        start = max(now, self._free_at[bank])
        self.stall_cycles += start - now
        self._free_at[bank] = start + self.bank_busy
        return start + 1  # pipelined: the *next* issue slot


@dataclass(frozen=True)
class StreamResult:
    """Timing of one reference stream."""

    references: int
    cycles: int
    stall_cycles: int

    @property
    def efficiency(self) -> float:
        """Ideal cycles (1/reference) over actual cycles."""
        if self.cycles == 0:
            return 1.0
        return self.references / self.cycles


def perturbed_stream(
    n_vector: int,
    scalar_probability: float,
    n_banks: int,
    rng: random.Random,
) -> List[int]:
    """A stride-1 vector stream with random scalar references mixed in."""
    if n_vector < 1:
        raise ValueError(f"n_vector must be >= 1, got {n_vector}")
    if not 0.0 <= scalar_probability <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {scalar_probability}")
    stream: List[int] = []
    address = 0
    for __ in range(n_vector):
        stream.append(address)
        address += 1
        if rng.random() < scalar_probability:
            stream.append(rng.randrange(10_000) * n_banks + rng.randrange(n_banks))
    return stream


def run_stream(memory: BankedMemory, stream: Iterable[int]) -> StreamResult:
    """Issue ``stream`` back-to-back; returns timing."""
    start_refs = memory.references
    start_stalls = memory.stall_cycles
    now = 0
    count = 0
    for address in stream:
        now = memory.reference(address, now)
        count += 1
    return StreamResult(
        references=count,
        cycles=now,
        stall_cycles=memory.stall_cycles - start_stalls,
    )
