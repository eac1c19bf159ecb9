"""Sampling distributions for fault schedules.

Section 3.1: "The designer must also have a good model of how often
various performance faults occur, and how long they last; both of these
are environment and component specific."  Injectors therefore take their
interarrival, duration and magnitude processes as pluggable
:class:`Distribution` objects rather than hard-coded laws.

All distributions draw from an explicitly passed ``random.Random`` so
fault schedules stay deterministic and independent of workload randomness
(seed each stream with :func:`repro.sim.derive_seed`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "Distribution",
    "Fixed",
    "Uniform",
    "Exponential",
]


class Distribution:
    """A sampling law over nonnegative reals."""

    def sample(self, rng: random.Random) -> float:
        """Draw one value using ``rng``."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean (``inf`` where undefined/heavy-tailed)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Fixed(Distribution):
    """Always returns ``value`` (deterministic schedules, e.g. GC periods)."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"value must be >= 0, got {self.value}")

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self):
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"need 0 <= low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with the given ``mean`` (memoryless interarrivals)."""

    mean_value: float

    def __post_init__(self):
        if self.mean_value <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean_value}")

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_value)

    def mean(self) -> float:
        return self.mean_value
