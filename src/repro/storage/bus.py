"""SCSI bus with timeout/parity errors and chain-wide resets.

Section 2.1.2 ("Timeouts"), from Talagala & Patterson's 400-disk farm
study: "SCSI timeouts and parity errors make up 49% of all errors; when
network errors are removed, this figure rises to 87% of all error
instances" -- roughly two per day -- and "these errors often lead to SCSI
bus resets, affecting the performance of all disks on the degraded SCSI
chain."

:class:`ScsiBus` groups disks into a chain and runs an error process:
errors arrive randomly, are classified by a configurable mix, and the
SCSI-class errors (timeout/parity) stall *every* disk on the chain for
the reset duration.  This is the canonical *correlated* performance
fault: per-disk redundancy does not help when the whole chain stutters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.component import CompositeComponent
from ..faults.distributions import Distribution, Exponential, Fixed
from ..faults.spec import PerformanceSpec
from ..sim.engine import Simulator
from .disk import Disk

__all__ = ["ErrorMix", "BusError", "ScsiBus", "TALAGALA_MIX"]


@dataclass(frozen=True)
class ErrorMix:
    """Relative weights of error classes on a storage farm.

    Only ``timeout`` and ``parity`` errors trigger bus resets; the others
    exist so experiments can reproduce the study's *accounting* claims
    (what fraction of all errors are SCSI-class).
    """

    timeout: float = 0.30
    parity: float = 0.19
    network: float = 0.44
    other: float = 0.07

    def __post_init__(self):
        weights = (self.timeout, self.parity, self.network, self.other)
        if any(w < 0 for w in weights):
            raise ValueError("error weights must be >= 0")
        if sum(weights) <= 0:
            raise ValueError("error weights must not all be zero")

    def classify(self, rng: random.Random) -> str:
        """Draw an error class according to the weights."""
        classes = ("timeout", "parity", "network", "other")
        weights = (self.timeout, self.parity, self.network, self.other)
        return rng.choices(classes, weights=weights, k=1)[0]

    @property
    def scsi_fraction(self) -> float:
        """Fraction of all errors that are SCSI timeouts/parity."""
        total = self.timeout + self.parity + self.network + self.other
        return (self.timeout + self.parity) / total

    @property
    def scsi_fraction_excluding_network(self) -> float:
        """Same, with network errors removed from the denominator."""
        total = self.timeout + self.parity + self.other
        return (self.timeout + self.parity) / total


#: Mix calibrated to Talagala & Patterson: SCSI-class errors are 49% of all
#: errors and 87% once network errors are excluded.
TALAGALA_MIX = ErrorMix(timeout=0.30, parity=0.19, network=0.44, other=0.07)


@dataclass(frozen=True)
class BusError:
    """One logged error instance on the chain."""

    time: float
    kind: str
    reset: bool
    duration: float = 0.0


class ScsiBus(CompositeComponent):
    """A SCSI chain: disks plus a shared error/reset process.

    Parameters
    ----------
    error_interarrival:
        Distribution of gaps between error instances on this chain.  The
        study observed ~2/day per farm; per-chain rates scale with chain
        count.
    reset_duration:
        Distribution of the stall imposed on every disk during a reset.
    mix:
        Error classification weights (default: the study's observed mix).
    """

    substrate = "storage"

    def __init__(
        self,
        sim: Simulator,
        disks: Sequence[Disk],
        error_interarrival: Distribution = Exponential(43_200.0),  # 2/day in seconds
        reset_duration: Distribution = Fixed(2.0),
        mix: ErrorMix = TALAGALA_MIX,
        rng: Optional[random.Random] = None,
        name: str = "",
    ):
        if not disks:
            raise ValueError("a chain needs at least one disk")
        self.sim = sim
        self.disks: List[Disk] = list(disks)
        self._init_component(
            sim,
            name or f"scsi({','.join(d.name for d in self.disks)})",
            self.disks,
            PerformanceSpec(sum(d.spec.nominal_rate for d in self.disks)),
        )
        self.error_interarrival = error_interarrival
        self.reset_duration = reset_duration
        self.mix = mix
        self.rng = rng or random.Random(0)
        self.errors: List[BusError] = []
        self._source = f"scsi-reset@{id(self):x}"
        self._running = False

    def start(self) -> None:
        """Begin the error process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._error_loop())

    def _error_loop(self):
        while self._running:
            yield self.sim.timeout(self.error_interarrival.sample(self.rng))
            if not self._running:
                return
            kind = self.mix.classify(self.rng)
            resets = kind in ("timeout", "parity")
            duration = self.reset_duration.sample(self.rng) if resets else 0.0
            self.errors.append(BusError(self.sim.now, kind, resets, duration))
            if not resets:
                continue
            for disk in self.disks:
                if not disk.stopped:
                    disk.set_slowdown(self._source, 0.0)
            yield self.sim.timeout(duration)
            for disk in self.disks:
                disk.clear_slowdown(self._source)

    def stop(self, cause: Optional[str] = None) -> None:
        """Without ``cause``: stop generating new errors (an in-progress
        reset completes), the historical control-surface call.  With a
        ``cause`` (the Component fail-stop path, e.g. a ``FailStopAt``
        injector attached by name): also fail-stop every disk on the chain.
        """
        self._running = False
        if cause is not None:
            CompositeComponent.stop(self, cause)

    # -- accounting views ------------------------------------------------------

    def error_counts(self) -> Dict[str, int]:
        """Errors seen so far, by class."""
        counts: Dict[str, int] = {}
        for err in self.errors:
            counts[err.kind] = counts.get(err.kind, 0) + 1
        return counts

    def scsi_error_fraction(self, exclude_network: bool = False) -> float:
        """Observed fraction of errors that are SCSI timeouts/parity."""
        relevant = [e for e in self.errors if not (exclude_network and e.kind == "network")]
        if not relevant:
            return 0.0
        scsi = sum(1 for e in relevant if e.kind in ("timeout", "parity"))
        return scsi / len(relevant)

    @property
    def reset_count(self) -> int:
        """Number of chain resets so far."""
        return sum(1 for e in self.errors if e.reset)
