"""The three striping policies of the paper's Section 3.2 example.

The workload: write ``D`` data blocks in parallel across ``N`` mirror
pairs (RAID-10).  The three scenarios, in order of increasingly realistic
performance assumptions:

1. :class:`UniformStriping` -- the *fail-stop illusion*: each pair gets
   ``D / N`` blocks.  If one pair writes at ``b < B``, finish time tracks
   the slow pair and perceived throughput collapses to ``N * b``.
2. :class:`ProportionalStriping` -- performance faults assumed *static*:
   gauge each pair once "at installation" and stripe proportionally to
   the measured ratios.  Under a purely static skew, throughput rises to
   ``(N - 1) * B + b``; but "if any disk does not perform as expected
   over time, performance again tracks the slow disk."
3. :class:`AdaptiveStriping` -- general performance faults: continually
   gauge and write "blocks across mirror-pairs in proportion to their
   current rates", implemented as pull-based assignment.  The cost the
   paper highlights is bookkeeping: "the controller must record where
   each block is written", so the result carries the per-block map (the
   A4 ablation measures its size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.allocation import apportion
from ..core.pull import PullScheduler
from ..sim.engine import Process, Simulator
from .raid import Raid1Pair

__all__ = [
    "StripingResult",
    "StripingPolicy",
    "UniformStriping",
    "ProportionalStriping",
    "AdaptiveStriping",
]


@dataclass
class StripingResult:
    """Outcome of one D-block parallel write under a striping policy."""

    policy: str
    n_blocks: int
    block_size_mb: float
    started_at: float
    finished_at: float
    blocks_per_pair: List[int]
    #: block -> (pair_index, lba); populated only by policies that must
    #: keep per-block bookkeeping (the adaptive scenario).
    block_map: Dict[int, tuple] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock (virtual) seconds for the whole write."""
        return self.finished_at - self.started_at

    @property
    def throughput_mb_s(self) -> float:
        """Perceived write throughput in MB/s."""
        if self.duration <= 0:
            return float("inf")
        return self.n_blocks * self.block_size_mb / self.duration

    @property
    def bookkeeping_entries(self) -> int:
        """Size of the location map the controller had to record."""
        return len(self.block_map)


class StripingPolicy:
    """Base: writes ``n_blocks`` across mirror pairs, returns a result."""

    name = "base"

    def run(
        self,
        sim: Simulator,
        pairs: Sequence[Raid1Pair],
        n_blocks: int,
        block_value: Optional[int] = None,
    ) -> Process:
        """Start the parallel write; the process returns a StripingResult."""
        if not pairs:
            raise ValueError("need at least one mirror pair")
        if n_blocks <= 0:
            raise ValueError(f"n_blocks must be > 0, got {n_blocks}")
        return sim.process(self._go(sim, list(pairs), n_blocks, block_value))

    def _go(self, sim, pairs, n_blocks, block_value):
        raise NotImplementedError
        yield  # pragma: no cover

    @staticmethod
    def _block_size_mb(pairs: Sequence[Raid1Pair]) -> float:
        return pairs[0].primary.params.block_size_mb


class UniformStriping(StripingPolicy):
    """Scenario 1: fail-stop assumptions, equal shares for every pair.

    This is the fixed-share writer: pair *i* writes its
    :func:`~repro.core.allocation.apportion` share of the blocks by
    :meth:`_weights`, sequentially from lba 0.  Equal weights give the
    first pairs the extra blocks.
    """

    name = "uniform"

    def _weights(self, pairs: Sequence[Raid1Pair]) -> List[float]:
        return [1.0] * len(pairs)

    def _go(self, sim, pairs, n_blocks, block_value):
        start = sim.now
        shares = apportion(n_blocks, self._weights(pairs))

        def write_share(pair: Raid1Pair, count: int):
            for lba in range(count):
                yield pair.write(lba, 1, value=block_value)

        writers = [
            sim.process(write_share(pair, count))
            for pair, count in zip(pairs, shares)
            if count > 0
        ]
        yield sim.all_of(writers)
        return StripingResult(
            policy=self.name,
            n_blocks=n_blocks,
            block_size_mb=self._block_size_mb(pairs),
            started_at=start,
            finished_at=sim.now,
            blocks_per_pair=shares,
        )


class ProportionalStriping(UniformStriping):
    """Scenario 2: gauge once at installation, stripe by the ratios.

    The fixed-share writer of :class:`UniformStriping`, weighted by the
    gauged rates.  ``gauge_rates`` may be passed explicitly (e.g. from a
    probe run); by default the policy reads each pair's *current*
    effective streaming rate, which models gauging at installation time
    -- before any post-installation rate change.
    """

    name = "proportional"

    def __init__(self, gauge_rates: Optional[Sequence[float]] = None):
        self.gauge_rates = list(gauge_rates) if gauge_rates is not None else None

    @staticmethod
    def gauge(pair: Raid1Pair) -> float:
        """A pair's observable streaming write rate right now (MB/s)."""
        live = pair.live_disks
        if not live:
            return 0.0
        return min(d.sequential_bandwidth() * d.effective_rate for d in live)

    def _weights(self, pairs: Sequence[Raid1Pair]) -> List[float]:
        rates = self.gauge_rates or [self.gauge(p) for p in pairs]
        if len(rates) != len(pairs):
            raise ValueError(f"got {len(rates)} gauge rates for {len(pairs)} pairs")
        return rates


class AdaptiveStriping(StripingPolicy):
    """Scenario 3: pull-based assignment tracks *current* rates.

    :class:`~repro.core.pull.PullScheduler` runs the pairs as workers
    that pull the next unwritten block as they go idle; fast pairs
    naturally absorb more blocks, and a pair that stalls mid-run simply
    stops pulling.  A block goes to its pair's next lba.  The price is
    the per-block location map the controller must maintain.

    ``inflight_per_pair`` controls how many blocks a pair claims ahead
    of completion; 1 is maximally adaptive (at most one block stranded on
    a stalling pair).
    """

    name = "adaptive"

    def __init__(self, inflight_per_pair: int = 1):
        if inflight_per_pair < 1:
            raise ValueError(f"inflight_per_pair must be >= 1, got {inflight_per_pair}")
        self.inflight_per_pair = inflight_per_pair

    def _go(self, sim, pairs, n_blocks, block_value):
        start = sim.now
        next_lba = [0] * len(pairs)  # shared across a pair's in-flight slots
        lba_of: Dict[int, int] = {}  # block -> lba of its latest attempt

        def execute(index: int, block: int):
            lba = lba_of[block] = next_lba[index]
            next_lba[index] += 1
            return pairs[index].write(lba, 1, value=block_value)

        scheduler = PullScheduler(self.inflight_per_pair)
        result = yield scheduler.run(sim, range(n_blocks), len(pairs), execute)
        return StripingResult(
            policy=self.name,
            n_blocks=n_blocks,
            block_size_mb=self._block_size_mb(pairs),
            started_at=start,
            finished_at=result.finished_at,
            blocks_per_pair=result.tasks_per_worker(len(pairs)),
            block_map={
                block: (index, lba_of[block])
                for block, index in result.assignments.items()
            },
        )
