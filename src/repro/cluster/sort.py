"""NOW-Sort-style parallel external sort (E11).

The workload behind "Searching for the Sorting Record": every node reads
its share of records from its local disk, sorts them (CPU), and writes
runs back out.  The global sort completes when the *last* node finishes
-- the barrier that turns one CPU-hogged node into a global factor-of-two
slowdown under static partitioning.

The sort is expressed as chunk tasks so every scheduling policy in
:mod:`repro.core` applies:

* ``static`` -- equal pre-partitioning (the fail-stop illusion);
* ``proportional`` -- pre-partitioning by currently gauged node rates;
* ``pull`` -- River-style pulling (:class:`~repro.core.pull.PullScheduler`);
* ``hedged`` -- pull plus straggler duplication
  (:class:`~repro.core.hedging.HedgingScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.allocation import apportion
from ..core.hedging import HedgingScheduler
from ..core.pull import PullScheduler
from ..sim.engine import Process, Simulator
from ..storage.disk import Disk, DiskParams
from ..storage.geometry import uniform_geometry
from .node import Node

__all__ = ["SortConfig", "SortResult", "run_sort", "make_sort_cluster"]

SORT_MODES = ("static", "proportional", "pull", "hedged")


@dataclass(frozen=True)
class SortConfig:
    """Parameters of one parallel sort run."""

    total_mb: float = 800.0
    chunk_mb: float = 8.0

    def __post_init__(self):
        if self.total_mb <= 0 or self.chunk_mb <= 0:
            raise ValueError("sizes must be > 0")
        if self.chunk_mb > self.total_mb:
            raise ValueError("chunk larger than the dataset")

    @property
    def n_chunks(self) -> int:
        """Number of chunk tasks (remainder folded into the last chunk)."""
        return max(1, int(self.total_mb // self.chunk_mb))


@dataclass
class SortResult:
    """Outcome of a parallel sort."""

    mode: str
    total_mb: float
    started_at: float
    finished_at: float
    chunks_per_node: List[int]
    duplicates: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock (virtual) seconds for the whole sort."""
        return self.finished_at - self.started_at

    @property
    def throughput_mb_s(self) -> float:
        """Sorted MB/s."""
        if self.duration <= 0:
            return float("inf")
        return self.total_mb / self.duration


def make_sort_cluster(
    sim: Simulator,
    n_nodes: int = 8,
    cpu_rate: float = 10.0,
    disk_rate: float = 200.0,
    memory_mb: float = 512.0,
) -> List[Node]:
    """Nodes with fast local disks so the sort is CPU-bound (NOW-Sort)."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    params = DiskParams(rpm=10_000, avg_seek=0.005, block_size_mb=1.0)
    nodes = []
    for i in range(n_nodes):
        disk = Disk(
            sim,
            f"n{i}.disk",
            geometry=uniform_geometry(1_000_000, disk_rate),
            params=params,
        )
        nodes.append(Node(sim, f"n{i}", cpu_rate=cpu_rate, memory_mb=memory_mb, disk=disk))
    return nodes


def _chunk_executor(sim: Simulator, nodes: Sequence[Node]):
    """Build execute(worker, chunk_mb): read -> sort -> write on a node."""
    read_ptr: Dict[int, int] = {}
    write_ptr: Dict[int, int] = {}

    def execute(worker_index: int, chunk_mb: float):
        node = nodes[worker_index]

        def go():
            blocks = max(1, round(chunk_mb / node.disk.params.block_size_mb))
            r = read_ptr.get(worker_index, 0)
            yield node.disk.read(r, blocks)
            read_ptr[worker_index] = r + blocks
            yield node.compute(chunk_mb)
            w = write_ptr.get(worker_index, 500_000)
            yield node.disk.write(w, blocks)
            write_ptr[worker_index] = w + blocks
            return None

        return sim.process(go())

    return execute


def run_sort(
    sim: Simulator,
    nodes: Sequence[Node],
    config: SortConfig = SortConfig(),
    mode: str = "static",
    hedge_after: Optional[float] = None,
) -> Process:
    """Run one parallel sort; the process returns a :class:`SortResult`."""
    if mode not in SORT_MODES:
        raise ValueError(f"mode must be one of {SORT_MODES}, got {mode!r}")
    if not nodes:
        raise ValueError("need at least one node")
    for node in nodes:
        if node.disk is None:
            raise ValueError(f"node {node.name} has no local disk")

    chunks = [config.chunk_mb] * config.n_chunks
    # Fold the remainder into the final chunk so total_mb is exact.
    chunks[-1] += config.total_mb - config.chunk_mb * config.n_chunks
    execute = _chunk_executor(sim, nodes)

    def static_shares() -> List[int]:
        if mode == "static":
            return apportion(len(chunks), [1.0] * len(nodes))
        rates = [n.cpu.effective_rate for n in nodes]
        return apportion(len(chunks), rates)

    def go():
        start = sim.now
        if mode in ("static", "proportional"):
            shares = static_shares()

            def node_worker(index: int, count: int):
                offset = sum(shares[:index])
                for k in range(count):
                    yield execute(index, chunks[offset + k])

            workers = [
                sim.process(node_worker(i, count))
                for i, count in enumerate(shares)
                if count > 0
            ]
            yield sim.all_of(workers)
            return SortResult(
                mode=mode,
                total_mb=config.total_mb,
                started_at=start,
                finished_at=sim.now,
                chunks_per_node=shares,
            )
        if mode == "pull":
            scheduler = PullScheduler()
        else:
            scheduler = HedgingScheduler(hedge_after=hedge_after)
        result = yield scheduler.run(sim, chunks, len(nodes), execute)
        return SortResult(
            mode=mode,
            total_mb=config.total_mb,
            started_at=start,
            finished_at=result.finished_at,
            chunks_per_node=result.tasks_per_worker(len(nodes)),
            duplicates=result.duplicates_launched if mode == "hedged" else 0,
        )

    return sim.process(go())
