"""Pull-based work distribution (the River principle).

Related work, Section 4: River "provides mechanisms to enable consistent
and high performance in spite of erratic performance in underlying
components" -- the key mechanism being that consumers *pull* work at the
rate they can actually sustain, so no gauge or spec is needed at all:
fast components simply come back for more, and a stalled component
strands at most its in-flight tasks.

:class:`PullScheduler` is the one pull loop.  The adaptive striping
policy in :mod:`repro.storage.striping` and the ``pull`` mode of the
parallel sort in :mod:`repro.cluster.sort` run on it, and
:class:`~repro.core.hedging.HedgingScheduler` extends it with duplicates
(its :class:`~repro.core.hedging.HedgeResult` is a
:class:`ScheduleResult`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from ..faults.model import ComponentStopped
from ..sim.engine import Process, Simulator
from ..sim.resources import Store

__all__ = ["ScheduleResult", "PullScheduler"]


@dataclass
class ScheduleResult:
    """Outcome of scheduling a task set over a worker pool."""

    n_tasks: int
    started_at: float
    finished_at: float
    #: task index -> worker index that completed it.
    assignments: Dict[int, int] = field(default_factory=dict)
    #: tasks handed back after a worker failure.
    requeues: int = 0
    #: workers retired after failing a task.
    retired_workers: int = 0

    @property
    def duration(self) -> float:
        """Virtual seconds from start to last completion."""
        return self.finished_at - self.started_at

    def tasks_per_worker(self, n_workers: int) -> List[int]:
        """Completed-task counts indexed by worker."""
        counts = [0] * n_workers
        for worker in self.assignments.values():
            counts[worker] += 1
        return counts


class PullScheduler:
    """Workers pull tasks from a shared queue as they go idle.

    ``execute(worker_index, task)`` must return a simulation event (or
    process) that fires when the task is done on that worker.  If the
    event fails with ``ComponentStopped`` or the watchdog's
    ``TimeoutError``, the task is requeued for the surviving workers and
    the failing worker is retired; any other exception propagates.

    ``inflight_per_worker`` claims ahead of completion; 1 (default) is
    maximally adaptive.
    """

    def __init__(self, inflight_per_worker: int = 1):
        if inflight_per_worker < 1:
            raise ValueError(f"inflight_per_worker must be >= 1, got {inflight_per_worker}")
        self.inflight_per_worker = inflight_per_worker

    def run(
        self,
        sim: Simulator,
        tasks: Sequence[Any],
        n_workers: int,
        execute: Callable[[int, Any], Any],
    ) -> Process:
        """Schedule ``tasks`` over ``n_workers``; returns a process whose
        value is a :class:`ScheduleResult`."""
        if not tasks:
            raise ValueError("no tasks to schedule")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        return sim.process(self._go(sim, list(tasks), n_workers, execute))

    def _go(self, sim, tasks, n_workers, execute):
        start = sim.now
        queue = Store(sim)
        for index, task in enumerate(tasks):
            queue.put((index, task))
        result = ScheduleResult(n_tasks=len(tasks), started_at=start, finished_at=start)
        total_slots = n_workers * self.inflight_per_worker

        def finish_check():
            if len(result.assignments) == len(tasks):
                for __ in range(total_slots):
                    queue.put(None)

        def worker(worker_index: int):
            while True:
                item = yield queue.get()
                if item is None:
                    return
                index, task = item
                try:
                    yield execute(worker_index, task)
                except (ComponentStopped, TimeoutError):
                    queue.put((index, task))
                    result.requeues += 1
                    result.retired_workers += 1
                    return
                result.assignments[index] = worker_index
                finish_check()

        slots = [
            sim.process(worker(w))
            for w in range(n_workers)
            for __ in range(self.inflight_per_worker)
        ]
        yield sim.all_of(slots)
        if len(result.assignments) < len(tasks):
            raise RuntimeError(
                f"only {len(result.assignments)}/{len(tasks)} tasks completed: "
                "every worker failed with work remaining"
            )
        result.finished_at = sim.now
        return result
