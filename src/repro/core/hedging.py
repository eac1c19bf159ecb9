"""Hedged (duplicated) task execution for slow-down failures.

Related work, Section 4: Shasha & Turek's slow-down tolerance "runs
transactions correctly in the presence of such failures, by simply
issuing new processes to do the work elsewhere, and reconciling properly
so as to avoid work replication."

:class:`HedgingScheduler` implements that idea for a generic task pool:
tasks execute pull-style, and once a worker goes idle with nothing left
in the queue it *duplicates* the longest-outstanding task that has been
running past the hedge threshold.  The first copy to finish wins; late
copies are reconciled (counted as wasted work, their results discarded).
This is the classic straggler mitigation that later systems (MapReduce
speculative execution, hedged RPCs) made standard practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional

from ..faults.model import ComponentStopped
from ..sim.resources import Store
from .pull import PullScheduler, ScheduleResult

__all__ = ["HedgeResult", "HedgingScheduler"]


@dataclass
class HedgeResult(ScheduleResult):
    """Outcome of a hedged schedule.

    ``assignments`` maps each task to the worker whose copy finished
    first, and ``finished_at`` is the last first-completion.
    """

    duplicates_launched: int = 0
    wasted_completions: int = 0


@dataclass
class _Outstanding:
    task: Any
    started: float
    copies: int = 1


class HedgingScheduler(PullScheduler):
    """Pull scheduling plus speculative duplicates on the tail.

    :meth:`run` and ``execute`` are :class:`PullScheduler`'s; the process
    returns a :class:`HedgeResult`.  A worker whose copy fails is retired.

    Parameters
    ----------
    hedge_after:
        Seconds a task may run before it becomes eligible for
        duplication.  ``None`` selects the adaptive rule: 2.5x the median
        duration of completed tasks (no hedging until three tasks have
        completed -- early durations are not yet informative).
    max_copies:
        Cap on simultaneous copies of one task (>= 2 to hedge at all).
    """

    def __init__(self, hedge_after: Optional[float] = None, max_copies: int = 2):
        if hedge_after is not None and hedge_after <= 0:
            raise ValueError(f"hedge_after must be > 0, got {hedge_after}")
        if max_copies < 2:
            raise ValueError(f"max_copies must be >= 2, got {max_copies}")
        super().__init__()
        self.hedge_after = hedge_after
        self.max_copies = max_copies

    def _go(self, sim, tasks, n_workers, execute):
        start = sim.now
        queue = Store(sim)
        for index, task in enumerate(tasks):
            queue.put((index, task))
        result = HedgeResult(n_tasks=len(tasks), started_at=start, finished_at=start)
        outstanding: Dict[int, _Outstanding] = {}
        completed_durations: List[float] = []
        all_done = sim.event()

        def threshold() -> Optional[float]:
            if self.hedge_after is not None:
                return self.hedge_after
            if len(completed_durations) < 3:
                return None
            return 2.5 * median(completed_durations)

        def record_completion(index: int, worker_index: int, started: float) -> None:
            if index in result.assignments:
                result.wasted_completions += 1
                return
            result.assignments[index] = worker_index
            completed_durations.append(sim.now - started)
            outstanding.pop(index, None)
            if len(result.assignments) == len(tasks) and not all_done.triggered:
                result.finished_at = sim.now
                all_done.succeed(None)

        def hedge_candidate():
            """(index, wait) -- a duplicable task now, or how long until."""
            limit = threshold()
            if limit is None:
                return None, None
            best_index, best_wait = None, None
            for index, info in outstanding.items():
                if info.copies >= self.max_copies:
                    continue
                wait = (info.started + limit) - sim.now
                if wait <= 0:
                    return index, 0.0
                if best_wait is None or wait < best_wait:
                    best_index, best_wait = index, wait
            return best_index, best_wait

        def launch_copy(worker_index: int, index: int, info: _Outstanding):
            try:
                yield execute(worker_index, info.task)
            except (ComponentStopped, TimeoutError):
                result.retired_workers += 1
                info.copies -= 1
                if info.copies <= 0 and index not in result.assignments:
                    outstanding.pop(index, None)
                    queue.put((index, info.task))
                    result.requeues += 1
                return "failed"
            record_completion(index, worker_index, info.started)
            return "done"

        def worker(worker_index: int):
            while not all_done.triggered:
                if len(queue) > 0:
                    item = yield queue.get()
                    index, task = item
                    if index in result.assignments:
                        continue  # stale requeue
                    info = _Outstanding(task=task, started=sim.now)
                    outstanding[index] = info
                    status = yield sim.process(launch_copy(worker_index, index, info))
                    if status == "failed":
                        return  # retire the failing worker
                    continue
                # Queue empty: consider hedging the straggler tail.
                index, wait = hedge_candidate()
                if index is not None and wait == 0.0:
                    info = outstanding[index]
                    info.copies += 1
                    result.duplicates_launched += 1
                    status = yield sim.process(launch_copy(worker_index, index, info))
                    if status == "failed":
                        return
                    continue
                if not outstanding and len(queue) == 0:
                    return  # nothing left anywhere
                # Wait until the nearest task crosses the threshold, a
                # completion frees us, or everything finishes.
                waits = [all_done]
                if wait is not None:
                    waits.append(sim.timeout(min(wait, 1.0)))
                else:
                    waits.append(sim.timeout(1.0))
                yield sim.any_of(waits)

        workers = [sim.process(worker(w)) for w in range(n_workers)]
        # Finish on all_done rather than worker exit: a worker wedged on a
        # stalled component (the very fault hedging exists for) must not
        # hold the schedule hostage once every task has a winner.
        yield sim.any_of([all_done, sim.all_of(workers)])
        if len(result.assignments) < len(tasks):
            raise RuntimeError(
                f"only {len(result.assignments)}/{len(tasks)} tasks completed: "
                "all workers failed or stalled with work remaining"
            )
        return result
