"""Parallel orchestrator for the experiment suite.

``python -m repro.experiments.report`` regenerates 36 tables.  Each one
is a deterministic, independent simulation, so :func:`run_suite` can fan
them out over a ``multiprocessing`` pool, one experiment per worker
task, shipped back as :meth:`Table.to_dict` payloads.  The pool is
capped at the core count and the number of experiments, and a pool of
one is no pool: the experiments then run in-process.

Output is deterministic at any worker count: results come back in suite
order, and a table round-trips byte-identically through
:meth:`Table.to_dict`/``from_dict``, so the rendered report never
depends on *how* it was computed.  Each experiment runs serially inside
its worker, which avoids nested pools.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..analysis.report import Table
from . import ALL_EXPERIMENTS

__all__ = ["ExperimentRun", "run_suite"]


@dataclass
class ExperimentRun:
    """One regenerated experiment and its table."""

    experiment: str
    table: Table


def _run_one(experiment: str) -> dict:
    """Pool entry point: regenerate one experiment as a payload.

    Ships the table as its :meth:`Table.to_dict` payload -- plain dicts
    and lists of scalars -- rather than a pickled ``Table``, so the
    result crosses the process boundary through a round-trip that is
    byte-stable, independent of how ``Table`` internals pickle.
    """
    return ALL_EXPERIMENTS[experiment]().to_dict()


def _run_pool(ids: List[str], size: int) -> List[dict]:
    """Regenerate ``ids`` on a ``size``-process pool, in suite order.

    The start method is pinned -- ``fork`` where the platform offers it,
    else ``spawn`` -- rather than inherited from the platform default,
    which Python has changed before (macOS in 3.8, Linux in 3.14).
    ``fork`` skips re-importing the package in every worker; the tables
    are the same either way, since every experiment seeds itself.
    """
    import multiprocessing

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    # chunksize=1 hands out one experiment at a time: runtimes are skewed
    # (e28 takes seconds, e05 milliseconds).
    with multiprocessing.get_context(method).Pool(processes=size) as pool:
        return pool.map(_run_one, ids, chunksize=1)


def run_suite(
    experiments: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
) -> List[ExperimentRun]:
    """Regenerate experiments (default: all), in suite order.

    ``workers`` sizes the process pool, capped at the core count and the
    number of experiments; a size of one or less (``None`` included)
    runs them serially in-process.
    """
    ids = list(experiments) if experiments is not None else list(ALL_EXPERIMENTS)
    unknown = [key for key in ids if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment ids: {', '.join(unknown)} "
            f"(known: {', '.join(ALL_EXPERIMENTS)})"
        )
    size = min(workers or 1, os.cpu_count() or 1, len(ids))
    if size > 1:
        payloads = _run_pool(ids, size)
    else:
        payloads = [_run_one(key) for key in ids]
    return [
        ExperimentRun(key, Table.from_dict(payload))
        for key, payload in zip(ids, payloads)
    ]
