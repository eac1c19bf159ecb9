"""Cache-aware, parallel orchestrator for the experiment suite.

``python -m repro.experiments.report`` regenerates 36 tables.  Each one
is a deterministic, independent simulation, which gives the suite two
cheap levers that :func:`run_suite` pulls together:

* **memoization** -- a :class:`~repro.analysis.cache.ResultCache` keyed
  on (experiment id, kwargs, source digest of the experiment's import
  closure) skips every experiment whose inputs haven't changed;
* **process parallelism** -- the cache misses fan out over a
  ``multiprocessing`` pool, one experiment per worker task, shipped back
  as :meth:`Table.to_dict` payloads.  The pool is capped at the core
  count and the number of misses, and a pool of one is no pool: the
  misses then run in-process.

Output is deterministic at any worker count and any cache state: results
come back in suite order, and a cached table round-trips byte-identically
through :meth:`Table.to_dict`/``from_dict``, so the rendered report never
depends on *how* it was computed.  Each experiment runs serially inside
its worker, which avoids nested pools.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.cache import ClosureScan, ResultCache
from ..analysis.report import Table
from . import ALL_EXPERIMENTS

__all__ = ["ExperimentRun", "run_suite", "experiment_module"]


@dataclass
class ExperimentRun:
    """One regenerated experiment: its table plus how it was obtained."""

    experiment: str
    table: Table
    cached: bool
    seconds: float  # compute time; 0.0 for a cache hit


def experiment_module(experiment: str) -> str:
    """The module whose import closure keys ``experiment``'s cache entry."""
    return ALL_EXPERIMENTS[experiment].__module__


def _timed_run(experiment: str) -> Tuple[dict, float]:
    """Pool entry point: regenerate one experiment, timing it in-worker.

    Ships the table as its :meth:`Table.to_dict` payload -- plain dicts
    and lists of scalars -- rather than a pickled ``Table``, so the
    result crosses the process boundary through the same round-trip the
    cache already guarantees byte-stable, independent of how ``Table``
    internals pickle.
    """
    start = time.perf_counter()
    table = ALL_EXPERIMENTS[experiment]()
    return table.to_dict(), time.perf_counter() - start


def _run_pool(misses: List[str], size: int) -> List[Tuple[dict, float]]:
    """Regenerate ``misses`` on a ``size``-process pool, in suite order.

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
        return pool.map(_timed_run, misses, chunksize=1)


def run_suite(
    experiments: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentRun]:
    """Regenerate experiments (default: all), in suite order.

    ``workers`` sizes the process pool for the cache misses, capped at
    the core count and the number of misses; a size of one or less
    (``None`` included) runs them serially in-process.  ``cache=None``
    disables memoization entirely.
    """
    ids = list(experiments) if experiments is not None else list(ALL_EXPERIMENTS)
    unknown = [key for key in ids if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment ids: {', '.join(unknown)} "
            f"(known: {', '.join(ALL_EXPERIMENTS)})"
        )

    runs: Dict[str, ExperimentRun] = {}
    misses: List[str] = []
    keys: Dict[str, str] = {}
    # One scan for the whole key loop: the experiments' import closures
    # overlap almost entirely, so sharing it keeps cache keying O(files)
    # instead of O(experiments x files).
    scan = ClosureScan()
    for key in ids:
        if cache is None:
            misses.append(key)
            continue
        cache_key = cache.key_for(key, experiment_module(key), scan=scan)
        keys[key] = cache_key
        table = cache.get(key, experiment_module(key), key=cache_key)
        if table is None:
            misses.append(key)
        else:
            runs[key] = ExperimentRun(key, table, cached=True, seconds=0.0)

    if misses:
        size = min(workers or 1, os.cpu_count() or 1, len(misses))
        if size > 1:
            computed = _run_pool(misses, size)
        else:
            computed = [_timed_run(key) for key in misses]
        for key, (payload, seconds) in zip(misses, computed):
            table = Table.from_dict(payload)
            if cache is not None:
                cache.put(key, experiment_module(key), table, key=keys[key])
            runs[key] = ExperimentRun(key, table, cached=False, seconds=seconds)

    return [runs[key] for key in ids]
