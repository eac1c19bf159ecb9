"""Cache-aware, parallel orchestrator for the experiment suite.

``python -m repro.experiments.report`` regenerates 36 tables.  Each one
is a deterministic, independent simulation, which gives the suite two
cheap levers that :func:`run_suite` pulls together:

* **memoization** -- a :class:`~repro.analysis.cache.ResultCache` keyed
  on (experiment id, kwargs, source digest of the experiment's import
  closure) skips every experiment whose inputs haven't changed;
* **process parallelism** -- the cache misses fan out over a
  ``multiprocessing`` pool via
  :func:`~repro.analysis.parallel.parallel_sweep`, one experiment per
  worker task, shipped back as :meth:`Table.to_dict` payloads.  The
  sweep itself decides whether a pool can win: on a one-core machine
  (or when the first miss regenerates faster than pool overhead) the
  misses run in-process instead, so asking for workers never makes the
  report slower.

Output is deterministic at any worker count and any cache state: results
come back in suite order, and a cached table round-trips byte-identically
through :meth:`Table.to_dict`/``from_dict``, so the rendered report never
depends on *how* it was computed.

Experiments that expose their own ``workers=`` knob keep it; the runner
parallelizes *across* experiments and runs each one serially inside its
worker, which avoids nested pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.cache import ClosureScan, ResultCache
from ..analysis.parallel import parallel_sweep
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


def run_suite(
    experiments: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentRun]:
    """Regenerate experiments (default: all), in suite order.

    ``workers`` sizes the process pool for the cache misses (``None`` /
    ``0`` / ``1`` = serial in-process); ``cache=None`` disables
    memoization entirely.
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
        computed = parallel_sweep(misses, _timed_run, workers=workers)
        for key, (payload, seconds) in computed:
            table = Table.from_dict(payload)
            if cache is not None:
                cache.put(key, experiment_module(key), table, key=keys[key])
            runs[key] = ExperimentRun(key, table, cached=False, seconds=seconds)

    return [runs[key] for key in ids]
