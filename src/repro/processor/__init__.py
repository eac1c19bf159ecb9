"""Processor and memory-system substrate (Sections 2.1.1, 2.2.1, 2.2.2).

* :mod:`repro.processor.cache` -- set-associative caches with fault
  masking (Viking/PA-RISC/Vax yield masking).
* :mod:`repro.processor.tlb` -- TLBs with deterministic or
  nondeterministic replacement (Bressoud & Schneider divergence).
* :mod:`repro.processor.predictor` -- next-field prediction and
  Kushman-style run-to-run nonmonotonicity.
* :mod:`repro.processor.paging` -- page-coloring effects on physically
  indexed caches (Chen & Bershad).
* :mod:`repro.processor.membank` -- scalar-vector memory bank
  interference (Raghavan & Hayes).
* :mod:`repro.processor.workloads` -- synthetic address traces.
"""

from .cache import Cache, CacheConfig, RunCost, run_trace
from .membank import BankedMemory, StreamResult, perturbed_stream, run_stream
from .paging import (
    PagedRunCost,
    color_conflicts,
    colored_placement,
    random_placement,
    run_working_set,
)
from .predictor import (
    NextFieldPredictor,
    SnippetResult,
    alternating_snippet,
    run_snippet,
)
from .tlb import Tlb, divergence
from .workloads import sequential_trace, strided_trace, working_set_loop, zipf_trace

__all__ = [
    "Cache",
    "CacheConfig",
    "RunCost",
    "run_trace",
    "Tlb",
    "divergence",
    "NextFieldPredictor",
    "SnippetResult",
    "alternating_snippet",
    "run_snippet",
    "random_placement",
    "colored_placement",
    "color_conflicts",
    "run_working_set",
    "PagedRunCost",
    "BankedMemory",
    "StreamResult",
    "perturbed_stream",
    "run_stream",
    "working_set_loop",
    "sequential_trace",
    "strided_trace",
    "zipf_trace",
]
