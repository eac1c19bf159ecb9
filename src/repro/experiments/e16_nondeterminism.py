"""E16: run-to-run nondeterminism on one processor (Kushman).

Section 2.1.1: "Simple code snippets are shown to exhibit
non-deterministic performance -- a program, executed twice on the same
processor under identical conditions, has run times that vary by up to
a factor of three."

The model: a constant-dispatch snippet through a sticky next-field
predictor whose initial table state is whatever the previous workload
left behind (random per run).  Lucky initial state: every dispatch
predicted.  Unlucky: every dispatch mispredicted, forever.  Nothing
in the program differs between runs.

Each run is an *independent* trial: its predictor state is seeded per
run (:func:`~repro.sim.random.derive_seed`) rather than drawn from one
shared master stream, so runs can execute in any order and still render
byte-identically.
"""

from __future__ import annotations

import random

from ..analysis.report import Table
from ..processor.predictor import NextFieldPredictor, run_snippet
from ..sim.random import derive_seed

__all__ = ["run"]


def _one_run(
    run_index: int,
    n_dispatches: int,
    mispredict_penalty: int,
    target_space: int,
    seed: int,
) -> int:
    """Cycle count of one benchmark repetition (independent sweep point)."""
    snippet = [(0, 5)] * n_dispatches  # the same program, every run
    predictor = NextFieldPredictor(
        4,
        random.Random(derive_seed(seed, f"e16/run/{run_index}")),
        update="sticky",
        target_space=target_space,
    )
    result = run_snippet(
        predictor, snippet, base_cycles=1, mispredict_penalty=mispredict_penalty
    )
    return result.cycles


def run(
    n_runs: int = 50,
    n_dispatches: int = 2000,
    mispredict_penalty: int = 2,
    target_space: int = 8,
    seed: int = 19,
) -> Table:
    """Regenerate the E16 table: run-time distribution across runs."""
    runtimes = [
        _one_run(i, n_dispatches, mispredict_penalty, target_space, seed)
        for i in range(n_runs)
    ]
    fast = min(runtimes)
    slow = max(runtimes)
    slow_runs = sum(1 for r in runtimes if r == slow)
    table = Table(
        f"E16: one program, {n_runs} runs, 'identical conditions' "
        "(sticky next-field predictor, random initial state)",
        ["statistic", "value"],
        note="paper: run times vary by up to a factor of three "
        "(runs reseeded per-run for parallel execution)",
    )
    table.add_row("fastest run (cycles)", float(fast))
    table.add_row("slowest run (cycles)", float(slow))
    table.add_row("slow/fast ratio", slow / fast)
    table.add_row("slow runs out of all", float(slow_runs))
    table.add_row("distinct runtimes", float(len(set(runtimes))))
    return table
