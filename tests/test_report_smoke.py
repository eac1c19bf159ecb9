"""CI smoke for the parallel report runner.

Runs the runner over a 2-experiment subset: the rendered output must be
byte-identical across worker counts and the plain serial path, come back
in suite order, and start no pool where there is only one core.
"""

import multiprocessing
import os

from repro.experiments import ALL_EXPERIMENTS, runner
from repro.experiments.report import generate
from repro.experiments.runner import run_suite

SUBSET = ["e05", "a5"]  # two of the quickest experiments in the suite


class TestRunner:
    def test_parallel_generate_matches_serial(self, monkeypatch):
        # Two cores, whatever the host has, so a real two-process pool runs.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = []
        real_run_pool = runner._run_pool

        def spy(ids, size):
            pools.append((list(ids), size))
            return real_run_pool(ids, size)

        monkeypatch.setattr(runner, "_run_pool", spy)
        parallel = generate(SUBSET, workers=2)
        assert pools == [(SUBSET, 2)]
        assert parallel == generate(SUBSET)

    def test_one_core_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def boom(ids, size):
            raise AssertionError("a pool must not start on one core")

        monkeypatch.setattr(runner, "_run_pool", boom)
        pooled = run_suite(SUBSET, workers=4)
        serial = run_suite(SUBSET)
        assert [r.table.render() for r in pooled] == [r.table.render() for r in serial]

    def test_pool_is_pinned_fork_first(self, monkeypatch):
        # Pinned rather than inherited from the platform default: fork
        # wherever the platform offers it, else spawn.
        methods = []
        real_get_context = multiprocessing.get_context

        def spy(method=None):
            methods.append(method)
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        [payload] = runner._run_pool(["e05"], 1)
        available = multiprocessing.get_all_start_methods()
        assert methods == ["fork" if "fork" in available else "spawn"]
        assert payload == runner._run_one("e05")

    def test_suite_order_is_preserved_for_any_subset(self):
        runs = run_suite(["a5", "e05"])
        assert [r.experiment for r in runs] == ["a5", "e05"]

    def test_pool_entry_point_ships_plain_payloads(self):
        # The worker side of the pool returns a to_dict payload, not a
        # pickled Table; the parent must rebuild it losslessly.
        from repro.analysis.report import Table

        payload = runner._run_one("e05")
        assert isinstance(payload, dict)
        rebuilt = Table.from_dict(payload)
        assert rebuilt.render() == ALL_EXPERIMENTS["e05"]().render()

    def test_unknown_id_raises_by_name(self):
        try:
            run_suite(["e99"])
        except KeyError as exc:
            assert "e99" in str(exc)
        else:
            raise AssertionError("expected KeyError")
