"""CI smoke for the cached, parallel report runner.

Runs the runner over a 2-experiment subset twice against a fresh cache:
the first pass must be all misses, the second all hits, and the rendered
output byte-identical across cache states, worker counts, and the plain
serial path.
"""

import multiprocessing
import os

from repro.analysis.cache import ResultCache
from repro.experiments import ALL_EXPERIMENTS, runner
from repro.experiments.report import generate
from repro.experiments.runner import run_suite

SUBSET = ["e05", "a5"]  # two of the quickest experiments in the suite


class TestRunnerCaching:
    def test_second_pass_is_all_hits_and_byte_identical(self, tmp_path):
        first_cache = ResultCache(tmp_path / "cache")
        first = run_suite(SUBSET, cache=first_cache)
        assert [r.cached for r in first] == [False, False]
        assert first_cache.misses == len(SUBSET)
        assert all(r.seconds > 0.0 for r in first)

        second_cache = ResultCache(tmp_path / "cache")
        second = run_suite(SUBSET, cache=second_cache)
        assert all(r.cached for r in second)
        assert second_cache.hits == len(SUBSET)
        assert second_cache.misses == 0
        assert [r.table.render() for r in first] == [r.table.render() for r in second]
        assert [r.table.digest() for r in first] == [r.table.digest() for r in second]

    def test_cached_generate_matches_serial_uncached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = generate(SUBSET, cache=cache)       # populates
        warm = generate(SUBSET, cache=ResultCache(tmp_path / "cache"))
        plain = generate(SUBSET)                   # serial, uncached
        assert cold == warm == plain

    def test_parallel_generate_matches_serial(self, tmp_path, monkeypatch):
        # Two cores, whatever the host has, so a real two-process pool runs.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = []
        real_run_pool = runner._run_pool

        def spy(misses, size):
            pools.append((list(misses), size))
            return real_run_pool(misses, size)

        monkeypatch.setattr(runner, "_run_pool", spy)
        parallel = generate(SUBSET, workers=2, cache=ResultCache(tmp_path / "c2"))
        assert pools == [(SUBSET, 2)]
        assert parallel == generate(SUBSET)

    def test_one_core_never_starts_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def boom(misses, size):
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
        [(payload, _)] = runner._run_pool(["e05"], 1)
        available = multiprocessing.get_all_start_methods()
        assert methods == ["fork" if "fork" in available else "spawn"]
        assert payload == runner._timed_run("e05")[0]

    def test_suite_order_is_preserved_for_any_subset(self):
        runs = run_suite(["a5", "e05"])
        assert [r.experiment for r in runs] == ["a5", "e05"]

    def test_pool_entry_point_ships_plain_payloads(self):
        # The worker side of the pool returns a to_dict payload, not a
        # pickled Table; the parent must rebuild it losslessly.
        from repro.analysis.report import Table
        from repro.experiments.runner import _timed_run

        payload, seconds = _timed_run("e05")
        assert isinstance(payload, dict)
        assert seconds > 0.0
        rebuilt = Table.from_dict(payload)
        assert rebuilt.render() == ALL_EXPERIMENTS["e05"]().render()

    def test_unknown_id_raises_by_name(self):
        try:
            run_suite(["e99"])
        except KeyError as exc:
            assert "e99" in str(exc)
        else:
            raise AssertionError("expected KeyError")

    def test_runner_covers_every_experiment_id(self):
        # Guards against an experiment added to ALL_EXPERIMENTS but
        # keyed by a module the cache cannot resolve.
        from repro.experiments.runner import experiment_module

        for key in ALL_EXPERIMENTS:
            assert experiment_module(key).startswith("repro.experiments.")
