"""E28 shape: the generative sweep certifies the machinery, not a scenario.

Every row must be oracle-clean on both engines, the discrete and hybrid
sweeps must each carry a replay-stable digest, and the per-policy
rollups must cover every scenario the sweep generated -- the table's
claim is that the thesis holds across machine-generated shapes, so a
silently dropped scenario would be a lie of omission.
"""

import pytest

from repro.experiments import e28_generative

pytestmark = pytest.mark.campaign

COUNT = 8


@pytest.fixture(scope="module")
def table():
    return e28_generative.run(count=COUNT, verify_determinism=False)


def _rows(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


class TestE28Shape:
    def test_both_engines_present(self, table):
        assert {r["engine"] for r in _rows(table)} == {"discrete", "hybrid"}

    def test_oracle_certifies_every_row(self, table):
        assert table.column("oracle") == ["ok"] * len(table)

    def test_every_scenario_is_accounted_for_per_engine(self, table):
        for engine in ("discrete", "hybrid"):
            rows = [r for r in _rows(table) if r["engine"] == engine]
            assert sum(r["scenarios"] for r in rows) == COUNT

    def test_engine_sweeps_carry_one_digest_each(self, table):
        for engine in ("discrete", "hybrid"):
            digests = {r["sweep_digest"] for r in _rows(table)
                       if r["engine"] == engine}
            assert len(digests) == 1
            assert all(len(d) == 12 for d in digests)

    def test_hybrid_rows_ran_hybrid(self, table):
        # The default bounds stay inside the exact regime, so the hybrid
        # sweep should execute end-to-end without discrete fallbacks.
        hybrid = [r for r in _rows(table) if r["engine"] == "hybrid"]
        assert sum(r["hybrid_runs"] for r in hybrid) == COUNT

    def test_table_is_deterministic(self):
        first = e28_generative.run(count=4, engines=("discrete",),
                                   verify_determinism=False)
        second = e28_generative.run(count=4, engines=("discrete",),
                                    verify_determinism=False)
        assert first.render() == second.render()


class TestE28EngineAgreement:
    def test_a_hybrid_run_off_its_discrete_run_marks_the_hybrid_row(
            self, monkeypatch):
        # One spec's response times 1e-6 relative off its discrete run:
        # its hybrid row is flagged, and no other row.
        sweep = e28_generative.run_sweep
        planted = []

        def skewed(**kwargs):
            result = sweep(**kwargs)
            if kwargs["engine"] == "hybrid":
                __, outcome = result.runs[0]
                outcome.latencies = outcome.latencies * (1 + 1e-6)
                planted.append(outcome.policy)
            return result

        monkeypatch.setattr(e28_generative, "run_sweep", skewed)
        rows = _rows(e28_generative.run(count=4, verify_determinism=False))
        flagged = [(r["engine"], r["policy"], r["oracle"]) for r in rows
                   if r["oracle"] != "ok"]
        assert flagged == [("hybrid", planted[0], "VIOLATED(1)")]
