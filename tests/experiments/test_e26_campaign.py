"""E26 shape: the campaign scorecard must tell the paper's story.

Correlated stutters are where fail-stop thinking loses: there is no
fast mirror to fail over to, so timeout duplicates only deepen the hole.
Fail-stop-only scenarios are where it was right all along, and
stutter-awareness must cost nothing there.
"""

import pytest

from repro.experiments import e26_campaign

pytestmark = pytest.mark.campaign


@pytest.fixture(scope="module")
def table():
    return e26_campaign.run(scenarios_per_family=2, n_requests=160)


def _cells(table):
    return {
        (w, f, p): {"mean": mean, "p99": p99, "slo": slo, "waste": waste}
        for w, f, p, mean, p99, slo, waste in zip(
            table.column("workload"), table.column("family"),
            table.column("policy"), table.column("mean_s"),
            table.column("p99_s"), table.column("slo_viol_pct"),
            table.column("waste_pct"),
        )
    }


class TestE26Shape:
    def test_stutter_aware_beats_fixed_timeout_under_correlated(self, table):
        cells = _cells(table)
        for workload in ("raid10", "dht"):
            aware = cells[(workload, "correlated", "stutter-aware")]
            fixed = cells[(workload, "correlated", "fixed-timeout")]
            assert aware["mean"] < 0.7 * fixed["mean"]
            assert aware["p99"] < fixed["p99"]
            assert aware["slo"] < fixed["slo"]

    def test_stutter_aware_wastes_nothing_fixed_wastes_plenty(self, table):
        cells = _cells(table)
        for workload in ("raid10", "dht"):
            assert cells[(workload, "correlated", "stutter-aware")]["waste"] == 0.0
            assert cells[(workload, "correlated", "fixed-timeout")]["waste"] > 5.0

    def test_policies_match_under_pure_failstop(self, table):
        cells = _cells(table)
        for workload in ("raid10", "dht"):
            fixed = cells[(workload, "failstop", "fixed-timeout")]["mean"]
            aware = cells[(workload, "failstop", "stutter-aware")]["mean"]
            assert abs(aware - fixed) <= 0.25 * fixed

    def test_oracle_certifies_every_row(self, table):
        assert table.column("oracle") == ["ok"] * len(table)

    def test_full_grid_present(self, table):
        assert len(table) == 2 * 3 * 5  # workloads x families x policies

    def test_digest_pinned_across_the_spec_migration(self, table):
        # Every full-precision cell, its statistics from
        # LatencySummary.of; the spec-file bundle must reproduce the
        # campaign byte-for-byte (see tests/scenario/test_bundle_migration.py
        # for the draw-level identity this rests on).
        assert table.digest() == (
            "356e64c167de8a9bd5d5a89c0b4b16b64addec86be85b9e915eee6a16b409bab"
        )
