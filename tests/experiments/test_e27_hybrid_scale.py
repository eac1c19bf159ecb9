"""E27 shape: the hybrid engine must certify itself inside the table.

The experiment's whole claim is "the trade is free": every overlap row
must say ``exact`` against the discrete engine, every scale row must
replay digest-identical, and the oracle must audit every run.  A reduced
grid keeps this in the fast tier; the full-size table is exercised by
the report pipeline and the hybrid perf suite.
"""

import pytest

from repro.experiments import e27_hybrid_scale

pytestmark = pytest.mark.hybrid


@pytest.fixture(scope="module")
def table():
    return e27_hybrid_scale.run(
        overlap_requests=1200,
        scale_requests=40_000,
        policies=("fixed-timeout", "stutter-aware"),
    )


def _rows(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


class TestE27Shape:
    def test_full_grid_present(self, table):
        # (workloads x policies + saturated workload x timer-free
        # policies) x (discrete, hybrid-overlap, hybrid-scale)
        assert len(table) == (2 * 2 + 1 * 2) * 3

    def test_every_overlap_row_is_exact(self, table):
        checks = [r["check"] for r in _rows(table) if r["engine"] == "hybrid"
                  and r["clients"] == 1200]
        assert checks and all(c == "exact" for c in checks)

    def test_every_scale_row_replays(self, table):
        checks = [r["check"] for r in _rows(table) if r["clients"] == 40_000]
        assert checks and all(c == "replay-ok" for c in checks)

    def test_oracle_certifies_every_row(self, table):
        assert table.column("oracle") == ["ok"] * len(table)

    def test_discrete_rows_carry_no_check(self, table):
        for r in _rows(table):
            if r["engine"] == "discrete":
                assert r["check"] == "--"

    def test_digest_pinned_across_the_spec_migration(self, table):
        # Every full-precision cell, its statistics from
        # LatencySummary.of; the spec-file bundle must reproduce every
        # hybrid run byte-for-byte.
        assert table.digest() == (
            "fdfcd0b50c3a5526b5cd3deb3aec08c051dc50b04ba61eac6c764d30f74bd0b5"
        )
