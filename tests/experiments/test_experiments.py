"""Integration tests: every experiment regenerates its paper shape.

These are the executable form of EXPERIMENTS.md -- each test asserts the
qualitative claim (who wins, by roughly what factor) rather than exact
numbers.
"""

import pytest

from repro.core.system import WeightedRouter
from repro.experiments import (
    ALL_EXPERIMENTS,
    a1_notification,
    a2_threshold,
    a3_detectors,
    a4_bookkeeping,
    a5_spec,
    e01_raid10,
    e02_striping,
    e03_badblocks,
    e04_scsi,
    e05_zones,
    e06_variance,
    e07_unfair,
    e08_transpose,
    e09_deadlock,
    e10_memhog,
    e11_cpuhog,
    e12_dht,
    e13_layout,
    e14_availability,
)


def rows_by(table, **filters):
    """Rows whose named columns equal the given values."""
    idx = {name: table.columns.index(name) for name in filters}
    return [
        row
        for row in table.rows
        if all(row[idx[name]] == value for name, value in filters.items())
    ]


class TestE01Raid10:
    @pytest.fixture(scope="class")
    def table(self):
        return e01_raid10.run(n_blocks=200)

    def test_all_nine_cells_present(self, table):
        assert len(table) == 9

    def test_measured_tracks_analytic(self, table):
        for row in table.rows:
            measured, analytic = row[2], row[3]
            assert measured == pytest.approx(analytic, rel=0.12)

    def test_scenario_ordering(self, table):
        """uniform <= proportional <= adaptive under the static fault."""
        static = {row[1]: row[2] for row in rows_by(table, scenario="static-fault")}
        assert static["uniform"] < static["proportional"] * 0.7
        assert static["adaptive"] == pytest.approx(static["proportional"], rel=0.1)

    def test_only_adaptive_survives_dynamic_fault(self, table):
        dynamic = {row[1]: row[2] for row in rows_by(table, scenario="dynamic-fault")}
        assert dynamic["adaptive"] > 1.5 * dynamic["uniform"]
        assert dynamic["adaptive"] > 1.5 * dynamic["proportional"]

    def test_bookkeeping_only_for_adaptive(self, table):
        for row in table.rows:
            assert (row[4] > 0) == (row[1] == "adaptive")


class TestE02Striping:
    def test_throughput_tracks_slowest(self):
        table = e02_striping.run(n_blocks=256)
        for row in table.rows:
            factor, measured, prediction = row[0], row[1], row[2]
            assert measured == pytest.approx(prediction, rel=0.05)


class TestE03BadBlocks:
    def test_bandwidth_monotone_in_remap_rate(self):
        table = e03_badblocks.run(nblocks=4000)
        bandwidths = table.column("measured MB/s")
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_3x_faults_land_near_paper_fraction(self):
        table = e03_badblocks.run(nblocks=4000)
        three_x = rows_by(table, **{"fault-rate multiplier": 3.0})[0]
        assert 0.85 < three_x[2] < 0.97  # paper: ~0.91


class TestE04Scsi:
    @pytest.fixture(scope="class")
    def table(self):
        return e04_scsi.run(days=20.0)

    def test_error_rate_near_target(self, table):
        per_day = rows_by(table, metric="errors/day")[0][1]
        assert per_day == pytest.approx(2.0, rel=0.3)

    def test_scsi_fractions_match_study(self, table):
        all_frac = rows_by(table, metric="SCSI fraction of all errors")[0][1]
        excl = rows_by(table, metric="SCSI fraction excl. network")[0][1]
        assert all_frac == pytest.approx(0.49, abs=0.08)
        assert excl == pytest.approx(0.87, abs=0.08)

    def test_resets_cost_scan_bandwidth(self, table):
        quiet = rows_by(table, metric="scan MB/s, quiet chain")[0][1]
        noisy = rows_by(table, metric="scan MB/s, resetting chain")[0][1]
        assert noisy < 0.95 * quiet


class TestE05Zones:
    def test_outer_inner_factor_of_two(self):
        table = e05_zones.run(scan_blocks=2000)
        rates = table.column("measured MB/s")
        assert rates[0] / rates[-1] == pytest.approx(2.0, rel=0.1)
        assert rates == sorted(rates, reverse=True)


class TestE06Variance:
    def test_cluster_plus_tail_shape(self):
        table = e06_variance.run(n_runs=40)
        stats = dict(zip(table.column("statistic"), table.column("fraction of peak")))
        assert stats["median"] > 0.8  # cluster near peak
        assert stats["worst"] < 0.5  # tail reaching far down
        assert stats["share of runs within 10% of peak"] > 0.4


class TestE07Unfair:
    def test_unfairness_slows_global_transfer(self):
        table = e07_unfair.run(per_node_mb=10.0)
        slowdowns = dict(zip(table.column("switch"), table.column("slowdown vs fair")))
        assert slowdowns["half the ports favored"] > 1.4  # paper: ~1.5 (50%)
        assert slowdowns["one port disfavored"] > 1.05


class TestE08Transpose:
    def test_factor_three_in_sweep(self):
        table = e08_transpose.run(size_per_pair=1.0)
        slowdowns = table.column("slowdown vs healthy")
        assert slowdowns == sorted(slowdowns)
        assert any(2.5 < s < 5.0 for s in slowdowns)  # paper: ~3x occurs


class TestE09Deadlock:
    def test_gaps_past_threshold_stall(self):
        table = e09_deadlock.run(n_packets=5)
        for row in table.rows:
            gap, duration, events, bystander = row
            if gap <= 0.25:
                assert events == 0
            else:
                assert events >= 1
                assert duration > 2.0  # at least one full stall
                assert bystander > 1.0  # collateral damage


class TestE10MemHog:
    def test_slowdown_reaches_tens(self):
        table = e10_memhog.run(n_ops=5)
        slowdowns = table.column("slowdown vs no hog")
        assert slowdowns[0] == pytest.approx(1.0)
        assert max(slowdowns) > 40.0
        assert slowdowns == sorted(slowdowns)


class TestE11CpuHog:
    @pytest.fixture(scope="class")
    def table(self):
        return e11_cpuhog.run(total_mb=160.0)

    def test_static_collapses_toward_2x(self, table):
        static_hog = rows_by(table, policy="static", hog=True)[0]
        assert 1.5 < static_hog[3] <= 2.1

    def test_adaptive_policies_recover(self, table):
        for policy in ("pull", "hedged"):
            row = rows_by(table, policy=policy, hog=True)[0]
            assert row[3] < 1.45  # far better than the 2x collapse


class TestE12Dht:
    def test_gc_tail_and_adaptive_rescue(self):
        table = e12_dht.run(n_ops=400)
        p99 = dict(zip(table.column("configuration"), table.column("p99 (s)")))
        assert p99["GC, hashed"] > 10 * p99["no GC, hashed"]
        assert p99["GC, adaptive placement"] < 0.3 * p99["GC, hashed"]


class TestE13Layout:
    def test_aging_halves_bandwidth(self):
        table = e13_layout.run(file_blocks=1000)
        fractions = table.column("fraction of fresh")
        assert fractions[0] == pytest.approx(1.0)
        assert fractions == sorted(fractions, reverse=True)
        assert min(fractions) < 0.55  # up to ~2x loss


def _planted_bug(router, system, work):
    raise AttributeError("planted")


class TestE14Availability:
    @pytest.fixture(scope="class")
    def table(self):
        return e14_availability.run(n_requests=300)

    def test_everyone_available_without_faults(self, table):
        assert all(row[1] > 0.99 for row in table.rows)

    def test_fail_stop_design_loses_availability(self, table):
        rr = rows_by(table, policy="round-robin")[0]
        assert rr[2] < 0.9  # slowdown case
        assert rr[3] < 0.9  # stall case

    def test_fail_stutter_design_keeps_availability(self, table):
        weighted = rows_by(table, policy="weighted")[0]
        watchdog = rows_by(table, policy="weighted+T")[0]
        assert weighted[2] > 0.95
        assert watchdog[2] > 0.95 and watchdog[3] > 0.95

    def test_a_router_bug_is_not_an_unserved_request(self, monkeypatch):
        # Only a fail-stop or a watchdog timeout scores as unserved.
        monkeypatch.setattr(WeightedRouter, "pick", _planted_bug)
        with pytest.raises(AttributeError, match="planted"):
            e14_availability.run(n_requests=20)


class TestAblations:
    def test_a1_policy_tradeoff(self):
        table = a1_notification.run(horizon=80.0)
        rows = {row[0]: (row[1], row[2]) for row in table.rows}
        # IMMEDIATE: most traffic, zero lag.  PERSISTENT: little traffic,
        # bounded lag.  NONE: no traffic, poll-bounded lag.
        assert rows["immediate"][0] > 5 * max(1, rows["persistent-only"][0])
        assert rows["immediate"][1] < rows["persistent-only"][1] <= 6.0
        assert rows["none"][0] == 0

    def test_a2_low_t_wastes_capacity(self):
        table = a2_threshold.run(n_requests=200)
        low, mid = table.rows[0], table.rows[2]
        assert low[1] < min(row[1] for row in table.rows[1:])  # low T is worst
        assert low[3] is True or low[3] == "yes" or low[3] == True  # noqa: E712
        assert mid[3] == False  # noqa: E712

    def test_a2_router_bug_is_not_an_unserved_request(self, monkeypatch):
        monkeypatch.setattr(WeightedRouter, "pick", _planted_bug)
        with pytest.raises(AttributeError, match="planted"):
            a2_threshold.run(n_requests=20)

    def test_a3_smoother_detectors_fewer_false_positives(self):
        table = a3_detectors.run()
        rows = {row[0]: (row[1], row[2]) for row in table.rows}
        assert rows["threshold, window=16"][0] <= rows["threshold, window=2"][0]
        assert rows["ewma, alpha=0.1"][0] <= rows["ewma, alpha=0.5"][0]
        # Every configuration detects the real fault eventually.
        assert all(lag != float("inf") for __, lag in rows.values())

    def test_a4_bookkeeping_buys_robustness(self):
        table = a4_bookkeeping.run(block_counts=(200,))
        uniform = rows_by(table, policy="uniform")[0]
        adaptive = rows_by(table, policy="adaptive")[0]
        assert uniform[2] == 0
        assert adaptive[2] == 200  # one entry per block
        assert adaptive[3] > 1.3 * uniform[3]

    def test_a5_simple_spec_flags_more(self):
        table = a5_spec.run()
        simple, banded = table.rows
        assert simple[1] > 5 * max(1, banded[1])
        assert simple[3] > 0 and banded[3] > 0  # both catch the real fault


class TestRegistryOfExperiments:
    def test_all_thirty_six_registered(self):
        assert len(ALL_EXPERIMENTS) == 36

    def test_ids_match_design_doc(self):
        expected = {f"e{i:02d}" for i in range(1, 15)}
        expected |= {f"e{i}" for i in range(15, 30)}
        expected |= {f"a{i}" for i in range(1, 8)}
        assert set(ALL_EXPERIMENTS) == expected
