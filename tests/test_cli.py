"""Unit tests for the command-line interface and top-level API."""

import pytest

import repro
from repro.__main__ import main
from repro.experiments import ALL_EXPERIMENTS


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_convenience_exports(self):
        assert repro.Simulator is not None
        assert repro.PerformanceSpec(nominal_rate=1.0)
        assert repro.FaultModel.FAIL_STUTTER.handles_performance_faults


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ALL_EXPERIMENTS:
            assert key in out

    def test_run_one_experiment(self, capsys):
        assert main(["run", "e02"]) == 0
        out = capsys.readouterr().out
        assert "RAID-0" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "e05", "a5"]) == 0
        out = capsys.readouterr().out
        assert "zoned-disk" in out and "spec fidelity" in out

    def test_run_unknown_id_fails(self, capsys):
        assert main(["run", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_contains_all_sections(self, capsys, tmp_path, monkeypatch):
        # Every place a per-user cache could land points at one empty
        # directory: the report computes every table and writes nothing.
        for var in ("HOME", "XDG_CACHE_HOME", "REPRO_CACHE_DIR"):
            monkeypatch.setenv(var, str(tmp_path))
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.count("## ") == len(ALL_EXPERIMENTS)
        assert "Paper:" in out and "Measured:" in out
        assert list(tmp_path.iterdir()) == []

    def test_report_flags_are_shared_with_the_module_cli(self, capsys):
        from repro.experiments import report

        option_blocks = []
        for run, argv in ((main, ["report", "--help"]), (report.main, ["--help"])):
            with pytest.raises(SystemExit):
                run(argv)
            option_blocks.append(capsys.readouterr().out.rsplit("\n\n", 1)[-1])
        assert option_blocks[0] == option_blocks[1]
        flags = [
            line.split("  ")[1]
            for line in option_blocks[0].splitlines()
            if line.startswith("  -")
        ]
        assert flags == ["-h, --help", "--workers N"]

        with pytest.raises(SystemExit) as exc:
            main(["report", "--no-cache"])
        assert exc.value.code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_campaign_prints_scorecard_and_digest(self, capsys):
        argv = [
            "campaign", "--seed", "7", "--scenarios", "1",
            "--workloads", "raid10", "--families", "failstop", "--no-verify",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fault-campaign scorecard" in out
        assert "scorecard digest: " in out

    def test_campaign_unknown_family_fails(self, capsys):
        assert main(["campaign", "--families", "gc-pause"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err
        # The hint enumerates the live registries, not a stale literal.
        assert "magnitude" in err and "no-mitigation" in err

    def test_campaign_unknown_policy_fails(self, capsys):
        assert main(["campaign", "--policies", "pray"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_list_shows_bundled_scenarios_with_engines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bundled scenarios" in out
        for name in ("raid10", "dht", "surge"):
            assert name in out
        # The saturated workload is flagged timer-free-only.
        assert "hybrid*" in out

    def test_campaign_help_derives_from_the_registries(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--help"])
        assert exc.value.code == 0
        # argparse wraps long help lines mid-name; compare unwrapped.
        out = capsys.readouterr().out.replace("\n", "").replace(" ", "")
        for name in ("magnitude", "correlated", "surge", "no-mitigation"):
            assert name in out

    def test_campaign_soak_prints_rolling_scorecard(self, capsys):
        argv = [
            "campaign", "--soak", "--windows", "2", "--injectors", "1",
            "--requests", "40", "--workloads", "raid10",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Soak: raid10" in out
        assert "roll_p99_s" in out

    def test_campaign_soak_trace_replays_and_verifies(self, tmp_path, capsys):
        trace = tmp_path / "soak.jsonl"
        argv = [
            "campaign", "--soak", "--windows", "2", "--injectors", "1",
            "--requests", "40", "--trace", str(trace),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["replay", str(trace), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "soak trace" in out
        assert "VERIFIED" in out

    #: A tiny recording: one failstop run of four requests.
    TINY_CAMPAIGN = ["campaign", "--workloads", "raid10", "--families",
                     "failstop", "--policies", "fixed-timeout",
                     "--scenarios", "1", "--requests", "4"]

    def test_trace_csv_naming_the_trace_is_refused(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        for trace, csv_path in (("u.jsonl", "u.jsonl"),
                                ("u.jsonl", "./u.jsonl")):
            assert main(self.TINY_CAMPAIGN + ["--trace", trace,
                                              "--trace-csv", csv_path]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "--trace-csv and --trace" in captured.err
            assert "trace: " not in captured.out
            assert not (tmp_path / "u.jsonl").exists()

    @pytest.mark.parametrize("soak", [False, True], ids=["campaign", "soak"])
    def test_trace_csv_without_trace_is_refused(self, tmp_path, capsys,
                                                soak):
        csv_path = tmp_path / "u.csv"
        argv = self.TINY_CAMPAIGN + ["--trace-csv", str(csv_path)]
        if soak:
            argv += ["--soak", "--windows", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--trace-csv" in err and "--trace" in err.replace(
            "--trace-csv", "")
        assert not csv_path.exists()

    @pytest.mark.parametrize("argv", [
        "campaign --requests 0",
        "campaign --requests -5",
        "campaign --requests many",
        "campaign --scenarios -2",
        "campaign --scenarios 0",
        "campaign --soak --windows 0",
        "campaign --soak --rolling 0",
        "campaign --soak --injectors -1",
        "sweep --count -1",
        "sweep --count 0",
    ])
    def test_bad_count_is_a_usage_error_naming_the_flag(self, capsys, argv):
        argv = argv.split()
        flag = argv[-2]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: expected a" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_zero_injectors_is_a_valid_soak(self, capsys):
        assert main(["campaign", "--soak", "--injectors", "0", "--windows",
                     "1", "--rolling", "1", "--requests", "20"]) == 0
        assert "soak" in capsys.readouterr().out.lower()

    def test_replay_missing_file_fails_by_name(self, capsys):
        assert main(["replay", "/nonexistent/trace.jsonl"]) == 2
        assert "trace.jsonl" in capsys.readouterr().err

    def test_sweep_prints_scorecard_and_digest(self, capsys):
        assert main(["sweep", "--count", "2", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "Generative sweep" in out
        assert "sweep digest: " in out

    def test_sweep_digest_is_replay_stable(self, capsys):
        argv = ["sweep", "--count", "2", "--no-verify"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
