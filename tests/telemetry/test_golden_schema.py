"""The trace schema is version-gated: bytes may not drift under version 4.

``tests/telemetry/data/golden_trace_v4.jsonl`` is a committed schema-v4
trace (a tiny deterministic campaign); ``golden_soak_v4.jsonl`` and
``golden_spec_v4.jsonl`` pin the other two recorders, a two-window
hybrid soak and one spec run.  Regenerating each today must reproduce
it *byte-for-byte*: any change to the line shapes, key names, float
formatting, or record ordering is a schema change and must come with a
``TRACE_SCHEMA_VERSION`` bump plus new golden files.
The flip side of the gate is also pinned here: a reader handed a
version it does not know -- schemas 1 and 2, a future version, or a
header whose version is not an integer -- must refuse it by name,
through the API and through the ``replay`` CLI (exit code 2).  The
three schema-3 goldens (``*_v3.jsonl``, the same recordings with one
``rec`` line per record) stay as the read-compatibility fixtures: they
replay to the v4 scorecards, and ``--verify`` refuses them by name.
The verifier also reads its regeneration parameters from the header,
so a header whose ``meta`` does not fit its mode fails verify by name
instead of raising; a ``meta`` or ``specs`` that is not a JSON object
is refused by the reader, like any other file that is not a trace.
"""

import json
from pathlib import Path

import pytest

from repro.scenario.spec import ScenarioSpec
from repro.sim.metrics import ExactQuantile, StreamingMoments
from repro.sim.trace import COMPLETION
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    TraceError,
    TraceSchemaError,
    read_trace,
    record_campaign,
    record_soak,
    record_spec_run,
    replay_trace,
    verify_trace,
)
from repro.telemetry.reader import READABLE_SCHEMAS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_trace_v4.jsonl"
GOLDEN_V3 = DATA / "golden_trace_v3.jsonl"

#: The exact parameters both golden campaign files were recorded with.
GOLDEN_PARAMS = dict(seed=3, workloads=("raid10",), families=("failstop",),
                     policies=("fixed-timeout",), scenarios_per_family=1,
                     n_requests=4)

#: The golden soak: two hybrid windows of one stutter each.
GOLDEN_SOAK_PARAMS = dict(seed=3, workload="raid10", family="magnitude",
                          policy="stutter-aware", n_windows=2,
                          injectors_per_window=1, n_requests=6)

#: The golden spec run: a small raid10-shaped spec with one pinned stutter.
GOLDEN_SPEC = {
    "kind": "scenario", "name": "golden-spec",
    "groups": {"substrate": "storage", "prefix": "d", "count": 2,
               "size": 2, "rate": 5.5},
    "arrivals": {"work": 0.5, "gap": 0.03, "requests": 6},
    "faults": {"events": [{"component": "d1", "fault": "stutter",
                           "onset": 0.05, "duration": 0.1, "factor": 0.25}]},
    "policy": "stutter-aware",
}

#: Each golden file and the call that re-records it.
GOLDEN_RECORDINGS = (
    (GOLDEN, lambda path: record_campaign(path, **GOLDEN_PARAMS)),
    (DATA / "golden_soak_v4.jsonl",
     lambda path: record_soak(path, **GOLDEN_SOAK_PARAMS)),
    (DATA / "golden_spec_v4.jsonl",
     lambda path: record_spec_run(path, ScenarioSpec.parse(GOLDEN_SPEC),
                                  seed=3)),
)

#: Each schema-3 golden and the v4 golden of the same recording.
V3_PAIRS = [(DATA / f"golden_{name}_v3.jsonl", DATA / f"golden_{name}_v4.jsonl")
            for name in ("trace", "soak", "spec")]


def _with_header(tmp_path, name, **changes):
    """The golden trace with its header's top-level keys replaced."""
    lines = GOLDEN.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    return path


class TestGoldenBytes:
    def test_schema_version_is_pinned(self):
        assert TRACE_SCHEMA_VERSION == 4, (
            "TRACE_SCHEMA_VERSION moved: record a new golden trace as "
            f"tests/telemetry/data/golden_trace_v{TRACE_SCHEMA_VERSION}.jsonl "
            "and update this test's GOLDEN path"
        )
        assert READABLE_SCHEMAS == (3, 4)

    def test_regenerated_trace_matches_golden_byte_for_byte(self, tmp_path):
        for golden, record in GOLDEN_RECORDINGS:
            out = tmp_path / golden.name
            record(out)
            assert out.read_bytes() == golden.read_bytes(), (
                f"{golden.name}: the sink's output changed while "
                f"TRACE_SCHEMA_VERSION stayed at {TRACE_SCHEMA_VERSION} -- "
                "bump the version in src/repro/telemetry/sink.py and commit "
                "regenerated golden traces (schema changes must be "
                "versioned, never silent)"
            )

    def test_golden_replays_clean(self):
        replay = replay_trace(GOLDEN)
        assert replay.read.clean_close and replay.consistent
        assert len(replay.runs) == 1 and replay.runs[0].complete

    def test_golden_line_shapes(self):
        """Structural pin: the v4 discriminators and their key sets."""
        lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        kinds = [line["k"] for line in lines]
        assert kinds == ["header", "run-start", "recs", "run-end", "end"]
        header = lines[0]
        assert set(header) == {"k", "schema", "format", "mode", "meta", "specs"}
        assert header["schema"] == TRACE_SCHEMA_VERSION == 4
        assert header["format"] == "repro-trace"
        recs = lines[2]
        assert set(recs) == {"k", "t", "kind", "subject", "detail"}
        assert len({len(recs[key]) for key in ("t", "kind", "subject",
                                                 "detail")}) == 1
        run_end = lines[3]
        assert {"run", "digest", "moments", "p50", "p99", "requests",
                "slo_violations", "execution"} <= set(run_end)
        assert run_end["execution"] == {"discrete_requests": 4,
                                        "engine": "discrete",
                                        "fallback": None}
        # Exact quantiles: a value, not P² marker state.
        assert set(run_end["p50"]) == set(run_end["p99"]) == {"q", "value"}
        end = lines[-1]
        assert set(end) == {"k", "records", "subjects"}
        # Per subject: record counts, and moments once it has completions;
        # no estimate.
        rollups = list(end["subjects"].values())
        assert any("completions" in rollup for rollup in rollups)
        for rollup in rollups:
            assert set(rollup) in ({"kinds"}, {"kinds", "completions"})


class TestSchemaThreeTraces:
    """Schema 3 wrote one ``rec`` line per record and no ``execution``
    envelope: it replays to the same scorecards, but cannot verify."""

    def test_v3_golden_still_replays_clean(self):
        old, new = replay_trace(GOLDEN_V3), replay_trace(GOLDEN)
        assert old.read.header["schema"] == 3
        assert old.read.clean_close and old.consistent
        (run,) = old.runs
        assert run.complete and run.requests == 4
        # Exact quantiles, as recorded: four samples of 1/11 s each.
        assert isinstance(run.p50, ExactQuantile)
        assert isinstance(run.p99, ExactQuantile)
        assert run.p50.value() == run.p99.value() == 1 / 11
        assert old.scorecard().rows == new.scorecard().rows
        assert old.execution_summary() == "execution: not recorded (schema 3)"
        for v3, v4 in V3_PAIRS:
            old, new = replay_trace(v3), replay_trace(v4)
            assert old.read.clean_close and old.consistent, v3.name
            assert old.records == new.records
            assert old.completions == new.completions
            assert old.state_timelines == new.state_timelines
            assert old.violation_timelines == new.violation_timelines
            assert old.scorecard().rows == new.scorecard().rows

    def test_v3_golden_refuses_verify_by_name(self):
        for v3, __ in V3_PAIRS:
            result = verify_trace(v3)
            assert not result.ok and result.first_diff is None
            assert ("schema 3 / outcome digest v2: re-record to verify (this "
                    "build writes schema 4 / outcome digest v2)"
                    ) in result.reasons[0]
            assert not v3.with_name(v3.name + ".regen").exists()

    @pytest.mark.parametrize("v3, v4", V3_PAIRS,
                             ids=[v3.name for v3, __ in V3_PAIRS])
    def test_v4_golden_is_the_v3_golden_in_blocks(self, v3, v4):
        """Same records one for one; every other line equal but for the
        header's ``schema`` and the new ``execution`` key."""
        old, new = read_trace(v3), read_trace(v4)
        assert old.telemetry() == new.telemetry()
        assert all(line["k"] != "recs" for line in old.records)
        assert all(line["k"] != "rec" for line in new.records)
        assert {**new.header, "schema": 3} == old.header
        others = [
            [{key: value for key, value in line.items() if key != "execution"}
             for line in trace.records if line["k"] not in ("rec", "recs")]
            for trace in (old, new)
        ]
        assert others[0] == others[1]
        assert (v3.read_text().splitlines()[-1]
                == v4.read_text().splitlines()[-1])


class TestVersionGate:
    @pytest.fixture()
    def future_trace(self, tmp_path):
        return _with_header(tmp_path, "future.jsonl", schema=99)

    def test_reader_refuses_unknown_version_by_name(self, future_trace):
        with pytest.raises(TraceSchemaError) as excinfo:
            read_trace(future_trace)
        message = str(excinfo.value)
        assert "99" in message and str(TRACE_SCHEMA_VERSION) in message

    def test_replay_cli_rejects_unknown_version(self, future_trace, capsys):
        from repro.__main__ import main

        assert main(["replay", str(future_trace)]) == 2
        err = capsys.readouterr().err
        assert "unsupported trace schema version 99" in err

    def test_replay_cli_accepts_the_golden(self, capsys):
        from repro.__main__ import main

        assert main(["replay", str(GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert "Replay: campaign trace" in out

    @pytest.mark.parametrize("schema, shown", [(1, "1"), (2, "2"),
                                               (3.0, "3.0"), (True, "True")],
                             ids=["schema-1", "schema-2", "float", "bool"])
    def test_retired_and_non_integer_versions_are_refused_by_name(
            self, tmp_path, capsys, schema, shown):
        from repro.__main__ import main

        path = _with_header(tmp_path, "old.jsonl", schema=schema)
        with pytest.raises(TraceSchemaError) as excinfo:
            read_trace(path)
        assert (f"unsupported trace schema version {shown} (this reader "
                "supports versions 3, 4)") in str(excinfo.value)
        assert main(["replay", str(path)]) == 2
        assert f"unsupported trace schema version {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1, 2], "x", None],
                             ids=["list", "string", "null"])
    @pytest.mark.parametrize("mode, key", [("soak", "meta"),
                                           ("campaign", "specs")])
    def test_header_meta_and_specs_must_be_objects(self, tmp_path, capsys,
                                                   mode, key, value):
        from repro.__main__ import main

        path = _with_header(tmp_path, "bad.jsonl", mode=mode, **{key: value})
        message = f"header {key!r} is not a JSON object"
        with pytest.raises(TraceError, match=message):
            read_trace(path)
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


def _edited(tmp_path, golden, kind, nth, drop=(), **values):
    """``golden`` with its ``nth`` line of ``kind`` edited by hand:
    the ``drop`` keys deleted and ``values`` set."""
    lines = golden.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if json.loads(line)["k"] == kind][nth]
    line = json.loads(lines[at])
    for key in drop:
        del line[key]
    line.update(values)
    lines[at] = json.dumps(line) + "\n"
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(lines))
    return path


class TestMalformedScorecardLines:
    """A ``run-end`` or ``window`` line that lacks a key is named, never
    read as zeros and never a traceback."""

    def test_a_window_without_its_rolling_scorecard(self, tmp_path, capsys):
        from repro.__main__ import main

        path = _edited(tmp_path, DATA / "golden_soak_v4.jsonl", "window", 1,
                       drop=("rolling",))
        replay = replay_trace(path)
        assert replay.integrity == ["window 1: missing key 'rolling'"]
        assert [window.index for window in replay.windows] == [0]
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT: window 1: missing key 'rolling'" in out

    def test_a_run_end_without_its_counts(self, tmp_path, capsys):
        from repro.__main__ import main

        path = _edited(tmp_path, GOLDEN, "run-end", 0,
                       drop=("requests", "moments"))
        replay = replay_trace(path)
        assert replay.integrity == ["run-end 0: missing key 'requests'"]
        (run,) = replay.runs
        assert not run.complete and run.requests == 0
        assert replay.scorecard().rows[0][-1] == "(partial)"
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT: run-end 0: missing key 'requests'" in out

    def test_an_unreadable_value_is_named(self, tmp_path):
        path = _edited(tmp_path, GOLDEN, "run-end", 0, requests="four")
        assert replay_trace(path).integrity == [
            "run-end 0: unreadable value (invalid literal for int() with "
            "base 10: 'four')"]


class TestVerifyChecksTheHeaderMeta:
    """``meta`` comes from the file, so a bad one fails verify by name."""

    @pytest.fixture()
    def golden_meta(self):
        return json.loads(GOLDEN.read_text().splitlines()[0])["meta"]

    def _verify_fails(self, path, capsys, *expected):
        from repro.__main__ import main

        result = verify_trace(path)
        assert not result.ok and result.first_diff is None
        for reason in expected:
            assert reason in result.reasons
        assert main(["replay", str(path), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "VERIFY FAILED" in out and expected[0] in out
        assert not path.with_name(path.name + ".regen").exists()

    def test_an_extra_meta_key(self, tmp_path, capsys, golden_meta):
        path = _with_header(tmp_path, "extra.jsonl",
                            meta={**golden_meta, "csv_path": "out.csv"})
        self._verify_fails(path, capsys,
                           "campaign meta has unexpected key 'csv_path'")

    def test_campaign_meta_under_the_soak_mode(self, tmp_path, capsys,
                                               golden_meta):
        path = _with_header(tmp_path, "soak.jsonl", mode="soak",
                            meta=golden_meta)
        self._verify_fails(path, capsys,
                           "soak meta has unexpected key 'families'",
                           "soak meta is missing key 'workload'")

    def test_a_spec_run_without_its_spec(self, tmp_path, capsys):
        path = _with_header(tmp_path, "spec.jsonl", mode="spec",
                            meta={"policy": "fixed-timeout", "seed": 3,
                                  "index": 0, "engine": "discrete"})
        self._verify_fails(path, capsys, "spec meta is missing key 'spec'")

    @pytest.mark.parametrize("spec", [{"kind": "scenario"}, "surge"],
                             ids=["incomplete", "not-an-object"])
    def test_a_spec_that_does_not_parse(self, tmp_path, capsys, spec):
        path = _with_header(tmp_path, "spec.jsonl", mode="spec",
                            meta={"spec": spec, "policy": "fixed-timeout",
                                  "seed": 3, "index": 0, "engine": "discrete"})
        result = verify_trace(path)
        assert not result.ok
        (reason,) = result.reasons
        assert reason.startswith("spec meta key 'spec' does not parse: ")
        self._verify_fails(path, capsys, reason)

    def test_soak_extra_events_that_do_not_parse(self, tmp_path, capsys):
        meta = {"seed": 7, "workload": "raid10", "family": "magnitude",
                "policy": "stutter-aware", "n_windows": 2,
                "injectors_per_window": 1, "n_requests": 40,
                "engine": "hybrid", "rolling": 4, "check": True,
                "extra_events": [[0, {"component": "d0", "kind": "melt",
                                      "onset": 1.0}]]}
        path = _with_header(tmp_path, "soak.jsonl", mode="soak", meta=meta)
        result = verify_trace(path)
        (reason,) = result.reasons
        assert reason.startswith(
            "soak meta key 'extra_events' does not parse: ")
        self._verify_fails(path, capsys, reason)

    def test_meta_that_is_not_an_object(self, tmp_path, capsys):
        """The reader refuses it before verify can run."""
        from repro.__main__ import main

        path = _with_header(tmp_path, "list.jsonl", meta=[3])
        with pytest.raises(TraceError, match="header 'meta' is not a JSON object"):
            verify_trace(path)
        assert main(["replay", str(path), "--verify"]) == 2
        assert "header 'meta' is not a JSON object" in capsys.readouterr().err
        assert not path.with_name(path.name + ".regen").exists()


class TestFooterRollups:
    def test_footer_moments_are_exact_over_the_body(self, tmp_path):
        """Every footer number is recomputable from the body's records."""
        path = tmp_path / "soak.jsonl"
        record_soak(path, seed=5, n_windows=3, injectors_per_window=2,
                    n_requests=120)
        trace = read_trace(path)
        durations = {}
        for rec in trace.telemetry():
            if rec.kind == COMPLETION:
                durations.setdefault(rec.subject, []).append(rec.detail[1])
        (end,) = trace.of_kind("end")
        subjects = end["subjects"]
        assert durations and set(durations) <= set(subjects)
        for subject, rollup in subjects.items():
            assert set(rollup) <= {"kinds", "completions"}
            if subject not in durations:
                assert "completions" not in rollup
                continue
            footer, exact = rollup["completions"], StreamingMoments.of(durations[subject])
            assert footer["count"] == exact.count == rollup["kinds"][COMPLETION]
            assert footer["min"] == exact.minimum
            assert footer["max"] == exact.maximum
            assert footer["mean"] == pytest.approx(exact.mean, rel=1e-9)
            # m2 is a sum of squared deviations; near zero only an
            # absolute floor at float rounding of the squares is fair.
            floor = 1e-12 * exact.count * exact.maximum ** 2
            assert footer["m2"] == pytest.approx(exact.variance * exact.count,
                                                 rel=1e-9, abs=floor)
