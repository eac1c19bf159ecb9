"""The trace schema is version-gated: bytes may not drift under version 3.

``tests/telemetry/data/golden_trace_v3.jsonl`` is a committed schema-v3
trace (a tiny deterministic campaign).  Regenerating the same campaign
today must reproduce it *byte-for-byte*: any change to the line shapes,
key names, float formatting, or record ordering is a schema change and
must come with a ``TRACE_SCHEMA_VERSION`` bump plus a new golden file.
The flip side of the gate is also pinned here: a reader handed a
version it does not know -- schema 1, a future version, or a header
whose version is not an integer -- must refuse it by name, through the
API and through the ``replay`` CLI (exit code 2).  The previous golden,
``golden_trace_v2.jsonl``, stays as the read-compatibility fixture: it
replays, and ``--verify`` refuses it by name.  The verifier also reads
its regeneration parameters from the header, so a header whose
``meta`` does not fit its mode fails verify by name instead of raising.
"""

import json
from pathlib import Path

import pytest

from repro.sim.metrics import ExactQuantile, StreamingMoments
from repro.sim.trace import COMPLETION
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    read_trace,
    record_campaign,
    record_soak,
    replay_trace,
    verify_trace,
)
from repro.telemetry.reader import READABLE_SCHEMAS

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_trace_v3.jsonl"
GOLDEN_V2 = DATA / "golden_trace_v2.jsonl"

#: The exact parameters both golden files were recorded with.
GOLDEN_PARAMS = dict(seed=3, workloads=("raid10",), families=("failstop",),
                     policies=("fixed-timeout",), scenarios_per_family=1,
                     n_requests=4)


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
        assert TRACE_SCHEMA_VERSION == 3, (
            "TRACE_SCHEMA_VERSION moved: record a new golden trace as "
            f"tests/telemetry/data/golden_trace_v{TRACE_SCHEMA_VERSION}.jsonl "
            "and update this test's GOLDEN path"
        )
        assert READABLE_SCHEMAS == (2, 3)

    def test_regenerated_trace_matches_golden_byte_for_byte(self, tmp_path):
        out = tmp_path / "regen.jsonl"
        record_campaign(out, **GOLDEN_PARAMS)
        regenerated, golden = out.read_bytes(), GOLDEN.read_bytes()
        assert regenerated == golden, (
            "the sink's output changed while TRACE_SCHEMA_VERSION stayed "
            f"at {TRACE_SCHEMA_VERSION} -- bump the version in "
            "src/repro/telemetry/sink.py and commit a regenerated golden "
            "trace (schema changes must be versioned, never silent)"
        )

    def test_golden_replays_clean(self):
        replay = replay_trace(GOLDEN)
        assert replay.read.clean_close and replay.consistent
        assert len(replay.runs) == 1 and replay.runs[0].complete

    def test_golden_line_shapes(self):
        """Structural pin: the v3 discriminators and their key sets."""
        lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        kinds = [line["k"] for line in lines]
        assert kinds[0] == "header" and kinds[-1] == "end"
        assert {"run-start", "run-end", "rec"} <= set(kinds)
        header = lines[0]
        assert set(header) == {"k", "schema", "format", "mode", "meta", "specs"}
        assert header["schema"] == TRACE_SCHEMA_VERSION == 3
        assert header["format"] == "repro-trace"
        rec = next(line for line in lines if line["k"] == "rec")
        assert set(rec) == {"k", "t", "kind", "subject", "detail"}
        run_end = next(line for line in lines if line["k"] == "run-end")
        assert {"run", "digest", "moments", "p50", "p99", "requests",
                "slo_violations"} <= set(run_end)
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


class TestSchemaTwoTraces:
    """Schema 2 differs from 3 only in the footer's per-subject p99
    estimates, which replay never reads: it replays, but cannot verify."""

    def test_v2_golden_still_replays_clean(self):
        old, new = replay_trace(GOLDEN_V2), replay_trace(GOLDEN)
        assert old.read.header["schema"] == 2
        assert old.read.clean_close and old.consistent
        (run,) = old.runs
        assert run.complete and run.requests == 4
        # Exact quantiles, as recorded: four samples of 1/11 s each.
        assert isinstance(run.p50, ExactQuantile)
        assert isinstance(run.p99, ExactQuantile)
        assert run.p50.value() == run.p99.value() == 1 / 11
        assert old.scorecard().rows == new.scorecard().rows

    def test_v2_golden_refuses_verify_by_name(self):
        result = verify_trace(GOLDEN_V2)
        assert not result.ok and result.first_diff is None
        assert ("schema 2 / outcome digest v2: re-record to verify (this "
                "build writes schema 3 / outcome digest v2)") in result.reasons[0]
        assert not GOLDEN_V2.with_name(GOLDEN_V2.name + ".regen").exists()


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

    @pytest.mark.parametrize("schema, shown", [(1, "1"), (2.0, "2.0"),
                                               (True, "True")],
                             ids=["schema-1", "float", "bool"])
    def test_retired_and_non_integer_versions_are_refused_by_name(
            self, tmp_path, capsys, schema, shown):
        from repro.__main__ import main

        path = _with_header(tmp_path, "old.jsonl", schema=schema)
        with pytest.raises(TraceSchemaError) as excinfo:
            read_trace(path)
        assert (f"unsupported trace schema version {shown} (this reader "
                "supports versions 2, 3)") in str(excinfo.value)
        assert main(["replay", str(path)]) == 2
        assert f"unsupported trace schema version {shown}" in capsys.readouterr().err


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

    def test_meta_that_is_not_an_object(self, tmp_path, capsys):
        path = _with_header(tmp_path, "list.jsonl", meta=[3])
        self._verify_fails(path, capsys, "campaign meta is not an object: [3]")


class TestFooterRollups:
    def test_footer_moments_are_exact_over_the_body(self, tmp_path):
        """Every footer number is recomputable from the body's rec lines."""
        path = tmp_path / "soak.jsonl"
        record_soak(path, seed=5, n_windows=3, injectors_per_window=2,
                    n_requests=120)
        trace = read_trace(path)
        durations = {}
        for rec in trace.of_kind("rec"):
            if rec["kind"] == COMPLETION:
                durations.setdefault(rec["subject"], []).append(rec["detail"][1])
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
