"""The trace schema is version-gated: bytes may not drift under version 2.

``tests/telemetry/data/golden_trace_v2.jsonl`` is a committed schema-v2
trace (a tiny deterministic campaign).  Regenerating the same campaign
today must reproduce it *byte-for-byte*: any change to the line shapes,
key names, float formatting, or record ordering is a schema change and
must come with a ``TRACE_SCHEMA_VERSION`` bump plus a new golden file.
The flip side of the gate is also pinned here: a reader handed a
version it does not know must refuse it by name, through the API and
through the ``replay`` CLI (exit code 2).  The previous golden,
``golden_trace_v1.jsonl``, stays as the read-compatibility fixture
(``tests/faults/test_outcome_columnar.py``).
"""

import json
from pathlib import Path

import pytest

from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    read_trace,
    record_campaign,
    replay_trace,
)

GOLDEN = Path(__file__).parent / "data" / "golden_trace_v2.jsonl"

#: The exact parameters the golden file was recorded with.
GOLDEN_PARAMS = dict(seed=3, workloads=("raid10",), families=("failstop",),
                     policies=("fixed-timeout",), scenarios_per_family=1,
                     n_requests=4)


class TestGoldenBytes:
    def test_schema_version_is_pinned(self):
        assert TRACE_SCHEMA_VERSION == 2, (
            "TRACE_SCHEMA_VERSION moved: record a new golden trace as "
            f"tests/telemetry/data/golden_trace_v{TRACE_SCHEMA_VERSION}.jsonl "
            "and update this test's GOLDEN path"
        )

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
        """Structural pin: the v2 discriminators and their key sets."""
        lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        kinds = [line["k"] for line in lines]
        assert kinds[0] == "header" and kinds[-1] == "end"
        assert {"run-start", "run-end", "rec"} <= set(kinds)
        header = lines[0]
        assert set(header) == {"k", "schema", "format", "mode", "meta", "specs"}
        assert header["schema"] == TRACE_SCHEMA_VERSION
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


class TestVersionGate:
    @pytest.fixture()
    def future_trace(self, tmp_path):
        lines = GOLDEN.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["schema"] = 99
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        return path

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
