"""Streaming trace I/O: the direct completion encoder, the CSV export,
and replay and verify that keep no record.

The sink formats completion lines without the JSON encoder, so the
property here is byte identity with :func:`dumps_line` for every value
the fast path accepts, and a fallback for every value it does not.
Replay folds records as the reader parses them, so its memory must not
grow with the number of records; verify compares files in chunks, and
its divergence report is pinned to the exact byte.
"""

import csv
import gc
import json
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.trace import COMPLETION, STATE_CHANGE, TraceRecord
from repro.telemetry import (
    StreamingTraceSink,
    TraceSummary,
    dumps_line,
    iter_trace,
    read_trace,
    record_campaign,
    record_soak,
    replay_trace,
    verify_trace,
)
from repro.telemetry import record as record_module
from repro.telemetry.sink import _completion_line

GOLDEN = Path(__file__).parent / "data" / "golden_trace_v3.jsonl"

#: A small campaign whose trace holds every record kind, dict details
#: (commas and quotes for the CSV) included.
SMALL = dict(seed=3, workloads=("raid10",), families=("failstop",),
             policies=("fixed-timeout",), scenarios_per_family=1,
             n_requests=12)

EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.1e-308, 1e308, -1e308, 1.0, 3.0,
               2.0 ** 53, 1e16, 0.1]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS)
subjects = st.text() | st.sampled_from(
    ['d"0', "d\\0", "dé", "d\u2028", "d\x00", "\ud800", "节点"])
#: ``csv.reader`` refuses a NUL in any field before Python 3.11.
csv_subjects = st.text() if sys.version_info >= (3, 11) else st.text(
    st.characters(exclude_characters="\x00"))


def _payload(t, subject, detail, kind=COMPLETION):
    return {"k": "rec", "t": t, "kind": kind, "subject": subject,
            "detail": detail}


class TestCompletionEncoder:
    @given(t=floats, subject=subjects, work=floats, duration=floats)
    def test_direct_line_is_dumps_line(self, t, subject, work, duration):
        detail = (work, duration)
        line = _completion_line(t, subject, detail)
        assert line == dumps_line(_payload(t, subject, detail))

    @pytest.mark.parametrize("t, subject, detail", [
        (1.0, "d0", (1, 0.5)),
        (1.0, "d0", (1.0, 2)),
        (1.0, "d0", (np.float64(1.0), 0.5)),
        (np.float64(1.0), "d0", (1.0, 0.5)),
        (1.0, "d0", (True, 0.5)),
        (1.0, "d0", (float("nan"), 0.5)),
        (1.0, "d0", (1.0, float("inf"))),
        (1.0, "d0", (1.0, float("-inf"))),
        (float("inf"), "d0", (1.0, 0.5)),
        (1.0, "d0", [1.0, 0.5]),
        (1.0, "d0", (1.0, 0.5, 2.0)),
        (1.0, 7, (1.0, 0.5)),
    ])
    def test_other_shapes_fall_back_byte_identically(self, tmp_path, t,
                                                     subject, detail):
        assert _completion_line(t, subject, detail) is None
        path = tmp_path / "t.jsonl"
        with StreamingTraceSink(path) as sink:
            sink.on_record(TraceRecord(t, COMPLETION, subject, detail))
        assert path.read_text() == dumps_line(_payload(t, subject, detail))

    def test_sink_lines_are_dumps_lines(self, tmp_path):
        records = [
            TraceRecord(0.25, COMPLETION, 'd"1', (4.0, 0.125)),
            TraceRecord(1, COMPLETION, "d0", (4.0, 0.125)),
            TraceRecord(0.5, STATE_CHANGE, "d0", {"state": "stopped"}),
            TraceRecord(0.75, COMPLETION, "d0", (4, 0.5)),
        ]
        path = tmp_path / "t.jsonl"
        with StreamingTraceSink(path, flush_lines=2) as sink:
            sink.time_offset = 10.0
            for record in records:
                sink.on_record(record)
        assert path.read_text().splitlines(keepends=True) == [
            dumps_line(_payload(10.0 + r.time, r.subject, r.detail, r.kind))
            for r in records
        ]

    def test_writing_after_close_raises(self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "t.jsonl")
        sink.close()
        for detail in ((1.0, 0.5), (1, 0.5)):
            with pytest.raises(ValueError, match="closed"):
                sink.on_record(TraceRecord(1.0, COMPLETION, "d0", detail))
        assert sink.records_written == sink.lines_written == 0


class TestCsvExport:
    def test_csv_rows_mirror_the_rec_lines(self, tmp_path):
        path, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
        record_campaign(path, csv_path=csv_path, **SMALL)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["time", "kind", "subject", "detail"]
        recs = read_trace(path).of_kind("rec")
        assert len(rows) == len(recs)
        assert {rec["kind"] for rec in recs} > {COMPLETION}
        for (time, kind, subject, detail), rec in zip(rows, recs):
            assert (float(time), kind, subject) == (
                rec["t"], rec["kind"], rec["subject"])
            assert json.loads(detail) == rec["detail"]

    @given(subject=csv_subjects, t=floats, work=floats, duration=floats)
    def test_any_subject_round_trips_through_csv_reader(self, subject, t,
                                                        work, duration):
        records = [TraceRecord(t, COMPLETION, subject, (work, duration)),
                   TraceRecord(t, STATE_CHANGE, subject, {"state": 'a,"b"'})]
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "t.csv"
            with StreamingTraceSink(Path(tmp) / "t.jsonl",
                                    csv_path=csv_path) as sink:
                for record in records:
                    sink.on_record(record)
            with open(csv_path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
        assert header == ["time", "kind", "subject", "detail"]
        assert [(float(time), kind, subj, json.loads(detail))
                for time, kind, subj, detail in rows] == [
            (t, COMPLETION, subject, [work, duration]),
            (t, STATE_CHANGE, subject, {"state": 'a,"b"'}),
        ]

    def test_failed_csv_open_closes_the_trace_file(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FileNotFoundError):
                StreamingTraceSink(tmp_path / "t.jsonl",
                                   csv_path=tmp_path / "missing" / "t.csv")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


def _replay_peak(path) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        replay_trace(path)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStreamingReplay:
    @pytest.mark.soak
    def test_replay_memory_does_not_grow_with_the_record_count(self, tmp_path):
        """4x the records, same windows: replay's peak stays flat."""
        paths = {}
        for n_requests in (60, 240):
            paths[n_requests] = tmp_path / f"{n_requests}.jsonl"
            record_soak(paths[n_requests], seed=7, n_windows=6,
                        injectors_per_window=2, n_requests=n_requests,
                        engine="discrete", rolling=2)
        short, long = replay_trace(paths[60]), replay_trace(paths[240])
        assert long.records >= 3 * short.records
        assert len(long.windows) == len(short.windows) == 6
        assert _replay_peak(paths[240]) <= 1.1 * _replay_peak(paths[60])

    def test_replay_keeps_no_record_list(self):
        replay = replay_trace(GOLDEN)
        assert isinstance(replay.read, TraceSummary)
        assert not hasattr(replay.read, "records")
        assert not hasattr(replay.read, "of_kind")
        assert replay.read.clean_close and replay.records == 7

    def test_iterator_stopped_early_closes_the_file(self):
        summary = TraceSummary(path=str(GOLDEN))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for record in iter_trace(GOLDEN, summary):
                break
            gc.collect()
        assert record["k"] == "run-start"
        assert summary.header["k"] == "header" and summary.file_bytes == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestVerifyDivergence:
    """verify_trace reports the first differing byte, across chunk seams."""

    @pytest.fixture(params=[None, 64, 7], ids=["default-chunk", "chunk-64",
                                                "chunk-7"])
    def recorded(self, request, tmp_path, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(record_module, "_COMPARE_CHUNK", request.param)
        path = tmp_path / "t.jsonl"
        record_campaign(path, **SMALL)
        return path, path.read_bytes()

    def test_first_diff_is_the_altered_byte(self, recorded):
        path, blob = recorded
        # The last digit of the last "t" value: the line stays valid JSON.
        at = blob.index(b"}", blob.rindex(b'"t":')) - 1
        digit = blob[at] - ord("0")
        assert 0 <= digit <= 9
        doctored = blob[:at] + bytes([ord("0") + (digit + 1) % 10]) + blob[at + 1:]
        path.write_bytes(doctored)
        assert read_trace(path).clean_close
        result = verify_trace(path)
        assert not result.ok and result.first_diff == at
        assert result.original_bytes == result.regenerated_bytes == len(blob)
        assert repr(doctored[at - 20:at + 20]) in result.reasons[0]

    def test_a_longer_original_diverges_where_the_regeneration_ends(
            self, recorded):
        path, blob = recorded
        footer = blob[blob.rindex(b"\n", 0, len(blob) - 1) + 1:]
        path.write_bytes(blob + footer)
        result = verify_trace(path)
        assert not result.ok and result.first_diff == len(blob)
        assert result.original_bytes == len(blob) + len(footer)
        assert result.regenerated_bytes == len(blob)
