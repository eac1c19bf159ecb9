"""Streaming trace I/O: record blocks, the CSV export, and replay and
verify that keep no record.

The sink writes telemetry records as ``recs`` blocks of at most
``flush_lines`` records, so the property here is a round trip: any
record sequence, with other lines interleaved, reads back in order,
every line is :func:`dumps_line` of its parse, and a block is written
exactly when it fills or before any other line.  The CSV bytes are
pinned to the ones the one-line-per-record sink wrote.  Replay folds
records as the reader parses them, so its memory must not grow with
the number of records; verify compares files in chunks, and its
divergence report is pinned to the exact byte.
"""

import csv
import gc
import hashlib
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

from repro.sim.trace import (
    COMPLETION,
    INJECTOR_EVENT,
    SPEC_VIOLATION,
    STATE_CHANGE,
    TraceRecord,
)
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

GOLDEN = Path(__file__).parent / "data" / "golden_trace_v4.jsonl"

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
    ['d"0', "d\\0", "dé", "d ", "d\x00", "\ud800", "节点"])
#: ``csv.reader`` refuses a NUL in any field before Python 3.11.
csv_subjects = st.text() if sys.version_info >= (3, 11) else st.text(
    st.characters(exclude_characters="\x00"))

#: Every number shape a record carries: NaN and the infinities, ints
#: (within float range: the footer folds a duration as ``float``),
#: bools and ``np.float64`` included.
numbers = (st.floats() | st.integers(-2 ** 53, 2 ** 53) | st.booleans()
           | st.floats().map(np.float64))
#: A completion's (work, duration), in the shapes the bus has carried.
completion_details = (st.tuples(numbers, numbers)
                      | st.tuples(numbers, numbers, numbers)
                      | st.lists(numbers, min_size=2, max_size=3))
other_details = st.recursive(
    st.none() | numbers | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
trace_records = st.one_of(
    st.builds(TraceRecord, floats | st.floats().map(np.float64),
              st.just(COMPLETION), subjects, completion_details),
    st.builds(TraceRecord, floats,
              st.sampled_from([STATE_CHANGE, SPEC_VIOLATION, INJECTOR_EVENT]),
              subjects, other_details),
)
#: A record, another line (a window line), or an explicit flush.
steps = st.lists(st.one_of(trace_records, st.just("line"), st.just("flush")),
                 max_size=40)


def _canonical(value) -> str:
    """``value`` in JSON form: tuples as lists, ``np.float64`` as float."""
    return json.dumps(value, sort_keys=True, allow_nan=True)


class TestCompletionEncoder:
    """How the sink encodes records: ``recs`` blocks of canonical JSON."""

    @given(steps=steps, flush_lines=st.integers(1, 5), time_offset=floats)
    def test_records_round_trip_through_blocks(self, steps, flush_lines,
                                               time_offset):
        expected, lines, open_block = [], [("header", None)], 0

        def close_block():
            nonlocal open_block
            if open_block:
                lines.append(("recs", open_block))
            open_block = 0

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            with StreamingTraceSink(path, flush_lines=flush_lines) as sink:
                sink.time_offset = time_offset
                sink.write_header("campaign", meta={}, specs={})
                for step in steps:
                    if step == "flush":
                        sink.flush()
                        close_block()
                    elif step == "line":
                        sink.write_window({"index": len(lines)})
                        close_block()
                        lines.append(("window", None))
                    else:
                        sink.on_record(step)
                        expected.append([time_offset + step.time, step.kind,
                                         step.subject, step.detail])
                        open_block += 1
                        if open_block == flush_lines:
                            close_block()
                sink.write_end()
                close_block()
                lines.append(("end", None))
            text = path.read_text(encoding="utf-8")
            trace = read_trace(path)
        written = text.splitlines(keepends=True)
        assert all(line == dumps_line(json.loads(line)) for line in written)
        parsed = [json.loads(line) for line in written]
        assert [(line["k"], len(line["t"]) if line["k"] == "recs" else None)
                for line in parsed] == lines
        assert all(len(line["t"]) <= flush_lines for line in parsed
                   if line["k"] == "recs")
        assert [_canonical([r.time, r.kind, r.subject, r.detail])
                for r in trace.telemetry()] == [_canonical(r) for r in expected]
        assert parsed[-1]["records"] == len(expected)

    def test_sink_lines_are_dumps_lines(self, tmp_path):
        records = [
            TraceRecord(0.25, COMPLETION, 'd"1', (4.0, 0.125)),
            TraceRecord(1, COMPLETION, "d0", (4.0, 0.125)),
            TraceRecord(0.5, STATE_CHANGE, "d0", {"state": "stopped"}),
            TraceRecord(0.75, COMPLETION, "d0", (4, 0.5)),
            TraceRecord(0.875, COMPLETION, "d1", (4.0, 0.25)),
        ]
        path = tmp_path / "t.jsonl"
        with StreamingTraceSink(path, flush_lines=2) as sink:
            sink.time_offset = 10.0
            for record in records:
                sink.on_record(record)
        assert path.read_text().splitlines(keepends=True) == [
            dumps_line({
                "k": "recs",
                "t": [10.0 + r.time for r in block],
                "kind": [r.kind for r in block],
                "subject": [r.subject for r in block],
                "detail": [r.detail for r in block],
            })
            for block in (records[:2], records[2:4], records[4:])
        ]

    def test_writing_after_close_raises(self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "t.jsonl")
        sink.close()
        for detail in ((1.0, 0.5), (1, 0.5)):
            with pytest.raises(ValueError, match="closed"):
                sink.on_record(TraceRecord(1.0, COMPLETION, "d0", detail))
        assert sink.records_written == sink.lines_written == 0

    def test_close_closes_both_files_when_the_block_fails_to_encode(
            self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "t.jsonl",
                                  csv_path=tmp_path / "t.csv")
        sink.on_record(TraceRecord(1.0, STATE_CHANGE, "d0", object()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(TypeError, match="not JSON serializable"):
                sink.close()
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        sink.close()  # idempotent: the block that failed is gone
        assert (tmp_path / "t.jsonl").read_text() == ""
        assert sink.records_written == sink.lines_written == 0


class TestCsvExport:
    def test_csv_rows_mirror_the_rec_lines(self, tmp_path):
        path, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
        record_campaign(path, csv_path=csv_path, **SMALL)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["time", "kind", "subject", "detail"]
        recs = read_trace(path).telemetry()
        assert len(rows) == len(recs)
        assert {rec.kind for rec in recs} > {COMPLETION}
        for (time, kind, subject, detail), rec in zip(rows, recs):
            assert (float(time), kind, subject) == (
                rec.time, rec.kind, rec.subject)
            assert json.loads(detail) == rec.detail

    @pytest.mark.parametrize("record, digest, rows", [
        (lambda path, csv_path: record_campaign(
            path, csv_path=csv_path, seed=3, workloads=("raid10",),
            families=("failstop",), policies=("fixed-timeout",),
            scenarios_per_family=1, n_requests=4),
         "27d049aa941d234aa289a98f951ac0dfb90ce9f334a38225bf1752e591193182", 7),
        (lambda path, csv_path: record_soak(
            path, csv_path=csv_path, seed=3, workload="raid10",
            family="magnitude", policy="stutter-aware", n_windows=2,
            injectors_per_window=1, n_requests=6),
         "14e9c34bad60c1b7c9920800f114e2942518f495b74ab2df14bb758cdd21c0b8", 18),
        # Re-pinned when the hybrid engine began parking degraded
        # members: requests that run fluid emit no completion record.
        (lambda path, csv_path: record_soak(
            path, csv_path=csv_path, seed=7, n_windows=2, n_requests=600),
         "765302f3f425c114a548911dc944eae38e8fee6a493e2df4f2483f5d179c1eba", 410),
    ], ids=["golden-campaign", "golden-soak", "seed-7-soak"])
    def test_csv_bytes_are_pinned(self, tmp_path, record, digest, rows):
        """The CSV rows are the ones the one-line-per-record sink wrote."""
        csv_path = tmp_path / "t.csv"
        record(tmp_path / "t.jsonl", csv_path)
        blob = csv_path.read_bytes()
        assert blob.count(b"\n") == rows + 1
        assert hashlib.sha256(blob).hexdigest() == digest

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

    @pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
    def test_csv_path_naming_the_trace_is_refused(self, tmp_path, spelling):
        """Before either file opens, so the trace keeps its bytes."""
        trace = tmp_path / "u.jsonl"
        trace.write_bytes(GOLDEN.read_bytes())
        csv_path = {"same": trace, "dotted": tmp_path / "." / "u.jsonl",
                    "link": tmp_path / "link.jsonl"}[spelling]
        if spelling == "link":
            csv_path.hardlink_to(trace)
        with pytest.raises(ValueError, match="names the trace file"):
            StreamingTraceSink(trace, csv_path=csv_path)
        assert trace.read_bytes() == GOLDEN.read_bytes()


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
        """4x the records, same windows: replay's peak stays flat.

        Replay holds one ``recs`` block at a time, and both sizes fill
        blocks in every window, so the peak holds one full block either
        way.
        """
        paths = {}
        for n_requests in (600, 2400):
            paths[n_requests] = tmp_path / f"{n_requests}.jsonl"
            record_soak(paths[n_requests], seed=7, n_windows=6,
                        injectors_per_window=2, n_requests=n_requests,
                        engine="discrete", rolling=2)
        short, long = replay_trace(paths[600]), replay_trace(paths[2400])
        assert long.records >= 3 * short.records
        assert len(long.windows) == len(short.windows) == 6
        assert _replay_peak(paths[2400]) <= 1.1 * _replay_peak(paths[600])

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
        # The last digit of the last "t" column: the line stays valid JSON.
        at = blob.index(b"]", blob.rindex(b'"t":[')) - 1
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


class TestVerifyNamesTheEngineMix:
    """When the bytes differ, verify names the first run or window whose
    ``execution`` envelope differs: a change in how many requests ran
    discrete shows there, not at a byte offset."""

    @staticmethod
    def _doctor(path, old: bytes, new: bytes, occurrence: int) -> None:
        blob = path.read_bytes()
        at = -1
        for __ in range(occurrence + 1):
            at = blob.index(old, at + 1)
        path.write_bytes(blob[:at] + new + blob[at + len(old):])
        assert read_trace(path).clean_close

    def test_a_window_with_another_discrete_count_is_named(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record_soak(path, seed=3, n_windows=2, injectors_per_window=1,
                    n_requests=60)
        envelope = b'"execution":{"discrete_requests":19,'
        assert path.read_bytes().count(envelope) == 2
        self._doctor(path, envelope,
                     b'"execution":{"discrete_requests":1010,', 1)
        result = verify_trace(path)
        assert not result.ok and len(result.reasons) == 2
        assert result.reasons[0].startswith("regenerated trace diverges")
        assert result.reasons[1] == (
            "window 1: recorded 1,010 discrete requests, regenerated 19")

    def test_a_run_on_another_engine_is_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record_campaign(path, seed=3, workloads=("raid10",),
                        families=("magnitude",), policies=("stutter-aware",),
                        scenarios_per_family=1, n_requests=60, engine="hybrid")
        self._doctor(path, b'"engine":"hybrid","fallback":null',
                     b'"engine":"discrete","fallback":"refused"', 0)
        result = verify_trace(path)
        assert not result.ok
        assert result.reasons[1:] == [
            "run 0: recorded engine 'discrete', regenerated 'hybrid'; "
            "recorded fallback 'refused', regenerated None"]

    def test_matching_envelopes_add_no_reason(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record_campaign(path, **SMALL)
        blob = path.read_bytes()
        at = blob.index(b'"t":[') + len(b'"t":[')
        path.write_bytes(blob[:at] + b"1" + blob[at:])
        result = verify_trace(path)
        assert not result.ok and result.first_diff == at
        assert len(result.reasons) == 1


class TestVerifyKeepsTheOriginal:
    """A keep-regenerated path that names the trace is refused by name."""

    @pytest.fixture()
    def doctored(self, tmp_path):
        path = tmp_path / "p.jsonl"
        record_campaign(path, **SMALL)
        blob = path.read_bytes()
        # The last digit of the last completion time, in a "t" column or
        # (one record per line) a "t" value.
        start = blob.rindex(b'"t":')
        at = min(end for end in (blob.find(b"]", start), blob.find(b"}", start))
                 if end >= 0) - 1
        blob = blob[:at] + bytes([ord("0") + (blob[at] - ord("0") + 1) % 10]) \
            + blob[at + 1:]
        path.write_bytes(blob)
        return path, blob

    @pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
    def test_keep_path_naming_the_trace_is_refused(self, doctored, spelling):
        path, blob = doctored
        assert not verify_trace(path).ok
        keep = {"same": path, "dotted": path.parent / "." / path.name,
                "link": path.parent / "link.jsonl"}[spelling]
        if spelling == "link":
            keep.hardlink_to(path)
        result = verify_trace(path, keep_regenerated=str(keep))
        assert not result.ok and result.first_diff is None
        (reason,) = result.reasons
        assert "is the trace itself" in reason and str(keep) in reason
        assert path.read_bytes() == blob

    def test_cli_reports_it_and_leaves_the_trace(self, doctored, capsys):
        from repro.__main__ import main

        path, blob = doctored
        assert main(["replay", str(path), "--verify",
                     "--keep-regenerated", str(path)]) == 1
        out = capsys.readouterr().out
        assert "VERIFY FAILED" in out and "is the trace itself" in out
        assert "VERIFIED" not in out.replace("VERIFY FAILED", "")
        assert path.read_bytes() == blob


class TestRecordersRefuseBeforeWriting:
    """A refused argument leaves an existing file at ``path`` untouched."""

    @pytest.mark.parametrize("record, kwargs, error, match", [
        (record_soak, dict(n_windows=1, injectors_per_window=-1, n_requests=20),
         ValueError, "injectors_per_window must be >= 0, got -1"),
        (record_soak, dict(n_windows=1, n_requests=0),
         ValueError, "n_requests must be >= 1, got 0"),
        (record_campaign, dict(scenarios_per_family=0, n_requests=20),
         ValueError, "scenarios_per_family must be >= 1, got 0"),
        (record_campaign, dict(workloads=("nope",), n_requests=20),
         KeyError, "no bundled spec"),
    ], ids=["soak-injectors", "soak-requests", "campaign-scenarios",
            "campaign-workload"])
    def test_existing_file_keeps_its_bytes(self, tmp_path, record, kwargs,
                                           error, match):
        path = tmp_path / "kept.jsonl"
        path.write_bytes(b"untouched")
        with pytest.raises(error, match=match):
            record(path, **kwargs)
        assert path.read_bytes() == b"untouched"

    @pytest.mark.parametrize("record, kwargs, error, match", [
        (record_campaign, dict(policies=("nope",)), KeyError, "no policy 'nope'"),
        (record_campaign, dict(engine="turbo"), ValueError,
         "engine must be 'discrete' or 'hybrid', got 'turbo'"),
        (record_soak, dict(policy="nope", n_windows=1), KeyError,
         "no policy 'nope'"),
        (record_soak, dict(engine="turbo", n_windows=1), ValueError,
         "engine must be 'discrete' or 'hybrid', got 'turbo'"),
    ], ids=["campaign-policy", "campaign-engine", "soak-policy", "soak-engine"])
    def test_an_unknown_policy_or_engine_keeps_the_file(self, tmp_path, record,
                                                        kwargs, error, match):
        path = tmp_path / "kept.jsonl"
        path.write_bytes(b"untouched")
        with pytest.raises(error, match=match):
            record(path, n_requests=20, **kwargs)
        assert path.read_bytes() == b"untouched"

    def test_a_campaign_refuses_an_unknown_policy_before_any_run(self,
                                                               monkeypatch):
        from repro.faults import campaign

        runs = []
        monkeypatch.setattr(campaign, "run_scenario",
                            lambda *args, **kwargs: runs.append(args))
        with pytest.raises(KeyError, match="no policy 'nope'"):
            campaign.run_campaign(policies=("hedged", "nope"), n_requests=20)
        assert runs == []
