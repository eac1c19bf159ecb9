"""Crash-truncation recovery: a torn trace reads as its valid prefix.

A trace survives a crash precisely when the reader can recover the
valid prefix of a torn file; damage shortens what is read, it never
fails the read.  The sweep here cuts the file at *every* byte offset and
demands that the reader (and the replay built on it) recover without
ever raising, report exactly where validity ended, and never mis-count
a half-written record as whole.
The campaign recording and the golden soak (two windows, so two
``recs`` blocks between window lines) are both swept.
"""

from pathlib import Path

import pytest

from repro.telemetry import (
    TraceError,
    TraceSchemaError,
    read_trace,
    record_campaign,
    replay_trace,
)


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "full.jsonl"
    record_campaign(path, seed=3, workloads=("raid10",), families=("failstop",),
                    policies=("fixed-timeout",), scenarios_per_family=1,
                    n_requests=4)
    return path.read_bytes()


@pytest.fixture()
def trace_file(tmp_path):
    return tmp_path / "cut.jsonl"


SOAK_GOLDEN = Path(__file__).parent / "data" / "golden_soak_v4.jsonl"


def _line_offsets(blob):
    """Byte offset of the end of each complete line."""
    offsets, pos = [], 0
    while True:
        newline = blob.find(b"\n", pos)
        if newline < 0:
            return offsets
        pos = newline + 1
        offsets.append(pos)


def _sweep_every_offset(blob, trace_file):
    """Cut ``blob`` at every offset; each cut must read as a prefix."""
    line_ends = _line_offsets(blob)
    trace_file.write_bytes(blob)
    full = read_trace(trace_file)
    for cut in range(len(blob)):
        trace_file.write_bytes(blob[:cut])
        read = read_trace(trace_file)  # must never raise
        # The valid prefix ends at the last whole line before the cut.
        expected_valid = max([o for o in line_ends if o <= cut], default=0)
        assert read.bytes_valid == expected_valid, f"cut={cut}"
        if expected_valid < cut:
            assert read.truncated and read.truncated_at == expected_valid
        else:
            assert not read.truncated
        # Never a clean close short of the full file.
        assert not read.clean_close
        # Recovered lines are exactly a prefix of the full parse.
        recovered = ([read.header] if read.header else []) + read.records
        reference = [full.header] + full.records
        assert recovered == reference[:len(recovered)], f"cut={cut}"


class TestEveryByteOffset:
    def test_whole_file_reads_clean(self, trace_bytes, trace_file):
        trace_file.write_bytes(trace_bytes)
        read = read_trace(trace_file)
        assert read.clean_close and not read.truncated
        assert read.bytes_valid == len(trace_bytes)
        assert read.records[-1]["k"] == "end"

    def test_truncation_at_every_offset_recovers_a_prefix(
        self, trace_bytes, trace_file
    ):
        """No cut may raise; every cut yields a prefix and a report."""
        _sweep_every_offset(trace_bytes, trace_file)

    def test_soak_truncation_at_every_offset_recovers_a_prefix(
        self, trace_file
    ):
        _sweep_every_offset(SOAK_GOLDEN.read_bytes(), trace_file)

    def test_replay_never_raises_on_any_cut(self, trace_bytes, trace_file):
        """Replay of any prefix long enough to hold the header works."""
        header_end = _line_offsets(trace_bytes)[0]
        for cut in range(header_end, len(trace_bytes), 97):
            trace_file.write_bytes(trace_bytes[:cut])
            replay = replay_trace(trace_file)
            assert replay.read.bytes_valid <= cut
            for run in replay.runs:
                assert run.complete in (True, False)

    def test_partial_run_is_reported_partial(self, trace_bytes, trace_file):
        """Cut between run-start and run-end: the run shows as partial."""
        # Keep the header, the run-start line, and the block of records.
        offsets = _line_offsets(trace_bytes)
        trace_file.write_bytes(trace_bytes[:offsets[2]])
        replay = replay_trace(trace_file)
        assert replay.records == 7
        assert len(replay.runs) == 1
        assert replay.runs[0].complete is False
        assert "(partial)" in replay.scorecard().render()


class TestGarbageTails:
    def test_non_utf8_tail_is_a_crash_artifact(self, trace_bytes, trace_file):
        trace_file.write_bytes(trace_bytes + b"\xff\xfe\x00garbage")
        read = read_trace(trace_file)
        assert read.truncated and read.truncated_at == len(trace_bytes)
        assert read.clean_close is False
        assert read.records[-1]["k"] == "end"

    def test_non_utf8_tail_with_newlines_still_stops(self, trace_bytes,
                                                     trace_file):
        trace_file.write_bytes(trace_bytes + b"\xff\xfe\n\xff\xfe\n")
        read = read_trace(trace_file)
        assert read.truncated and read.truncated_at == len(trace_bytes)

    def test_garbage_mid_file_ends_the_valid_prefix(self, trace_bytes,
                                                    trace_file):
        offsets = _line_offsets(trace_bytes)
        cut = offsets[3]
        trace_file.write_bytes(
            trace_bytes[:cut] + b"{ not json\n" + trace_bytes[cut:]
        )
        read = read_trace(trace_file)
        assert read.truncated and read.truncated_at == cut

    @pytest.mark.parametrize("columns", [
        {"t": [1.0, 2.0], "kind": ["completion"], "subject": ["d0"],
         "detail": [[1.0, 0.5]]},
        {"t": 1.0, "kind": "completion", "subject": "d0",
         "detail": [1.0, 0.5]},
        {"kind": ["completion"], "subject": ["d0"], "detail": [[1.0, 0.5]]},
    ], ids=["ragged", "scalars", "missing"])
    def test_a_malformed_block_ends_the_valid_prefix(self, trace_bytes,
                                                     trace_file, columns):
        """A ``recs`` line is valid only as four lists of one length."""
        import json

        cut = _line_offsets(trace_bytes)[1]
        block = json.dumps({"k": "recs", **columns}).encode() + b"\n"
        trace_file.write_bytes(trace_bytes[:cut] + block + trace_bytes[cut:])
        read = read_trace(trace_file)
        assert read.truncated and read.truncated_at == cut
        replay = replay_trace(trace_file)
        assert replay.records == 0 and replay.read.truncated_at == cut

    def test_empty_file_is_truncation_not_an_error(self, trace_file):
        trace_file.write_bytes(b"")
        read = read_trace(trace_file)
        assert read.header is None and not read.records
        assert not read.clean_close


class TestIntactButWrongFiles:
    """Mis-reads of healthy files must raise, not 'recover'."""

    def test_non_trace_jsonl_raises_trace_error(self, trace_file):
        trace_file.write_text('{"k":"rec","t":0}\n')
        with pytest.raises(TraceError, match="not a repro trace"):
            read_trace(trace_file)

    def test_unknown_schema_version_raises_by_name(self, trace_bytes,
                                                   trace_file):
        import json

        header_end = _line_offsets(trace_bytes)[0]
        header = json.loads(trace_bytes[:header_end])
        header["schema"] = 99
        doctored = (json.dumps(header).encode() + b"\n"
                    + trace_bytes[header_end:])
        trace_file.write_bytes(doctored)
        with pytest.raises(TraceSchemaError, match=r"version 99"):
            read_trace(trace_file)

    def test_schema_error_is_a_trace_error(self):
        assert issubclass(TraceSchemaError, TraceError)
