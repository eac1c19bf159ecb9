"""Bounded streaming trace export for the TelemetryBus.

The TelemetryBus is an in-memory fan-out: nothing survives the run.
:class:`StreamingTraceSink` is what keeps it -- a bus tap, attached by
passing the sink as a run's ``sink=`` (``run_scenario``,
``run_scenario_hybrid``, ``run_campaign``, ``run_soak``), that writes
the records to disk in blocks of at most ``flush_lines`` and keeps only
O(subjects) state plus the one open block in memory: per-subject record
counts and the :class:`~repro.sim.metrics.StreamingMoments` of
completion durations, folded as each block is written and written out
once in the trace footer.  The footer holds no quantile: the body
records every completion, so a reader computes any quantile it wants
exactly from the ``recs`` lines.

Trace format (schema version 4), one JSON object per line, keys
sorted, no whitespace -- fully deterministic, so a re-run of the same
recording is byte-identical (what ``replay --verify`` checks):

``{"k":"header","schema":4,"format":"repro-trace","mode":...,"meta":...,
"specs":...}``
    First line.  ``meta`` holds every parameter needed to regenerate
    the trace; ``specs`` maps the bundled/embedded scenario-spec names
    used to their PR-9 digests, pinning what the run actually ran.
``{"k":"run-start","run":N,...,"events":[...]}``
    One per recorded run (or soak window), with the fault schedule.
``{"k":"recs","t":[...],"kind":[...],"subject":[...],"detail":[...]}``
    A block of TelemetryBus records as four columns of one length:
    record *i* is ``(t[i], kind[i], subject[i], detail[i])``.  ``t`` is
    global virtual time (:attr:`StreamingTraceSink.time_offset` + the
    record's run-local time, so soak windows share one time axis).
    The open block is written when it holds ``flush_lines`` records,
    before any other line, and on :meth:`~StreamingTraceSink.flush`
    and :meth:`~StreamingTraceSink.close`.
``{"k":"run-end","run":N,...}`` / ``{"k":"window",...}``
    Exact counters, the outcome digest (v2), the exact latency
    statistics -- ``moments`` (``StreamingMoments`` state folded from
    every sample) and ``p50``/``p99`` as ``{"q":..,"value":..}``
    (``np.quantile``), what replay rebuilds scorecards from -- and the
    ``execution`` envelope: the engine that ran, the hybrid fallback
    message or null, and how many requests ran discrete.
``{"k":"end","records":N,"subjects":...}``
    Footer: total record count and, per subject, ``kinds`` (records per
    kind) and, once the subject has completed work, ``completions``
    (``StreamingMoments`` state over its completion durations).  Its
    presence marks a cleanly closed trace.

Invariants (DESIGN.md section 1.11): the file is append-only; writes are
line-atomic (every line, a block included, is written and flushed
whole, never a partial line by the sink's own hand); readers must
version-gate on ``schema`` and treat anything after the last parseable
line as a crash artifact.  Every line is byte-identical to
:func:`dumps_line` of its payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..sim.metrics import ExactQuantile, StreamingMoments
from ..sim.trace import COMPLETION

__all__ = ["TRACE_SCHEMA_VERSION", "TRACE_FORMAT", "StreamingTraceSink", "dumps_line"]

#: Bump on ANY change to the line shapes above; the golden-trace test
#: (``tests/telemetry/test_golden_schema.py``) fails if the bytes the
#: sink produces change while this stays put, and the reader refuses
#: versions it does not know by name.  Version 2: outcome digest v2 and
#: exact run-end/window latency statistics.  Version 3: the footer's
#: per-subject rollups no longer carry a P² ``p99`` estimate; ``kinds``
#: and ``completions`` are unchanged.  Version 4: records are written
#: as ``recs`` blocks instead of one ``rec`` line each, and ``run-end``
#: and ``window`` lines carry the ``execution`` envelope.
TRACE_SCHEMA_VERSION = 4

#: Sanity tag in the header, so a random JSONL file is not mistaken for
#: a trace.
TRACE_FORMAT = "repro-trace"


#: The canonical encoder, built once: ``json.dumps`` with non-default
#: arguments would construct a fresh ``JSONEncoder`` on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=True)


def dumps_line(payload: Dict[str, Any]) -> str:
    """One canonical trace line (sorted keys, compact, ``\\n``-terminated).

    ``allow_nan`` stays on: empty streaming recorders carry
    ``Infinity``/``-Infinity`` extremes, and Python's reader accepts
    the literals back unchanged.
    """
    return _ENCODER.encode(payload) + "\n"


def same_file(a, b) -> bool:
    """True when paths ``a`` and ``b`` name one file.

    One resolved path, or two names (a link) of one existing file.
    """
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _csv_quote(text: str) -> str:
    """One CSV field, quoted: commas, quotes and newlines stay inside it."""
    return '"' + text.replace('"', '""') + '"'


class _SubjectStats:
    """O(1)-memory rollup of one subject's record stream."""

    __slots__ = ("kinds", "completions")

    def __init__(self):
        self.kinds: Dict[str, int] = {}
        self.completions = StreamingMoments()

    def observe(self, kind: str, detail: Any) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == COMPLETION:
            # Completion detail is (work, duration); the duration is
            # what detectors consume, so it is what the rollup tracks.
            self.completions.push(float(detail[1]))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kinds": self.kinds}
        if self.completions.count:
            payload["completions"] = self.completions.to_dict()
        return payload


class StreamingTraceSink:
    """A TelemetryBus tap streaming schema-versioned JSONL (and CSV).

    Pass it to a run as ``sink=``; the run subscribes :meth:`on_record`
    to its fresh system's bus.  One sink serves many runs over its life
    (a soak campaign passes it to every window, bumping
    :attr:`time_offset` so the trace keeps one global time axis).
    Memory is bounded: :meth:`on_record` appends to the open block,
    which is written as one ``recs`` line once it holds ``flush_lines``
    records, and only the per-subject streaming rollups are retained.

    Usable as a context manager; :meth:`close` writes the open block.
    The caller owns the record/footer protocol (see
    :mod:`repro.telemetry.record` for the stock orchestrations).
    ``csv_path`` may not name the trace file: writing both would leave
    only the CSV.
    """

    def __init__(self, path, csv_path=None, flush_lines: int = 256):
        if flush_lines < 1:
            raise ValueError(f"flush_lines must be >= 1, got {flush_lines}")
        if csv_path is not None and same_file(path, csv_path):
            raise ValueError(
                f"csv_path {str(csv_path)!r} names the trace file "
                f"{str(path)!r}; the CSV would overwrite the trace"
            )
        self.path = path
        self.csv_path = csv_path
        self.flush_lines = flush_lines
        #: Added to every record's run-local timestamp on write; soak
        #: drivers set it to the window's global start time.
        self.time_offset = 0.0
        self.records_written = 0
        self.lines_written = 0
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8",
                                          newline="")
        self._csv: Optional[TextIO] = None
        if csv_path is not None:
            try:
                self._csv = open(csv_path, "w", encoding="utf-8", newline="")
                self._csv.write("time,kind,subject,detail\n")
            except BaseException:
                # The caller never receives the sink, so nothing else
                # could close the trace file.
                self._fh.close()
                raise
        #: The open block: ``(t, kind, subject, detail)`` per record.
        self._block: List[Tuple[Any, Any, Any, Any]] = []
        self._stats: Dict[str, _SubjectStats] = {}
        self._header_written = False
        self._end_written = False

    # -- line plumbing ---------------------------------------------------------

    def _write_line(self, payload: Dict[str, Any]) -> None:
        """Write the open block, then ``payload`` as one line."""
        self._write_block()
        self._put(dumps_line(payload))

    def _put(self, line: str) -> None:
        """Write one whole line through to the OS."""
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._fh.write(line)
        self._fh.flush()
        self.lines_written += 1

    def _write_block(self) -> None:
        """Write the open block as one ``recs`` line, then fold it.

        The block is taken before it is encoded, so a record the encoder
        refuses loses its block (the error propagates) rather than
        failing every later write.  The footer rollups and the CSV rows
        follow the block in record order.
        """
        block = self._block
        if not block:
            return
        self._block = []
        times, kinds, subjects, details = zip(*block)
        self._put(dumps_line({"k": "recs", "t": times, "kind": kinds,
                              "subject": subjects, "detail": details}))
        self.records_written += len(block)
        stats = self._stats
        for __, kind, subject, detail in block:
            rollup = stats.get(subject)
            if rollup is None:
                rollup = stats[subject] = _SubjectStats()
            rollup.observe(kind, detail)
        if self._csv is not None:
            self._csv.write("".join([
                f"{t!r},{kind},{_csv_quote(str(subject))},"
                f"{_csv_quote(_ENCODER.encode(detail))}\n"
                for t, kind, subject, detail in block
            ]))

    def flush(self) -> None:
        """Write the open block through to the OS (no-op once closed).

        Line atomicity: every line, a block included, is written and
        flushed whole, so a crash loses a suffix of records, never half
        a line of the sink's own making.  (The OS may still tear the
        last write; the reader's valid-prefix recovery covers it.)
        """
        if self._fh is not None:
            self._write_block()

    # -- the trace protocol ----------------------------------------------------

    def write_header(self, mode: str, meta: Dict[str, Any],
                     specs: Dict[str, str]) -> None:
        """The first line: schema version, run parameters, spec digests."""
        if self._header_written:
            raise ValueError("trace header already written")
        self._header_written = True
        self._write_line({
            "k": "header",
            "schema": TRACE_SCHEMA_VERSION,
            "format": TRACE_FORMAT,
            "mode": mode,
            "meta": meta,
            "specs": specs,
        })

    def write_run_start(self, run: int, workload: str, family: str,
                        index: int, seed: int, policy: str, engine: str,
                        events, start: Optional[float] = None) -> None:
        """Announce one recorded run (or soak window) and its schedule."""
        payload: Dict[str, Any] = {
            "k": "run-start",
            "run": run,
            "workload": workload,
            "family": family,
            "index": index,
            "seed": seed,
            "policy": policy,
            "engine": engine,
            "events": [asdict(e) for e in events],
        }
        if start is not None:
            payload["start"] = start
        self._write_line(payload)

    def write_run_end(self, run: int, outcome) -> None:
        """Exact counters, latency statistics and execution of one run.

        ``outcome`` is a :class:`repro.faults.campaign.ScenarioOutcome`
        (duck-typed).  The raw latency array is *not* written -- its
        moments and p50/p99, folded from every sample, rebuild every
        scorecard column, and the outcome digest pins the full-precision
        identity.  ``execution`` is the outcome's
        :meth:`~repro.faults.campaign.ScenarioOutcome.execution` envelope.
        """
        moments = StreamingMoments.of(outcome.latencies)
        p50, p99 = ExactQuantile.of(outcome.latencies, (0.5, 0.99))
        self._write_line({
            "k": "run-end",
            "run": run,
            "workload": outcome.workload,
            "family": outcome.family,
            "index": outcome.scenario_index,
            "policy": outcome.policy,
            "requests": outcome.n_requests,
            "slo": outcome.slo,
            "slo_violations": outcome.slo_violations,
            "failed_requests": outcome.failed_requests,
            "issued_work": outcome.issued_work,
            "completed_work": outcome.completed_work,
            "claimed_work": outcome.claimed_work,
            "wasted_work": outcome.wasted_work,
            "failed_work": outcome.failed_work,
            "digest": outcome.digest(),
            "moments": moments.to_dict(),
            "p50": p50.to_dict(),
            "p99": p99.to_dict(),
            "oracle_violations": list(outcome.violations),
            "execution": outcome.execution(),
        })

    def write_window(self, payload: Dict[str, Any]) -> None:
        """One soak window's scorecard (``SoakWindow.to_dict`` form)."""
        self._write_line({"k": "window", **payload})

    def write_end(self) -> None:
        """The footer: record totals and per-subject streaming rollups."""
        if self._end_written:
            raise ValueError("trace footer already written")
        self._end_written = True
        self._write_block()  # its records count in the footer
        self._write_line({
            "k": "end",
            "records": self.records_written,
            "subjects": {
                name: stats.to_dict()
                for name, stats in sorted(self._stats.items())
            },
        })

    # -- the bus tap -----------------------------------------------------------

    def on_record(self, record) -> None:
        """The ``subscribe_all`` callback: add one TraceRecord to the block."""
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        block = self._block
        block.append((self.time_offset + record.time, record.kind,
                      record.subject, record.detail))
        if len(block) >= self.flush_lines:
            self._write_block()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Write the open block and close the file(s).  Idempotent.

        Both files close even when the block fails to encode; the error
        then propagates.
        """
        try:
            self.flush()
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if self._csv is not None:
                self._csv.close()
                self._csv = None

    def __enter__(self) -> "StreamingTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
