"""Bounded streaming trace export for the TelemetryBus.

The TelemetryBus is an in-memory fan-out: nothing survives the run, and
capturing a long campaign with a :class:`~repro.sim.trace.Tracer` means
retaining every record in RAM.  :class:`StreamingTraceSink` is the
production counterpart -- a bus tap (``System.attach_sink``) that writes
each record to disk as one self-contained JSONL line and keeps only
O(subjects) state in memory: per-subject record counts and the
:class:`~repro.sim.metrics.StreamingMoments` of completion durations,
rolled as records stream through and written out once in the trace
footer.  The footer holds no quantile: the body records every
completion, so a reader computes any quantile it wants exactly from the
``rec`` lines.

Trace format (schema version 3), one JSON object per line, keys
sorted, no whitespace -- fully deterministic, so a re-run of the same
recording is byte-identical (what ``replay --verify`` checks):

``{"k":"header","schema":3,"format":"repro-trace","mode":...,"meta":...,
"specs":...}``
    First line.  ``meta`` holds every parameter needed to regenerate
    the trace; ``specs`` maps the bundled/embedded scenario-spec names
    used to their PR-9 digests, pinning what the run actually ran.
``{"k":"run-start","run":N,...,"events":[...]}``
    One per recorded run (or soak window), with the fault schedule.
``{"k":"rec","t":...,"kind":...,"subject":...,"detail":...}``
    One TelemetryBus record; ``t`` is global virtual time
    (:attr:`StreamingTraceSink.time_offset` + the record's run-local
    time, so soak windows share one time axis).
``{"k":"run-end","run":N,...}`` / ``{"k":"window",...}``
    Exact counters, the outcome digest (v2), and the exact latency
    statistics: ``moments`` (``StreamingMoments`` state folded from
    every sample) and ``p50``/``p99`` as ``{"q":..,"value":..}``
    (``np.quantile``) -- what replay rebuilds scorecards from.
``{"k":"end","records":N,"subjects":...}``
    Footer: total record count and, per subject, ``kinds`` (records per
    kind) and, once the subject has completed work, ``completions``
    (``StreamingMoments`` state over its completion durations).  Its
    presence marks a cleanly closed trace.

Invariants (DESIGN.md section 1.11): the file is append-only; writes are
line-atomic (the sink buffers *complete* lines and flushes them in
bounded chunks, never a partial line by its own hand); readers must
version-gate on ``schema`` and treat anything after the last parseable
line as a crash artifact.

Every line is byte-identical to :func:`dumps_line` of its payload.
Completion records, nearly every line of a long trace, skip the JSON
encoder: they are formatted with ``float.__repr__`` and
``json.encoder.encode_basestring_ascii``, which is what the encoder
calls for them, when the subject is a ``str`` and the time, work and
duration are finite and of type exactly ``float`` (the detail a
2-tuple).  Any other record, or a completion of any other shape, goes
through :func:`dumps_line`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, TextIO

from ..sim.metrics import ExactQuantile, StreamingMoments
from ..sim.trace import COMPLETION

__all__ = ["TRACE_SCHEMA_VERSION", "TRACE_FORMAT", "StreamingTraceSink", "dumps_line"]

#: Bump on ANY change to the line shapes above; the golden-trace test
#: (``tests/telemetry/test_golden_schema.py``) fails if the bytes the
#: sink produces change while this stays put, and the reader refuses
#: versions it does not know by name.  Version 2: outcome digest v2 and
#: exact run-end/window latency statistics.  Version 3: the footer's
#: per-subject rollups no longer carry a P² ``p99`` estimate; ``kinds``
#: and ``completions`` are unchanged.
TRACE_SCHEMA_VERSION = 3

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


def _csv_quote(text: str) -> str:
    """One CSV field, quoted: commas, quotes and newlines stay inside it."""
    return '"' + text.replace('"', '""') + '"'


_INF = float("inf")
_COMPLETION_KIND = encode_basestring_ascii(COMPLETION)


def _completion_line(t: Any, subject: Any, detail: Any) -> Optional[str]:
    """``dumps_line`` of a completion ``rec`` line, or None to fall back.

    Formats only the shape the module docstring names, the one whose
    bytes are known; the keys are written in sorted order.
    """
    if type(detail) is not tuple or len(detail) != 2 or type(subject) is not str:
        return None
    work, duration = detail
    if (type(work) is float and type(duration) is float and type(t) is float
            and -_INF < work < _INF and -_INF < duration < _INF
            and -_INF < t < _INF):
        return (f'{{"detail":[{work!r},{duration!r}],"k":"rec","kind":'
                f'{_COMPLETION_KIND},"subject":{encode_basestring_ascii(subject)},'
                f'"t":{t!r}}}\n')
    return None


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

    Attach with ``system.attach_sink(sink)``; one sink instance may be
    attached to many systems over its life (a soak campaign attaches it
    to a fresh system per window, bumping :attr:`time_offset` so the
    trace keeps one global time axis).  Memory is bounded: records go
    straight to the line buffer (flushed every ``flush_lines`` complete
    lines) and only the per-subject streaming rollups are retained.

    Usable as a context manager; :meth:`close` flushes the buffer.  The
    caller owns the record/footer protocol (see
    :mod:`repro.telemetry.record` for the stock orchestrations).
    """

    def __init__(self, path, csv_path=None, flush_lines: int = 256):
        if flush_lines < 1:
            raise ValueError(f"flush_lines must be >= 1, got {flush_lines}")
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
        self._buffer: List[str] = []
        self._stats: Dict[str, _SubjectStats] = {}
        self._header_written = False
        self._end_written = False

    # -- line plumbing ---------------------------------------------------------

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._append(dumps_line(payload))

    def _append(self, line: str) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._buffer.append(line)
        self.lines_written += 1
        if len(self._buffer) >= self.flush_lines:
            self.flush()

    def flush(self) -> None:
        """Write all buffered *complete* lines through to the OS.

        Line atomicity: the buffer only ever holds whole lines, so a
        crash between flushes loses a suffix of complete lines, never
        half a line of the sink's own making.  (The OS may still tear
        the last block; the reader's valid-prefix recovery covers it.)
        """
        if self._buffer and self._fh is not None:
            self._fh.write("".join(self._buffer))
            self._buffer.clear()
            self._fh.flush()

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
            "events": [
                {
                    "component": e.component,
                    "kind": e.kind,
                    "onset": e.onset,
                    "duration": e.duration,
                    "factor": e.factor,
                }
                for e in events
            ],
        }
        if start is not None:
            payload["start"] = start
        self._write_line(payload)

    def write_run_end(self, run: int, outcome) -> None:
        """Exact counters + exact latency statistics for one finished run.

        ``outcome`` is a :class:`repro.faults.campaign.ScenarioOutcome`
        (duck-typed).  The raw latency array is *not* written -- its
        moments and p50/p99, folded from every sample, rebuild every
        scorecard column, and the outcome digest pins the full-precision
        identity.
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
        })

    def write_window(self, payload: Dict[str, Any]) -> None:
        """One soak window's scorecard (``SoakWindow.to_dict`` form)."""
        self._write_line({"k": "window", **payload})

    def write_end(self) -> None:
        """The footer: record totals and per-subject streaming rollups."""
        if self._end_written:
            raise ValueError("trace footer already written")
        self._end_written = True
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
        """The ``subscribe_all`` callback: stream one TraceRecord out."""
        t = self.time_offset + record.time
        kind, subject, detail = record.kind, record.subject, record.detail
        line = _completion_line(t, subject, detail) if kind == COMPLETION else None
        if line is None:
            line = dumps_line({
                "k": "rec",
                "t": t,
                "kind": kind,
                "subject": subject,
                "detail": detail,
            })
        self._append(line)
        self.records_written += 1
        stats = self._stats.get(subject)
        if stats is None:
            stats = self._stats[subject] = _SubjectStats()
        stats.observe(kind, detail)
        if self._csv is not None:
            self._csv.write(f"{t!r},{kind},{_csv_quote(str(subject))},"
                            f"{_csv_quote(_ENCODER.encode(detail))}\n")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush every buffered line and close the file(s).  Idempotent."""
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None
        if self._csv is not None:
            self._csv.close()
            self._csv = None

    def __enter__(self) -> "StreamingTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
