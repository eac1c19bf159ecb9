"""Crash-tolerant trace reading: valid prefix in, truncation point out.

A trace that matters is one that survived a crash, which means the tail
may hold half a line, a torn UTF-8 sequence, or arbitrary garbage from a
reused block.  The reader therefore parses bytes, not lines: it
walks newline-delimited segments from the start and accepts each one
only if it decodes as UTF-8 AND parses as a JSON object carrying the
``"k"`` discriminator (and, for a ``recs`` block, four columns that are
lists of one length).  The first segment that fails -- or a trailing
segment with no newline -- ends the valid prefix; everything before it
is returned, the byte offset where validity ended is reported, and the
reader **never raises** on truncation or garbage: damage shortens what
is read, it never fails the read.

Three conditions are errors rather than crash artifacts, because silently
"recovering" from them would mis-read intact files:

* a complete, parseable first line that is not a ``repro-trace`` header
  (:class:`TraceError` -- the file is not a trace);
* a header whose ``schema`` is not an ``int`` this reader knows
  (:class:`TraceSchemaError`, naming the version -- the version gate).
  ``3.0`` and ``true`` are not versions, however they compare;
* a header whose ``meta`` or ``specs`` is not a JSON object
  (:class:`TraceError`, naming the key): every consumer reads both as
  mappings.

Every schema in :data:`READABLE_SCHEMAS` reads.  Schema 3 writes one
``rec`` line per telemetry record where schema 4 writes ``recs``
blocks; :func:`line_records` reads both, so one fold serves both, and
schema-3 ``run-end``/``window`` lines simply lack the ``execution``
envelope.  Only the current schema can be byte-verified.  Schemas 1
and 2 are refused like any unknown version.

:func:`iter_trace` is the one parser.  It yields each line as it is
parsed and fills a :class:`TraceSummary` (header, byte counts,
truncation point, clean close) as it walks, so a consumer that folds
lines and keeps none reads a trace in memory independent of its
length (one block at a time):
:func:`~repro.telemetry.replay.replay_trace` and
:func:`~repro.telemetry.record.verify_trace` do.  :func:`read_trace` is
the same walk collected into a list, for callers that want every
line; :meth:`TraceRead.telemetry` unpacks their records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.trace import TraceRecord
from .sink import TRACE_FORMAT, TRACE_SCHEMA_VERSION

__all__ = ["READABLE_SCHEMAS", "TraceError", "TraceSchemaError",
           "TraceSummary", "TraceRead", "iter_trace", "line_records",
           "read_trace"]

#: Schema versions the reader accepts, oldest first.
READABLE_SCHEMAS = (3, TRACE_SCHEMA_VERSION)

#: A ``recs`` block's columns; record i is the i-th entry of each.
_COLUMNS = ("t", "kind", "subject", "detail")


class TraceError(Exception):
    """The file is not a repro trace (intact but wrong shape)."""


class TraceSchemaError(TraceError):
    """The trace declares a schema version this reader does not support."""


@dataclass
class TraceSummary:
    """What one walk over a trace file learns, records aside.

    ``bytes_valid`` is the length of the valid prefix; when it is
    shorter than the file, ``truncated`` is True and
    ``truncated_at == bytes_valid`` is where recovery stopped.
    ``clean_close`` means the file ends exactly at an ``{"k":"end"}``
    footer -- the only state in which a byte-for-byte verify is
    meaningful.  :func:`iter_trace` sets the last four when its walk
    ends.
    """

    path: str
    header: Optional[Dict[str, Any]] = None
    file_bytes: int = 0
    bytes_valid: int = 0
    truncated: bool = False
    truncated_at: Optional[int] = None
    clean_close: bool = False

    @property
    def mode(self) -> Optional[str]:
        return self.header.get("mode") if self.header else None

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self.header["meta"]) if self.header else {}

    @property
    def specs(self) -> Dict[str, str]:
        return dict(self.header["specs"]) if self.header else {}


@dataclass
class TraceRead(TraceSummary):
    """Everything recoverable from one trace file, lines included.

    ``records`` holds every parsed line after the header, in file
    order, each the raw ``dict`` form keyed by ``"k"``;
    :meth:`telemetry` unpacks the telemetry records they carry.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """All lines with discriminator ``kind`` (``"run-end"`` etc.)."""
        return [r for r in self.records if r.get("k") == kind]

    def telemetry(self) -> List[TraceRecord]:
        """Every telemetry record in the trace, in file order.

        ``time`` is the trace's global time; a detail reads back in its
        JSON form (a tuple as a list).
        """
        return [TraceRecord(*fields) for line in self.records
                for fields in line_records(line)]


def line_records(line: Dict[str, Any]) -> Iterable[Tuple[Any, Any, Any, Any]]:
    """The ``(t, kind, subject, detail)`` records one parsed line carries.

    A schema-4 ``recs`` block carries its columns, zipped; a schema-3
    ``rec`` line carries one record; any other line carries none.
    """
    k = line["k"]
    if k == "recs":
        return zip(line["t"], line["kind"], line["subject"], line["detail"])
    if k == "rec":
        return ((line.get("t", 0.0), line.get("kind"),
                 line.get("subject", "?"), line.get("detail")),)
    return ()


def _parse_segment(segment: bytes) -> Optional[Dict[str, Any]]:
    """One candidate line -> parsed object, or None if it is damaged."""
    try:
        obj = json.loads(segment.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict) or "k" not in obj:
        return None
    if obj["k"] == "recs":
        columns = [obj.get(key) for key in _COLUMNS]
        if (not all(type(column) is list for column in columns)
                or len({len(column) for column in columns}) != 1):
            return None
    return obj


def iter_trace(path, summary: TraceSummary) -> Iterator[Dict[str, Any]]:
    """Yield each line after the header, in file order, as it is parsed.

    Fills the fresh ``summary`` as it walks: ``header`` from the first
    line, ``bytes_valid`` line by line, and ``file_bytes``,
    ``truncated``/``truncated_at`` and ``clean_close`` once the valid
    prefix ends.  Raises like :func:`read_trace`, from the first
    ``next()``.  The file is open only while the generator is; a
    consumer that may stop early closes it (``contextlib.closing``).
    """
    last_kind = None
    with open(path, "rb") as fh:
        # Segment by segment, so the raw bytes never sit in memory.
        for segment in fh:
            if not segment.endswith(b"\n"):
                break  # a trailing segment with no newline is never valid
            obj = _parse_segment(segment[:-1])
            if obj is None:
                break
            summary.bytes_valid += len(segment)
            if summary.header is None:
                if obj.get("k") != "header" or obj.get("format") != TRACE_FORMAT:
                    raise TraceError(
                        f"{path}: not a repro trace (first line is "
                        f"{obj.get('k', 'unknown')!r}, expected a "
                        f"{TRACE_FORMAT!r} header)"
                    )
                version = obj.get("schema")
                if type(version) is not int or version not in READABLE_SCHEMAS:
                    supported = ", ".join(str(v) for v in READABLE_SCHEMAS)
                    raise TraceSchemaError(
                        f"{path}: unsupported trace schema version {version!r} "
                        f"(this reader supports versions {supported}); "
                        "refusing to guess at an unknown format"
                    )
                for key in ("meta", "specs"):
                    if not isinstance(obj.get(key), dict):
                        raise TraceError(
                            f"{path}: not a repro trace (header {key!r} is "
                            f"not a JSON object: {obj.get(key)!r})"
                        )
                summary.header = obj
                continue
            last_kind = obj["k"]
            yield obj
        summary.file_bytes = fh.seek(0, os.SEEK_END)
    summary.truncated = summary.bytes_valid < summary.file_bytes
    summary.truncated_at = summary.bytes_valid if summary.truncated else None
    summary.clean_close = not summary.truncated and last_kind == "end"


def read_trace(path) -> TraceRead:
    """Read a whole trace, recovering the valid prefix of a damaged file.

    Raises :class:`TraceSchemaError` when the header is intact but its
    ``schema`` is unknown, and :class:`TraceError` when the first line
    is intact but not a trace header, or a header whose ``meta`` or
    ``specs`` is not a JSON object.  Truncation and garbage never
    raise; see the module docstring for the exact recovery rule.
    """
    result = TraceRead(path=str(path))
    result.records.extend(iter_trace(path, result))
    return result
