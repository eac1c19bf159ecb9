"""Crash-tolerant trace reading: valid prefix in, truncation point out.

A trace that matters is one that survived a crash, which means the tail
may hold half a line, a torn UTF-8 sequence, or arbitrary garbage from a
reused block.  The reader therefore parses bytes, not lines: it
walks newline-delimited segments from the start and accepts each one
only if it decodes as UTF-8 AND parses as a JSON object carrying the
``"k"`` discriminator.  The first segment that fails -- or a trailing
segment with no newline -- ends the valid prefix; everything before it
is returned, the byte offset where validity ended is reported, and the
reader **never raises** on truncation or garbage (the PR-5 ResultCache
rule, applied to traces).

Two conditions are errors rather than crash artifacts, because silently
"recovering" from them would mis-read intact files:

* a complete, parseable first line that is not a ``repro-trace`` header
  (:class:`TraceError` -- the file is not a trace);
* a header whose ``schema`` is not an ``int`` this reader knows
  (:class:`TraceSchemaError`, naming the version -- the version gate).
  ``2.0`` and ``true`` are not versions, however they compare.

Every schema in :data:`READABLE_SCHEMAS` reads.  Schema 2 differs from
schema 3 only in a footer key that replay never reads (a per-subject
p99 estimate), so it replays like schema 3, though only the current
schema can be byte-verified.  Schema 1 (outcome digest v1, estimated
run-end/window quantiles) is refused like any unknown version.

:func:`iter_trace` is the one parser.  It yields each record as it is
parsed and fills a :class:`TraceSummary` (header, byte counts,
truncation point, clean close) as it walks, so a consumer that folds
records and keeps none reads a trace in memory independent of its
length: :func:`~repro.telemetry.replay.replay_trace` and
:func:`~repro.telemetry.record.verify_trace` do.  :func:`read_trace` is
the same walk collected into a list, for callers that want every
record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .sink import TRACE_FORMAT, TRACE_SCHEMA_VERSION

__all__ = ["READABLE_SCHEMAS", "TraceError", "TraceSchemaError",
           "TraceSummary", "TraceRead", "iter_trace", "read_trace"]

#: Schema versions the reader accepts, oldest first.
READABLE_SCHEMAS = (2, TRACE_SCHEMA_VERSION)


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
        return dict(self.header.get("meta", {})) if self.header else {}

    @property
    def specs(self) -> Dict[str, str]:
        return dict(self.header.get("specs", {})) if self.header else {}


@dataclass
class TraceRead(TraceSummary):
    """Everything recoverable from one trace file, records included.

    ``records`` holds every parsed line after the header, in file
    order, each the raw ``dict`` form keyed by ``"k"``.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """All records with discriminator ``kind`` (``"rec"`` etc.)."""
        return [r for r in self.records if r.get("k") == kind]


def _parse_segment(segment: bytes) -> Optional[Dict[str, Any]]:
    """One candidate line -> parsed object, or None if it is damaged."""
    try:
        obj = json.loads(segment.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict) or "k" not in obj:
        return None
    return obj


def iter_trace(path, summary: TraceSummary) -> Iterator[Dict[str, Any]]:
    """Yield each record after the header, in file order, as it is parsed.

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
    is intact but not a trace header.  Truncation and garbage never
    raise; see the module docstring for the exact recovery rule.
    """
    result = TraceRead(path=str(path))
    result.records.extend(iter_trace(path, result))
    return result
