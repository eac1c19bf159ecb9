"""Crash-tolerant trace reading: valid prefix in, truncation point out.

A trace that matters is one that survived a crash, which means the tail
may hold half a line, a torn UTF-8 sequence, or arbitrary garbage from a
reused block.  :func:`read_trace` therefore parses bytes, not lines: it
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
* a header whose ``schema`` this reader does not know
  (:class:`TraceSchemaError`, naming the version -- the version gate).

Every schema in :data:`READABLE_SCHEMAS` reads: schema 1 (outcome
digest v1, P² run-end/window statistics) stays readable for replay,
though only the current schema can be byte-verified.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .sink import TRACE_FORMAT, TRACE_SCHEMA_VERSION

__all__ = ["READABLE_SCHEMAS", "TraceError", "TraceSchemaError", "TraceRead",
           "read_trace"]

#: Schema versions :func:`read_trace` accepts, oldest first.
READABLE_SCHEMAS = (1, TRACE_SCHEMA_VERSION)


class TraceError(Exception):
    """The file is not a repro trace (intact but wrong shape)."""


class TraceSchemaError(TraceError):
    """The trace declares a schema version this reader does not support."""


@dataclass
class TraceRead:
    """Everything recoverable from one trace file.

    ``records`` holds every parsed line after the header, in file
    order, each the raw ``dict`` form keyed by ``"k"``.  ``bytes_valid``
    is the length of the valid prefix; when it is shorter than the
    file, ``truncated`` is True and ``truncated_at == bytes_valid`` is
    where recovery stopped.  ``clean_close`` means the file ends
    exactly at an ``{"k":"end"}`` footer -- the only state in which a
    byte-for-byte verify is meaningful.
    """

    path: str
    header: Optional[Dict[str, Any]]
    records: List[Dict[str, Any]] = field(default_factory=list)
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


def read_trace(path) -> TraceRead:
    """Read a trace, recovering the valid prefix of a damaged file.

    Raises :class:`TraceSchemaError` when the header is intact but its
    ``schema`` is unknown, and :class:`TraceError` when the first line
    is intact but not a trace header.  Truncation and garbage never
    raise; see the module docstring for the exact recovery rule.
    """
    result = TraceRead(path=str(path), header=None)
    with open(path, "rb") as fh:
        # Segment by segment, so the raw bytes never sit in memory beside
        # the parsed records.
        for segment in fh:
            if not segment.endswith(b"\n"):
                break  # a trailing segment with no newline is never valid
            obj = _parse_segment(segment[:-1])
            if obj is None:
                break
            if result.header is None:
                if obj.get("k") != "header" or obj.get("format") != TRACE_FORMAT:
                    raise TraceError(
                        f"{path}: not a repro trace (first line is "
                        f"{obj.get('k', 'unknown')!r}, expected a "
                        f"{TRACE_FORMAT!r} header)"
                    )
                version = obj.get("schema")
                if version not in READABLE_SCHEMAS:
                    supported = ", ".join(str(v) for v in READABLE_SCHEMAS)
                    raise TraceSchemaError(
                        f"{path}: unsupported trace schema version {version!r} "
                        f"(this reader supports versions {supported}); "
                        "refusing to guess at an unknown format"
                    )
                result.header = obj
            else:
                result.records.append(obj)
            result.bytes_valid += len(segment)
        result.file_bytes = fh.seek(0, os.SEEK_END)
    if result.bytes_valid < result.file_bytes:
        result.truncated = True
        result.truncated_at = result.bytes_valid
    result.clean_close = (
        not result.truncated
        and bool(result.records)
        and result.records[-1].get("k") == "end"
    )
    return result
