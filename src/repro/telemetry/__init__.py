"""Production observability: streaming trace export, replay, verify.

This package answers the production questions about a run -- "what
happened last night" (:class:`StreamingTraceSink`, passed to a run as
its ``sink=``, streams every TelemetryBus record to schema-versioned
JSONL in ``recs`` blocks, with O(subjects) memory plus one block),
"reconstruct it from the file alone"
(:func:`replay_trace`), "is this damaged file salvageable"
(:func:`iter_trace` and :func:`read_trace` recover the valid prefix of
a crash-truncated trace, never raising), and "is this trace honest"
(:func:`verify_trace` re-runs the embedded parameters and demands
byte-for-byte identity).  Replay and verify stream the file and keep
no record.

Entry points: ``python -m repro replay <trace>`` and the ``--trace`` /
``--soak`` flags on ``python -m repro campaign``.
"""

from .reader import (
    TraceError,
    TraceRead,
    TraceSchemaError,
    TraceSummary,
    iter_trace,
    read_trace,
)
from .record import (
    VerifyResult,
    record_campaign,
    record_soak,
    record_spec_run,
    stock_spec_digests,
    verify_trace,
)
from .replay import RunSummary, TraceReplay, replay_trace
from .sink import TRACE_FORMAT, TRACE_SCHEMA_VERSION, StreamingTraceSink, dumps_line

__all__ = [
    "TRACE_FORMAT",
    "TRACE_SCHEMA_VERSION",
    "StreamingTraceSink",
    "dumps_line",
    "TraceError",
    "TraceSchemaError",
    "TraceSummary",
    "TraceRead",
    "iter_trace",
    "read_trace",
    "RunSummary",
    "TraceReplay",
    "replay_trace",
    "VerifyResult",
    "record_campaign",
    "record_soak",
    "record_spec_run",
    "stock_spec_digests",
    "verify_trace",
]
