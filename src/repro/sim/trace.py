"""The telemetry record and its kinds.

A :class:`TraceRecord` is one occurrence on a
:class:`~repro.core.component.TelemetryBus`: what happened, to whom,
and when.  The bus is the one event stream; anything that wants the
records subscribes to it (``subscribe`` per subject, ``subscribe_all``
for every record).  A run is traced by passing a
:class:`~repro.telemetry.StreamingTraceSink` as its ``sink=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "COMPLETION",
    "SPEC_VIOLATION",
    "STATE_CHANGE",
    "INJECTOR_EVENT",
    "TraceRecord",
]

#: Structured telemetry kinds emitted by registered components (see
#: :mod:`repro.core.component`).  Kept here so trace consumers can filter
#: without importing the component layer.
COMPLETION = "completion"
SPEC_VIOLATION = "spec-violation"
STATE_CHANGE = "state-change"
#: Fault application/restoration announcements: emitted when an injector
#: attaches or is cancelled and when a campaign schedules an onset or a
#: restore on a component.  Hybrid runners subscribe to these (plus
#: ``STATE_CHANGE``) so a fluid segment never silently spans a rate
#: change the runner was not told about.
INJECTOR_EVENT = "injector-event"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence (slotted: traces allocate one per event)."""

    time: float
    kind: str
    subject: str
    detail: Any = None
