"""Event tracing.

Every experiment needs to answer "what happened, when" after a run.  The
classes here are deliberately plain -- append-only records with small
query helpers -- so that assertions in tests stay easy to write and runs
stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from .engine import Simulator

__all__ = [
    "COMPLETION",
    "SPEC_VIOLATION",
    "STATE_CHANGE",
    "INJECTOR_EVENT",
    "TraceRecord",
    "Tracer",
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


class Tracer:
    """Append-only event log with filtered views.

    Components call :meth:`emit`; tests and reports query with
    :meth:`select`.  A disabled tracer drops records, so production-sized
    benchmark runs pay almost nothing.
    """

    def __init__(self, sim: Simulator, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def emit(self, kind: str, subject: str, detail: Any = None) -> None:
        """Record an occurrence at the current simulation time."""
        if not self.enabled:
            return
        self.records.append(TraceRecord(self.sim.now, kind, subject, detail))

    def emit_record(self, record: TraceRecord) -> None:
        """Append an already-built record (telemetry-bus fan-in path)."""
        if not self.enabled:
            return
        self.records.append(record)

    def select(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records matching all the given filters, in time order."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if subject is not None and rec.subject != subject:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def count(self, kind: Optional[str] = None, subject: Optional[str] = None) -> int:
        """Number of matching records."""
        return len(self.select(kind=kind, subject=subject))

    def clear(self) -> None:
        """Drop all records."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
