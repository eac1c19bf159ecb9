"""Trace replay: state timelines, violation timelines, scorecards.

The log-based recovery taxonomy (Treaster, PAPERS.md) rests on one
property: the event log alone must suffice to reconstruct state after
the fact.  :func:`replay_trace` is that reconstruction for repro
traces -- no simulator, no scenario registry, just the file:

* per-component **state timelines** from ``state-change`` records;
* per-component **spec-violation timelines** from ``spec-violation``
  records;
* a **scorecard** from the ``run-end`` / ``window`` summary records,
  whose latency statistics were serialized exactly and therefore
  reproduce every mean/p50/p99 cell bit-for-bit;
* an **execution line**: how many runs ran hybrid, how many fell back,
  and what share of the requests ran discrete, from each ``run-end``
  or ``window`` line's ``execution`` envelope (schema 4);
* an **integrity report**: truncation point, clean-close flag, a
  cross-check of the streamed per-record counts against the footer's
  per-subject ``kinds`` counts (a trace whose footer disagrees with its
  own body is flagged, never silently trusted), and each scorecard line
  that lacks a key or holds an unreadable value, named.

Replay folds each line as the reader parses it and keeps none, so its
memory is O(subjects + runs + windows + timeline entries) plus one
``recs`` block however long the trace: :attr:`TraceReplay.read` is a
:class:`~repro.telemetry.reader.TraceSummary` (header, byte counts,
truncation, clean close), not a record list.  Records reach the fold
through :func:`~repro.telemetry.reader.line_records`, which reads a
schema-4 block and a schema-3 ``rec`` line alike.  Callers that want
the records themselves use :func:`~repro.telemetry.reader.read_trace`.

:func:`verify_trace` lives in :mod:`repro.telemetry.record` -- it needs
the recording orchestrations to regenerate the trace for the
byte-for-byte diff.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.report import Table
from ..sim.metrics import ExactQuantile, StreamingMoments, Tally
from ..sim.trace import COMPLETION, SPEC_VIOLATION, STATE_CHANGE
from .reader import TraceSummary, iter_trace, line_records

__all__ = ["RunSummary", "TraceReplay", "replay_trace"]


@dataclass
class RunSummary(Tally):
    """One recorded run, rebuilt from its run-start/run-end records.

    Its tally is the run-end line's counters, zero until that line.
    """

    run: int
    workload: str
    family: str
    index: int
    policy: str
    engine: str
    events: List[Dict[str, Any]]
    slo: float = 0.0
    digest: str = ""
    moments: StreamingMoments = field(default_factory=StreamingMoments)
    p50: ExactQuantile = field(default_factory=lambda: ExactQuantile(0.5, 0.0))
    p99: ExactQuantile = field(default_factory=lambda: ExactQuantile(0.99, 0.0))
    oracle_violations: List[str] = field(default_factory=list)
    complete: bool = False  # saw the run-end record
    #: The run-end line's ``execution`` envelope (None before schema 4).
    execution: Optional[Dict[str, Any]] = None

    @property
    def mean(self) -> float:
        return self.moments.mean if self.moments.count else 0.0


@dataclass
class TraceReplay:
    """Everything :func:`replay_trace` reconstructs from one trace."""

    read: TraceSummary
    runs: List[RunSummary] = field(default_factory=list)
    windows: List[Any] = field(default_factory=list)  # SoakWindow
    #: subject -> [(t, state), ...] in record order.
    state_timelines: Dict[str, List[Tuple[float, str]]] = field(default_factory=dict)
    #: subject -> [(t, observed, threshold), ...] in record order.
    violation_timelines: Dict[str, List[Tuple[float, float, float]]] = field(
        default_factory=dict
    )
    #: subject -> streamed completion-record count.
    completions: Dict[str, int] = field(default_factory=dict)
    records: int = 0
    #: Footer-vs-body disagreements and unreadable scorecard lines.
    integrity: List[str] = field(default_factory=list)

    @property
    def mode(self) -> Optional[str]:
        return self.read.mode

    @property
    def consistent(self) -> bool:
        return not self.integrity

    def execution_summary(self) -> str:
        """One line: the engine mix and discrete share of the runs."""
        recorded = [(run.execution, run.requests) for run in self.runs
                    if run.execution is not None]
        recorded += [(window.execution, window.requests)
                     for window in self.windows
                     if window.execution is not None]
        if not recorded:
            schema = self.read.header.get("schema") if self.read.header else None
            why = f"schema {schema}" if schema == 3 else "no finished run"
            return f"execution: not recorded ({why})"
        hybrid = sum(1 for run, __ in recorded if run["engine"] == "hybrid")
        fallbacks = sum(1 for run, __ in recorded if run["fallback"] is not None)
        discrete = sum(run["discrete_requests"] for run, __ in recorded)
        requests = sum(n for __, n in recorded)
        share = 100.0 * discrete / requests if requests else 0.0
        return (f"execution: {hybrid}/{len(recorded)} runs hybrid, "
                f"{fallbacks} fallbacks; {discrete:,} of {requests:,} "
                f"requests discrete ({share:.1f}%)")

    def scorecard(self) -> Table:
        """The per-run (or per-window) scorecard, from the trace alone."""
        if self.mode == "soak":
            from ..faults.campaign import soak_table

            meta = self.read.meta
            return soak_table(
                self.windows,
                title=(
                    f"Replay: soak trace {self.read.path} "
                    f"(seed {meta.get('seed')}, {len(self.windows)} windows)"
                ),
            )
        table = Table(
            f"Replay: {self.mode or 'campaign'} trace {self.read.path}",
            [
                "run", "workload", "family", "idx", "policy", "requests",
                "mean_s", "p50_s", "p99_s", "slo_viol_pct", "waste_pct",
                "digest",
            ],
            note=(
                "Reconstructed from the trace alone: counters and the "
                "exact latency statistics in each run-end record, "
                "digest = the run's full-precision outcome identity.  "
                "Incomplete runs (crash before run-end) show a "
                "'(partial)' digest."
            ),
        )
        for run in self.runs:
            table.add_row(
                run.run,
                run.workload,
                run.family,
                run.index,
                run.policy,
                run.requests,
                run.mean,
                run.p50.value(),
                run.p99.value(),
                100.0 * run.slo_fraction,
                100.0 * run.waste_fraction,
                run.digest[:12] if run.complete else "(partial)",
            )
        return table

    def render(self) -> str:
        """The full human-readable replay report."""
        read = self.read
        lines = [
            f"trace: {read.path}",
            f"  mode={self.mode} schema={read.header.get('schema') if read.header else '?'} "
            f"records={self.records} bytes={read.file_bytes}",
            f"  {self.execution_summary()}",
        ]
        if read.truncated:
            lines.append(
                f"  TRUNCATED at byte {read.truncated_at}: recovered the "
                f"valid prefix ({read.bytes_valid} bytes)"
            )
        elif not read.clean_close:
            lines.append("  INCOMPLETE: no end-of-trace footer (crash mid-run?)")
        for note in self.integrity:
            lines.append(f"  INCONSISTENT: {note}")
        specs = read.specs
        if specs:
            lines.append("  specs: " + ", ".join(
                f"{name}={digest[:12]}" for name, digest in sorted(specs.items())
            ))
        lines.append("")
        lines.append(self.scorecard().render())
        if self.state_timelines:
            lines.append("")
            lines.append("component state timelines:")
            for subject in sorted(self.state_timelines):
                timeline = self.state_timelines[subject]
                shown = ", ".join(f"{state}@{t:.3f}" for t, state in timeline[:6])
                extra = f" (+{len(timeline) - 6} more)" if len(timeline) > 6 else ""
                lines.append(f"  {subject}: {shown}{extra}")
        if self.violation_timelines:
            lines.append("")
            lines.append("spec-violation timelines:")
            for subject in sorted(self.violation_timelines):
                timeline = self.violation_timelines[subject]
                first, last = timeline[0], timeline[-1]
                lines.append(
                    f"  {subject}: {len(timeline)} violations, first@"
                    f"{first[0]:.3f} (observed {first[1]:.3g} < threshold "
                    f"{first[2]:.3g}), last@{last[0]:.3f}"
                )
        return "\n".join(lines)


def _fold_scorecard(replay: TraceReplay, by_run: Dict[int, RunSummary],
                    line: Dict[str, Any]) -> None:
    """Fold a run-end or window line.  A run-end line is read as strictly
    as :meth:`SoakWindow.from_dict` reads a window: every key but
    ``execution`` (schema-3 lines lack it) is required, and all are read
    before any is kept."""
    if line["k"] == "window":
        from ..faults.campaign import SoakWindow

        replay.windows.append(SoakWindow.from_dict(line))
        return
    score = {
        "run": int(line["run"]),
        "requests": int(line["requests"]),
        "slo": float(line["slo"]),
        "slo_violations": int(line["slo_violations"]),
        "failed_requests": int(line["failed_requests"]),
        "issued_work": float(line["issued_work"]),
        "wasted_work": float(line["wasted_work"]),
        "digest": str(line["digest"]),
        "moments": StreamingMoments.from_dict(line["moments"]),
        "p50": ExactQuantile.from_dict(line["p50"]),
        "p99": ExactQuantile.from_dict(line["p99"]),
        "oracle_violations": list(line["oracle_violations"]),
        "execution": line.get("execution"),
        "complete": True,
    }
    run = by_run.get(score["run"])
    if run is None:  # run-start lost to truncation upstream? keep it
        run = RunSummary(run=score["run"], workload=line.get("workload", "?"),
                         family=line.get("family", "?"), index=line.get("index", -1),
                         policy=line.get("policy", "?"), engine="?", events=[])
        replay.runs.append(run)
    for name, value in score.items():
        setattr(run, name, value)


def replay_trace(path) -> TraceReplay:
    """Reconstruct timelines + scorecard from a trace file alone.

    Tolerates truncated traces (the valid prefix replays, the
    truncation is reported); raises
    :class:`~repro.telemetry.reader.TraceSchemaError` on unknown schema
    versions and :class:`~repro.telemetry.reader.TraceError` on
    non-trace files, exactly like :func:`~repro.telemetry.reader.read_trace`.
    Lines are folded as they are parsed; none is kept.
    """
    read = TraceSummary(path=str(path))
    replay = TraceReplay(read=read)
    by_run: Dict[int, RunSummary] = {}
    with closing(iter_trace(path, read)) as lines:
        for line in lines:
            k = line["k"]
            if k == "recs" or k == "rec":
                completions = replay.completions
                for t, kind, subject, detail in line_records(line):
                    replay.records += 1
                    if kind == COMPLETION:
                        completions[subject] = completions.get(subject, 0) + 1
                    elif kind == STATE_CHANGE:
                        state = (detail or {}).get("state", "?")
                        timeline = replay.state_timelines.setdefault(subject, [])
                        if not timeline or timeline[-1][1] != state:
                            timeline.append((t, state))
                    elif kind == SPEC_VIOLATION:
                        detail = detail or {}
                        replay.violation_timelines.setdefault(subject, []).append(
                            (t, detail.get("observed", 0.0),
                             detail.get("threshold", 0.0))
                        )
            elif k == "run-start":
                run = RunSummary(
                    run=line.get("run", -1),
                    workload=line.get("workload", "?"),
                    family=line.get("family", "?"),
                    index=line.get("index", -1),
                    policy=line.get("policy", "?"),
                    engine=line.get("engine", "?"),
                    events=list(line.get("events", [])),
                )
                by_run[run.run] = run
                replay.runs.append(run)
            elif k == "run-end" or k == "window":
                try:
                    _fold_scorecard(replay, by_run, line)
                except (KeyError, TypeError, ValueError) as exc:
                    why = (f"missing key {exc}" if isinstance(exc, KeyError)
                           else f"unreadable value ({exc})")
                    name = line.get("index" if k == "window" else "run", "?")
                    replay.integrity.append(f"{k} {name}: {why}")
            elif k == "end":
                if line.get("records") != replay.records:
                    replay.integrity.append(
                        f"footer claims {line.get('records')} records, "
                        f"{replay.records} streamed"
                    )
                subjects = line.get("subjects", {})
                for subject, stats in subjects.items():
                    footer = stats.get("kinds", {}).get(COMPLETION, 0)
                    streamed = replay.completions.get(subject, 0)
                    if footer != streamed:
                        replay.integrity.append(
                            f"{subject}: footer counts {footer} completions, "
                            f"{streamed} streamed"
                        )
    return replay
