"""Recording orchestrations and the byte-for-byte trace verifier.

The sink is a mechanism; this module is the policy.  Each ``record_*``
function owns the full trace protocol for one run shape -- header
(with the PR-9 spec digests pinning what actually ran), run-start /
records / run-end per run, footer -- and writes a ``meta`` block
sufficient to *regenerate* the trace from nothing but the file.  That
closure is what :func:`verify_trace` exploits: it re-runs the embedded
parameters into a temporary file and compares bytes.  Because every
simulation is RNG-free after seeded generation and every line is
canonical JSON, the only honest outcome is identity; the first
differing byte offset is reported otherwise, and so is the first run or
window whose ``execution`` envelope (its engine mix) changed.

Policies must be roster *names* here (not instances): an instance
cannot be serialized into ``meta``, so it cannot be regenerated, so
the trace could never verify.  The campaign and soak recorders run
their run's argument checks before they open ``path``, so a refused
call leaves a file already there untouched.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.model import FaultEvent
from ..scenario.bundle import spec_paths
from ..scenario.spec import ScenarioSpec, SpecError, load_spec
from .reader import TraceSummary, iter_trace
from .sink import TRACE_SCHEMA_VERSION, StreamingTraceSink, same_file

__all__ = [
    "VerifyResult",
    "record_campaign",
    "record_soak",
    "record_spec_run",
    "stock_spec_digests",
    "verify_trace",
]


def stock_spec_digests(names: Optional[Sequence[str]] = None) -> Dict[str, str]:
    """Bundled spec name -> PR-9 digest, optionally filtered to ``names``.

    This is what trace headers embed: the digest of every workload and
    family spec the run touched, so a replayed trace can detect that
    the bundle has since changed out from under it.
    """
    digests: Dict[str, str] = {}
    for path in spec_paths():
        spec = load_spec(path)
        if names is None or spec.name in names:
            digests[spec.name] = spec.digest()
    if names is not None:
        missing = sorted(set(names) - set(digests))
        if missing:
            raise KeyError(f"no bundled spec(s) named {missing}")
    return digests


#: The outcome digest version (``ScenarioOutcome.digest``) that each
#: readable trace schema's run-end records carry.
_SCHEMA_DIGESTS = {3: 2, 4: 2}

#: The ``meta`` keys each mode's recorder writes: exactly the keyword
#: arguments :func:`verify_trace` regenerates a trace of that mode with.
_META_KEYS = {
    "campaign": ("seed", "workloads", "families", "policies",
                 "scenarios_per_family", "n_requests", "engine"),
    "soak": ("seed", "workload", "family", "policy", "n_windows",
             "injectors_per_window", "n_requests", "engine", "rolling",
             "extra_events", "check"),
    "spec": ("spec", "policy", "seed", "index", "engine"),
}


def _require_policy_names(policies) -> None:
    for policy in policies:
        if not isinstance(policy, str):
            raise TypeError(
                f"recorded runs need roster policy names, got {policy!r}; "
                "an instance cannot be regenerated for verify"
            )


def record_campaign(
    path,
    csv_path=None,
    seed: int = 7,
    workloads: Sequence[str] = ("raid10", "dht"),
    families: Sequence[str] = ("magnitude", "correlated", "failstop"),
    policies: Optional[Sequence[str]] = None,
    scenarios_per_family: int = 3,
    n_requests: Optional[int] = None,
    engine: str = "discrete",
    verify_determinism: bool = False,
):
    """Run a campaign sweep with every primary run streamed to ``path``.

    Returns the :class:`~repro.faults.campaign.CampaignResult`.  The
    trace is byte-identical whether ``verify_determinism`` is on or off
    (reruns exist to check the primary run and are never recorded), so
    :func:`verify_trace` always regenerates with it off.
    """
    from ..faults.campaign import POLICIES, campaign_workloads, run_campaign

    if policies is None:
        policies = list(POLICIES)
    _require_policy_names(policies)
    specs = stock_spec_digests(list(workloads) + list(families))
    campaign_workloads(workloads, policies, scenarios_per_family, n_requests,
                       engine)
    meta = {
        "seed": seed,
        "workloads": list(workloads),
        "families": list(families),
        "policies": list(policies),
        "scenarios_per_family": scenarios_per_family,
        "n_requests": n_requests,
        "engine": engine,
    }
    with StreamingTraceSink(path, csv_path=csv_path) as sink:
        sink.write_header(mode="campaign", meta=meta, specs=specs)
        result = run_campaign(
            seed=seed,
            workloads=workloads,
            families=families,
            policies=policies,
            scenarios_per_family=scenarios_per_family,
            n_requests=n_requests,
            verify_determinism=verify_determinism,
            engine=engine,
            sink=sink,
        )
        sink.write_end()
    return result


def record_soak(
    path,
    csv_path=None,
    seed: int = 7,
    workload: str = "raid10",
    family: str = "magnitude",
    policy: str = "stutter-aware",
    n_windows: int = 6,
    injectors_per_window: int = 2,
    n_requests: Optional[int] = None,
    engine: str = "hybrid",
    rolling: int = 4,
    extra_events: Sequence[Tuple[int, Any]] = (),
    check: bool = True,
    retain_windows: bool = False,
):
    """Run a soak campaign streamed to ``path``; returns the SoakResult.

    ``retain_windows`` defaults to False here -- recording exists so the
    per-window scorecards can live on disk instead of in RAM; replay
    the trace (or pass True) to get them back.
    """
    from ..faults.campaign import run_soak, soak_plan

    _require_policy_names([policy])
    specs = stock_spec_digests([workload, family])
    soak_plan(workload, policy, n_windows, injectors_per_window, n_requests,
              engine, rolling, extra_events)
    meta = {
        "seed": seed,
        "workload": workload,
        "family": family,
        "policy": policy,
        "n_windows": n_windows,
        "injectors_per_window": injectors_per_window,
        "n_requests": n_requests,
        "engine": engine,
        "rolling": rolling,
        "extra_events": [[w, asdict(e)] for w, e in extra_events],
        "check": check,
    }
    with StreamingTraceSink(path, csv_path=csv_path) as sink:
        sink.write_header(mode="soak", meta=meta, specs=specs)
        result = run_soak(
            seed=seed,
            workload=workload,
            family=family,
            policy=policy,
            n_windows=n_windows,
            injectors_per_window=injectors_per_window,
            n_requests=n_requests,
            engine=engine,
            rolling=rolling,
            extra_events=extra_events,
            sink=sink,
            check=check,
            retain_windows=retain_windows,
        )
        sink.write_end()
    return result


def record_spec_run(
    path,
    spec: ScenarioSpec,
    csv_path=None,
    policy: Optional[str] = None,
    seed: int = 7,
    index: int = 0,
    engine: str = "discrete",
):
    """Run one declarative spec (PR-9) with the trace streamed to ``path``.

    The *whole spec* is embedded in the header meta -- a spec-run trace
    is self-contained and verifies even for generated (never-bundled)
    specs, which is what the replay round-trip property test leans on.
    """
    from ..faults.campaign import run_scenario
    from ..scenario.compile import compile_spec

    compiled = compile_spec(spec)
    chosen = policy if policy is not None else spec.policy
    if chosen is None:
        raise ValueError(f"spec {spec.name!r} binds no policy; pass policy=")
    _require_policy_names([chosen])
    meta = {
        "spec": spec.to_dict(),
        "policy": chosen,
        "seed": seed,
        "index": index,
        "engine": engine,
    }
    scenario = compiled.scenario(seed, index)
    with StreamingTraceSink(path, csv_path=csv_path) as sink:
        sink.write_header(
            mode="spec",
            meta=meta,
            specs={spec.name: spec.digest()},
        )
        sink.write_run_start(
            run=0, workload=compiled.workload.name, family=scenario.family,
            index=scenario.index, seed=scenario.seed, policy=chosen,
            engine=engine, events=scenario.events,
        )
        outcome = run_scenario(compiled.workload, scenario, chosen,
                               engine=engine, sink=sink)
        sink.write_run_end(0, outcome)
        sink.write_end()
    return outcome


@dataclass
class VerifyResult:
    """What ``replay --verify`` reports."""

    path: str
    ok: bool
    reasons: List[str]
    original_bytes: int = 0
    regenerated_bytes: int = 0
    first_diff: Optional[int] = None

    def render(self) -> str:
        if self.ok:
            return (
                f"{self.path}: VERIFIED -- regenerated byte-identical "
                f"({self.original_bytes} bytes)"
            )
        lines = [f"{self.path}: VERIFY FAILED"]
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def _regenerator(mode, meta) -> Tuple[Optional[Callable[[Path], Any]], List[str]]:
    """The call that re-records a trace of ``mode`` from ``meta``, or why not.

    ``meta`` must hold exactly the keys the mode's recorder writes
    (:data:`_META_KEYS`), a spec run's ``spec`` must parse, and so must
    a soak's ``extra_events``.  Each problem is one reason naming the
    mode and the key.
    """
    keys = _META_KEYS.get(mode)
    if keys is None:
        return None, [f"unknown trace mode {mode!r}; cannot regenerate"]
    reasons = [f"{mode} meta has unexpected key {key!r}"
               for key in sorted(set(meta) - set(keys))]
    reasons += [f"{mode} meta is missing key {key!r}"
                for key in keys if key not in meta]
    if reasons:
        return None, reasons
    if mode == "campaign":
        return lambda regen: record_campaign(regen, **meta), []
    if mode == "soak":
        try:
            extra = [(w, FaultEvent(**event)) for w, event in meta["extra_events"]]
        except (TypeError, ValueError) as exc:
            return None, [f"soak meta key 'extra_events' does not parse: {exc}"]
        return lambda regen: record_soak(regen, **dict(meta, extra_events=extra)), []
    kwargs = dict(meta)
    payload = kwargs.pop("spec")
    try:
        if not isinstance(payload, dict):
            raise SpecError(f"expected an object, got {payload!r}")
        spec = ScenarioSpec.parse(payload)
    except SpecError as exc:
        return None, [f"spec meta key 'spec' does not parse: {exc}"]
    return lambda regen: record_spec_run(regen, spec, **kwargs), []


def _executions(path) -> List[Tuple[str, Any]]:
    """``(label, execution envelope)`` of each ``run-end`` and ``window``
    line, in file order; the label names the run or the window."""
    found = []
    for line in iter_trace(path, TraceSummary(path=str(path))):
        if line["k"] == "run-end":
            found.append((f"run {line.get('run')}", line.get("execution")))
        elif line["k"] == "window":
            found.append((f"window {line.get('index')}", line.get("execution")))
    return found


def _engine_mix_change(original, regenerated) -> Optional[str]:
    """Name the first run or window whose execution envelope differs.

    A trace whose bytes differ from their regeneration may only have
    run a different share of its requests on each engine (the hybrid
    engine's windows changed), which no byte offset shows.  None when
    every envelope matches.
    """
    for (label, recorded), (__, now) in zip(_executions(original),
                                            _executions(regenerated)):
        if recorded == now:
            continue
        if not (isinstance(recorded, dict) and isinstance(now, dict)):
            return f"{label}: recorded execution {recorded!r}, regenerated {now!r}"
        changes = []
        for key in sorted(set(recorded) | set(now)):
            was, is_now = recorded.get(key), now.get(key)
            if was == is_now:
                continue
            if key == "discrete_requests" and all(
                    type(value) is int for value in (was, is_now)):
                changes.append(f"recorded {was:,} discrete requests, "
                               f"regenerated {is_now:,}")
            else:
                changes.append(f"recorded {key} {was!r}, regenerated {is_now!r}")
        return f"{label}: " + "; ".join(changes)
    return None


#: Bytes per read when comparing a trace with its regeneration.
_COMPARE_CHUNK = 1 << 16


def _first_diff(a, b) -> Optional[int]:
    """Offset of the first byte at which files ``a`` and ``b`` differ.

    None when they are identical; the shorter file's length when it is
    a prefix of the other.  Reads both in fixed-size chunks.
    """
    with open(a, "rb") as fa, open(b, "rb") as fb:
        offset = 0
        while True:
            chunk_a, chunk_b = fa.read(_COMPARE_CHUNK), fb.read(_COMPARE_CHUNK)
            if chunk_a != chunk_b:
                return offset + next(
                    (i for i, (x, y) in enumerate(zip(chunk_a, chunk_b)) if x != y),
                    min(len(chunk_a), len(chunk_b)),
                )
            if not chunk_a:
                return None
            offset += len(chunk_a)


def verify_trace(path, keep_regenerated: Optional[str] = None) -> VerifyResult:
    """Re-run the scenario embedded in a trace and diff the bytes.

    Determinism end-to-end: the header's ``meta`` is fed back through
    the same ``record_*`` orchestration (into a sibling temp file,
    removed afterwards unless ``keep_regenerated`` names a path) and
    the two files must match byte-for-byte.  Before re-running, the
    header's spec digests are checked against the *current* bundle, so
    "the spec changed since this was recorded" is reported as itself
    rather than as a mystifying byte diff.  So is an older schema: a
    schema-3 trace still replays, but this build writes schema
    ``TRACE_SCHEMA_VERSION``, so its regeneration could never match.
    The header comes from outside the program, so its ``meta`` is
    checked too: keys that the mode's recorder does not write, or does
    not find, and a spec that does not parse fail the verify by name
    before anything runs.  So does a ``keep_regenerated`` path that
    names the trace itself, which the regeneration would overwrite.
    When the bytes differ, a second reason names the first run or window
    whose ``execution`` envelope differs, if one does (say, a hybrid run
    recorded before the engine changed which requests run discrete).
    Neither file is ever held in memory whole.
    """
    read = TraceSummary(path=str(path))
    # Walks the whole file for the integrity flags; raises on a
    # non-trace or an unknown schema.
    for _record in iter_trace(path, read):
        pass
    reasons: List[str] = []
    if keep_regenerated is not None and same_file(keep_regenerated, path):
        return VerifyResult(
            path=str(path), ok=False,
            reasons=[
                f"the keep-regenerated path {str(keep_regenerated)!r} is "
                "the trace itself; regenerating there would overwrite it"
            ],
            original_bytes=read.file_bytes,
        )
    schema = read.header.get("schema") if read.header else None
    if read.header is not None and schema != TRACE_SCHEMA_VERSION:
        return VerifyResult(
            path=str(path), ok=False,
            reasons=[
                f"schema {schema} / outcome digest "
                f"v{_SCHEMA_DIGESTS[schema]}: re-record to verify (this "
                f"build writes schema {TRACE_SCHEMA_VERSION} / outcome "
                f"digest v{_SCHEMA_DIGESTS[TRACE_SCHEMA_VERSION]})"
            ],
            original_bytes=read.file_bytes,
        )
    if read.truncated:
        reasons.append(
            f"trace is truncated at byte {read.truncated_at}; only a "
            "cleanly closed trace can verify"
        )
    elif not read.clean_close:
        reasons.append("trace has no end footer; only a cleanly closed "
                       "trace can verify")
    if reasons:
        return VerifyResult(path=str(path), ok=False, reasons=reasons,
                            original_bytes=read.file_bytes)
    mode = read.mode
    regenerate, reasons = _regenerator(mode, read.header["meta"])
    if reasons:
        return VerifyResult(path=str(path), ok=False, reasons=reasons,
                            original_bytes=read.file_bytes)
    if mode in ("campaign", "soak"):
        current = stock_spec_digests()
        for name, digest in sorted(read.specs.items()):
            now = current.get(name)
            if now is None:
                reasons.append(f"spec {name!r} is no longer bundled")
            elif now != digest:
                reasons.append(
                    f"bundled spec {name!r} changed since recording "
                    f"({digest[:12]} -> {now[:12]})"
                )
        if reasons:
            return VerifyResult(path=str(path), ok=False, reasons=reasons,
                                original_bytes=read.file_bytes)
    regen = Path(keep_regenerated) if keep_regenerated else (
        Path(str(path) + ".regen")
    )
    try:
        regenerate(regen)
        original_bytes = os.path.getsize(path)
        regenerated_bytes = os.path.getsize(regen)
        diff = _first_diff(path, regen)
        if diff is None:
            return VerifyResult(path=str(path), ok=True, reasons=[],
                                original_bytes=original_bytes,
                                regenerated_bytes=regenerated_bytes)
        start = max(0, diff - 20)
        with open(path, "rb") as fh:
            fh.seek(start)
            context = fh.read(diff + 20 - start)
        reasons = [
            f"regenerated trace diverges at byte {diff} "
            f"(original {original_bytes} bytes, regenerated "
            f"{regenerated_bytes}); context: {context!r}"
        ]
        mix = _engine_mix_change(path, regen)
        if mix is not None:
            reasons.append(mix)
        return VerifyResult(
            path=str(path), ok=False,
            reasons=reasons,
            original_bytes=original_bytes,
            regenerated_bytes=regenerated_bytes,
            first_diff=diff,
        )
    finally:
        if keep_regenerated is None and regen.exists():
            regen.unlink()
