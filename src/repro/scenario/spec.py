"""Typed scenario specs and the strict validating loader.

Two document kinds share the loader (dispatched on the top-level
``kind`` key):

``kind = "scenario"`` -> :class:`ScenarioSpec`
    A replicated open-loop workload -- replica-group topology
    (substrate, prefix, group count/size, per-member rate), arrival
    schedule (per-request work, inter-arrival gap, request count),
    SLO/horizon factors -- plus an optional fault binding (either a
    ``family`` reference resolved against the family registry at
    scenario-draw time, or an explicit ``events`` schedule in absolute
    seconds, parsed to :class:`~repro.faults.model.FaultEvent`) and an
    optional mitigation-``policy`` binding.

``kind = "family"`` -> :class:`FamilySpec`
    A seeded fault-scenario *generator* as data: a draw grammar
    (:class:`Draw`: fixed values or uniform ranges, dimensionless or
    scaled by the workload's submission span) over one fault-event
    template, targeting either one drawn member or one whole drawn
    replica group.  Compiled generators consume the ``random.Random``
    stream in a fixed field order (target, onset, duration, factor,
    then per-member draws), which is what makes the bundled family
    specs byte-identical to the hand-wired closures they replaced.

Validation is strict and *names the offending field*: unknown keys,
wrong types, NaN, unit-incoherent values (negative rates, slowdown factors
outside ``(0, 1)``, span-scaled dimensionless fields) and overlapping
stutter windows on one component are all rejected with the JSON path of
the problem (``groups.rate``, ``faults.events[2].factor``, ...).

Every spec round-trips: ``parse_spec(spec.to_dict()) == spec``, and
:meth:`ScenarioSpec.digest` / :meth:`FamilySpec.digest` hash the
canonical serialized form exactly like
:meth:`repro.analysis.report.Table.digest`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.component import SUBSTRATES
from ..faults.model import FaultEvent

__all__ = [
    "SpecError",
    "Draw",
    "FamilySpec",
    "GroupTopology",
    "ArrivalSchedule",
    "ScenarioSpec",
    "parse_spec",
    "load_spec",
]

FAULT_KINDS = ("stutter", "fail-stop")


class SpecError(ValueError):
    """A spec document failed validation; the message names the field."""


def _fail(path: str, message: str) -> "SpecError":
    return SpecError(f"{path}: {message}" if path else message)


def _mapping(payload: Any, path: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise _fail(path, f"expected a mapping, got {type(payload).__name__}")
    return payload


def _check_keys(payload: Dict[str, Any], path: str, required: Tuple[str, ...],
                optional: Tuple[str, ...] = ()) -> None:
    for key in payload:
        if key not in required and key not in optional:
            raise _fail(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in payload:
            raise _fail(f"{path}.{key}" if path else key, "missing required key")


def _number(payload: Dict[str, Any], path: str, key: str) -> float:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}" if path else key,
                    f"expected a number, got {type(value).__name__}")
    if math.isnan(value):  # JSON and TOML both read NaN
        raise _fail(f"{path}.{key}" if path else key, "expected a number, got NaN")
    return float(value)


def _integer(payload: Dict[str, Any], path: str, key: str) -> int:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{key}" if path else key,
                    f"expected an integer, got {type(value).__name__}")
    return value


def _string(payload: Dict[str, Any], path: str, key: str) -> str:
    value = payload[key]
    if not isinstance(value, str):
        raise _fail(f"{path}.{key}" if path else key,
                    f"expected a string, got {type(value).__name__}")
    return value


def _check_fault_keys(payload: Dict[str, Any], path: str, fault: str,
                      what: str) -> None:
    """A stutter needs ``duration`` and ``factor``; a fail-stop takes neither."""
    for key in ("duration", "factor"):
        field = f"{path}.{key}" if path else key
        if fault == "stutter" and key not in payload:
            raise _fail(field, f"required for stutter {what}")
        if fault == "fail-stop" and key in payload:
            raise _fail(field, "fail-stop events halt permanently; "
                               f"'{key}' does not apply")


def _digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Draws (the family grammar's value cells)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Draw:
    """One value cell of a family template: fixed, or uniformly drawn.

    ``of="span"`` scales the (drawn) value by the workload's submission
    span at generation time -- the unit for onsets and durations, which
    the stock families express as fractions of the run.  ``of="value"``
    is dimensionless (slowdown factors).  ``per_member`` marks a cell
    re-drawn for every member of a group-targeted family (the
    ``correlated`` family's per-member factor).

    A fixed cell consumes **no** RNG draws; a uniform cell consumes
    exactly one ``rng.uniform(lo, hi)``.  That accounting is load-
    bearing: it is what keeps compiled family generators byte-identical
    to the hand-wired closures they replaced.
    """

    kind: str  # "fixed" | "uniform"
    lo: float
    hi: float
    of: str = "value"  # "value" | "span"
    per_member: bool = False

    def sample(self, rng, span: float) -> float:
        value = self.lo if self.kind == "fixed" else rng.uniform(self.lo, self.hi)
        return value * span if self.of == "span" else value

    def bounds(self) -> Tuple[float, float]:
        return (self.lo, self.hi)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = (
            {"fixed": self.lo} if self.kind == "fixed"
            else {"uniform": [self.lo, self.hi]}
        )
        if self.of != "value":
            payload["of"] = self.of
        if self.per_member:
            payload["per_member"] = True
        return payload

    @classmethod
    def parse(cls, payload: Any, path: str) -> "Draw":
        payload = _mapping(payload, path)
        _check_keys(payload, path, (), ("fixed", "uniform", "of", "per_member"))
        has_fixed = "fixed" in payload
        has_uniform = "uniform" in payload
        if has_fixed == has_uniform:
            raise _fail(path, "give exactly one of 'fixed' or 'uniform'")
        if has_fixed:
            value = _number(payload, path, "fixed")
            lo = hi = value
            kind = "fixed"
        else:
            bounds = payload["uniform"]
            if (not isinstance(bounds, (list, tuple)) or len(bounds) != 2
                    or any(isinstance(b, bool) or not isinstance(b, (int, float))
                           for b in bounds)):
                raise _fail(f"{path}.uniform", "expected [lo, hi] numbers")
            lo, hi = float(bounds[0]), float(bounds[1])
            if not lo <= hi:
                raise _fail(f"{path}.uniform", f"lo {lo:g} exceeds hi {hi:g}")
            kind = "uniform"
        of = payload.get("of", "value")
        if of not in ("value", "span"):
            raise _fail(f"{path}.of", f"expected 'value' or 'span', got {of!r}")
        per_member = payload.get("per_member", False)
        if not isinstance(per_member, bool):
            raise _fail(f"{path}.per_member", "expected a boolean")
        return cls(kind=kind, lo=lo, hi=hi, of=of, per_member=per_member)


# ---------------------------------------------------------------------------
# Fault-family specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A seeded fault-scenario family as data (one event template).

    ``target="member"`` draws one replica group then one member of it;
    ``target="group"`` draws one group and emits the event for every
    member (the correlated-stutter shape).  Draw order is fixed --
    target, onset, duration, factor, then per-member factors -- so the
    RNG stream consumed by the compiled generator is a function of the
    spec alone.
    """

    name: str
    target: str  # "member" | "group"
    fault: str  # "stutter" | "fail-stop"
    onset: Draw
    duration: Optional[Draw] = None
    factor: Optional[Draw] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "family",
            "name": self.name,
            "target": self.target,
            "fault": self.fault,
            "onset": self.onset.to_dict(),
        }
        if self.duration is not None:
            payload["duration"] = self.duration.to_dict()
        if self.factor is not None:
            payload["factor"] = self.factor.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FamilySpec":
        spec = parse_spec(payload)
        if not isinstance(spec, cls):
            raise SpecError(f"kind: expected 'family', got {payload.get('kind')!r}")
        return spec

    def digest(self) -> str:
        """SHA-256 of the canonical serialized spec (stable identity)."""
        return _digest(self.to_dict())

    @classmethod
    def parse(cls, payload: Dict[str, Any]) -> "FamilySpec":
        _check_keys(payload, "", ("kind", "name", "target", "fault", "onset"),
                    ("duration", "factor"))
        name = _string(payload, "", "name")
        if not name:
            raise _fail("name", "must be non-empty")
        target = _string(payload, "", "target")
        if target not in ("member", "group"):
            raise _fail("target", f"expected 'member' or 'group', got {target!r}")
        fault = _string(payload, "", "fault")
        if fault not in FAULT_KINDS:
            raise _fail("fault",
                        f"expected one of {', '.join(FAULT_KINDS)}, got {fault!r}")
        onset = Draw.parse(payload["onset"], "onset")
        if onset.per_member:
            raise _fail("onset.per_member",
                        "onsets are shared across a group, not per-member")
        if onset.lo < 0:
            raise _fail("onset", f"must be >= 0, got lower bound {onset.lo:g}")
        _check_fault_keys(payload, "", fault, "families")
        duration = factor = None
        if fault == "stutter":
            duration = Draw.parse(payload["duration"], "duration")
            if duration.per_member:
                raise _fail("duration.per_member",
                            "durations are shared across a group, not per-member")
            if duration.lo <= 0:
                raise _fail("duration",
                            f"must be > 0, got lower bound {duration.lo:g}")
            factor = Draw.parse(payload["factor"], "factor")
            if factor.of == "span":
                raise _fail(
                    "factor.of",
                    "a slowdown factor is a dimensionless rate multiplier; "
                    "scaling it by the span is unit-incoherent",
                )
            if not (0 < factor.lo and factor.hi < 1):
                raise _fail(
                    "factor",
                    f"stutter factors must lie in (0, 1), got "
                    f"[{factor.lo:g}, {factor.hi:g}]",
                )
            if factor.per_member and target != "group":
                raise _fail("factor.per_member",
                            "per-member draws need target = 'group'")
        return cls(name=name, target=target, fault=fault, onset=onset,
                   duration=duration, factor=factor)


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupTopology:
    """Replica-group topology: ``count`` groups of ``size`` members each.

    Members are :class:`~repro.faults.component.DegradableServer`
    instances named ``{prefix}0 .. {prefix}{count*size-1}`` (group *k*
    holds the contiguous block of ``size`` names), each serving ``rate``
    work units per second under a performance spec of the same rate with
    ``tolerance`` fractional slack.
    """

    substrate: str
    prefix: str
    count: int
    size: int = 2
    rate: float = 1.0
    tolerance: float = 0.2

    def member_names(self) -> List[str]:
        return [f"{self.prefix}{i}" for i in range(self.count * self.size)]

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "substrate": self.substrate,
            "prefix": self.prefix,
            "count": self.count,
            "size": self.size,
            "rate": self.rate,
        }
        if self.tolerance != 0.2:
            payload["tolerance"] = self.tolerance
        return payload

    @classmethod
    def parse(cls, payload: Any, path: str = "groups") -> "GroupTopology":
        payload = _mapping(payload, path)
        _check_keys(payload, path, ("substrate", "prefix", "count", "rate"),
                    ("size", "tolerance"))
        substrate = _string(payload, path, "substrate")
        if substrate not in SUBSTRATES:
            raise _fail(f"{path}.substrate",
                        f"unknown substrate {substrate!r}; known: "
                        f"{', '.join(SUBSTRATES)}")
        prefix = _string(payload, path, "prefix")
        if not prefix:
            raise _fail(f"{path}.prefix", "must be non-empty")
        count = _integer(payload, path, "count")
        if count < 1:
            raise _fail(f"{path}.count", f"must be >= 1, got {count}")
        size = _integer(payload, path, "size") if "size" in payload else 2
        if size < 1:
            raise _fail(f"{path}.size", f"must be >= 1, got {size}")
        rate = _number(payload, path, "rate")
        if not rate > 0:
            raise _fail(f"{path}.rate",
                        f"a service rate must be > 0 work units/s, got {rate:g}")
        tolerance = (_number(payload, path, "tolerance")
                     if "tolerance" in payload else 0.2)
        if not 0 < tolerance < 1:
            raise _fail(f"{path}.tolerance",
                        f"must lie in (0, 1), got {tolerance:g}")
        return cls(substrate=substrate, prefix=prefix, count=count, size=size,
                   rate=rate, tolerance=tolerance)


@dataclass(frozen=True)
class ArrivalSchedule:
    """Open-loop arrivals: ``requests`` jobs of ``work`` units, one per
    ``gap`` seconds, assigned round-robin across the replica groups."""

    work: float
    gap: float
    requests: int

    def to_dict(self) -> Dict[str, Any]:
        return {"work": self.work, "gap": self.gap, "requests": self.requests}

    @classmethod
    def parse(cls, payload: Any, path: str = "arrivals") -> "ArrivalSchedule":
        payload = _mapping(payload, path)
        _check_keys(payload, path, ("work", "gap", "requests"))
        work = _number(payload, path, "work")
        if not work > 0:
            raise _fail(f"{path}.work",
                        f"per-request work must be > 0 units, got {work:g}")
        gap = _number(payload, path, "gap")
        if not gap > 0:
            raise _fail(f"{path}.gap",
                        f"the inter-arrival gap must be > 0 seconds, got {gap:g}")
        requests = _integer(payload, path, "requests")
        if requests < 1:
            raise _fail(f"{path}.requests", f"must be >= 1, got {requests}")
        return cls(work=work, gap=gap, requests=requests)


def _parse_event(payload: Any, path: str) -> FaultEvent:
    """One explicitly scheduled fault (absolute seconds), checked by path."""
    payload = _mapping(payload, path)
    _check_keys(payload, path, ("component", "fault", "onset"),
                ("duration", "factor"))
    component = _string(payload, path, "component")
    fault = _string(payload, path, "fault")
    if fault not in FAULT_KINDS:
        raise _fail(f"{path}.fault",
                    f"expected one of {', '.join(FAULT_KINDS)}, got {fault!r}")
    onset = _number(payload, path, "onset")
    if onset < 0:
        raise _fail(f"{path}.onset", f"must be >= 0 seconds, got {onset:g}")
    _check_fault_keys(payload, path, fault, "events")
    if fault == "fail-stop":
        return FaultEvent(component, fault, onset)
    duration = _number(payload, path, "duration")
    if not duration > 0:
        raise _fail(f"{path}.duration", f"must be > 0 seconds, got {duration:g}")
    factor = _number(payload, path, "factor")
    if not 0 < factor < 1:
        raise _fail(f"{path}.factor",
                    f"a slowdown factor must lie in (0, 1), got {factor:g}")
    return FaultEvent(component, fault, onset, duration, factor)


def _event_to_dict(event: FaultEvent) -> Dict[str, Any]:
    """An event's spec-file form: kind under ``fault``, a fail-stop bare."""
    payload = {"component": event.component, "fault": event.kind,
               "onset": event.onset}
    if event.kind == "stutter":
        payload.update(duration=event.duration, factor=event.factor)
    return payload


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: topology + arrivals + optional faults/policy.

    A spec with neither ``family`` nor ``events`` describes a pure
    workload (the bundled ``raid10``/``dht``/``surge`` files): the fault
    schedule is bound later, by the campaign sweep pairing it with a
    family.  ``family`` defers event generation to the named registered
    family at scenario-draw time; ``events`` pins an explicit schedule.
    """

    name: str
    groups: GroupTopology
    arrivals: ArrivalSchedule
    slo_factor: float = 12.0
    horizon_factor: float = 6.0
    family: Optional[str] = None
    events: Tuple[FaultEvent, ...] = ()
    policy: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "scenario",
            "name": self.name,
            "groups": self.groups.to_dict(),
            "arrivals": self.arrivals.to_dict(),
            "slo_factor": self.slo_factor,
            "horizon_factor": self.horizon_factor,
        }
        if self.family is not None:
            payload["faults"] = {"family": self.family}
        elif self.events:
            payload["faults"] = {"events": [_event_to_dict(e) for e in self.events]}
        if self.policy is not None:
            payload["policy"] = self.policy
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        spec = parse_spec(payload)
        if not isinstance(spec, cls):
            raise SpecError(f"kind: expected 'scenario', got {payload.get('kind')!r}")
        return spec

    def digest(self) -> str:
        """SHA-256 of the canonical serialized spec (stable identity)."""
        return _digest(self.to_dict())

    @classmethod
    def parse(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        _check_keys(payload, "", ("kind", "name", "groups", "arrivals"),
                    ("slo_factor", "horizon_factor", "faults", "policy"))
        name = _string(payload, "", "name")
        if not name:
            raise _fail("name", "must be non-empty")
        groups = GroupTopology.parse(payload["groups"])
        arrivals = ArrivalSchedule.parse(payload["arrivals"])
        slo_factor = (_number(payload, "", "slo_factor")
                      if "slo_factor" in payload else 12.0)
        if not slo_factor > 0:
            raise _fail("slo_factor", f"must be > 0, got {slo_factor:g}")
        horizon_factor = (_number(payload, "", "horizon_factor")
                          if "horizon_factor" in payload else 6.0)
        if not horizon_factor > 1:
            raise _fail("horizon_factor",
                        f"the drain horizon must exceed the submission span "
                        f"(> 1), got {horizon_factor:g}")
        family: Optional[str] = None
        events: Tuple[FaultEvent, ...] = ()
        if "faults" in payload:
            faults = _mapping(payload["faults"], "faults")
            _check_keys(faults, "faults", (), ("family", "events"))
            if ("family" in faults) == ("events" in faults):
                raise _fail("faults",
                            "give exactly one of 'family' or 'events'")
            if "family" in faults:
                family = _string(faults, "faults", "family")
                if not family:
                    raise _fail("faults.family", "must be non-empty")
            else:
                raw = faults["events"]
                if not isinstance(raw, (list, tuple)):
                    raise _fail("faults.events", "expected a list of events")
                events = tuple(
                    _parse_event(item, f"faults.events[{i}]")
                    for i, item in enumerate(raw)
                )
        policy: Optional[str] = None
        if "policy" in payload:
            policy = _string(payload, "", "policy")
            from ..policy import policy_names

            if policy not in policy_names():
                raise _fail("policy",
                            f"unknown policy {policy!r}; known: "
                            f"{', '.join(policy_names())}")
        spec = cls(name=name, groups=groups, arrivals=arrivals,
                   slo_factor=slo_factor, horizon_factor=horizon_factor,
                   family=family, events=events, policy=policy)
        spec._validate_events()
        return spec

    def _validate_events(self) -> None:
        """Cross-field checks an event list must satisfy."""
        members = set(self.groups.member_names())
        stutters: Dict[str, List[int]] = {}
        stopped: Dict[str, int] = {}
        for i, event in enumerate(self.events):
            path = f"faults.events[{i}]"
            if event.component not in members:
                lo, hi = self.groups.prefix + "0", (
                    f"{self.groups.prefix}{self.groups.count * self.groups.size - 1}"
                )
                raise _fail(f"{path}.component",
                            f"{event.component!r} is not a member of the "
                            f"topology ({lo}..{hi})")
            if event.kind == "fail-stop":
                if event.component in stopped:
                    raise _fail(path,
                                f"{event.component!r} already fail-stops in "
                                f"faults.events[{stopped[event.component]}]")
                stopped[event.component] = i
                continue
            for j in stutters.get(event.component, ()):
                other = self.events[j]
                if event.onset < other.end and other.onset < event.end:
                    raise _fail(
                        path,
                        f"stutter window [{event.onset:g}, {event.end:g}] on "
                        f"{event.component!r} overlaps faults.events[{j}]'s "
                        f"[{other.onset:g}, {other.end:g}]",
                    )
            stutters.setdefault(event.component, []).append(i)
        for component, i in stopped.items():
            onset = self.events[i].onset
            for j in stutters.get(component, ()):
                if self.events[j].end > onset:
                    raise _fail(
                        f"faults.events[{j}]",
                        f"stutter on {component!r} runs past its fail-stop "
                        f"at t={onset:g} (faults.events[{i}])",
                    )


# ---------------------------------------------------------------------------
# Loader entry points
# ---------------------------------------------------------------------------


def parse_spec(payload: Dict[str, Any]) -> Union[ScenarioSpec, FamilySpec]:
    """Parse one spec document, dispatching on its ``kind`` key."""
    payload = _mapping(payload, "")
    kind = payload.get("kind")
    if kind == "scenario":
        return ScenarioSpec.parse(payload)
    if kind == "family":
        return FamilySpec.parse(payload)
    raise _fail("kind", f"expected 'scenario' or 'family', got {kind!r}")


def load_spec(path: Union[str, Path]) -> Union[ScenarioSpec, FamilySpec]:
    """Parse one ``.json`` / ``.toml`` spec file.

    TOML needs :mod:`tomllib` (Python >= 3.11); the bundled stock specs
    are JSON so the package imports everywhere >= 3.10.
    """
    path = Path(path)
    text = path.read_bytes()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - 3.10 only
            raise SpecError(
                f"{path.name}: TOML specs need Python >= 3.11 (tomllib); "
                "use JSON on older interpreters"
            ) from None
        payload = tomllib.loads(text.decode("utf-8"))
    elif path.suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path.name}: not valid JSON ({exc})") from None
    else:
        raise SpecError(f"{path.name}: unknown spec suffix {path.suffix!r} "
                        "(expected .json or .toml)")
    try:
        return parse_spec(payload)
    except SpecError as exc:
        raise SpecError(f"{path.name}: {exc}") from None
