"""Spec-layer contract: round-trips hold, the validator names fields.

Two properties carry the whole "scenarios are data" design.  First,
every valid spec round-trips bit-identically -- ``parse_spec(to_dict())``
is the identity and the digest is serialization-stable -- otherwise spec
digests could not serve as scenario identities.  Second, every invalid
document is rejected with a message naming the offending field's JSON
path (``groups.rate``, ``faults.events[1].factor``): a validator that
says "bad spec" without a path is useless against a 40-line file.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultEvent
from repro.scenario import (
    Draw,
    FamilySpec,
    ScenarioSpec,
    SpecError,
    generate_spec,
    load_spec,
    parse_spec,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_finite = st.floats(min_value=0.001, max_value=1000.0,
                    allow_nan=False, allow_infinity=False)
_unit = st.floats(min_value=0.01, max_value=0.95,
                  allow_nan=False, allow_infinity=False)


@st.composite
def draw_cells(draw):
    """Any valid Draw: fixed or uniform, either unit, optionally per-member."""
    of = draw(st.sampled_from(["value", "span"]))
    per_member = draw(st.booleans())
    if draw(st.booleans()):
        value = draw(_finite)
        return Draw(kind="fixed", lo=value, hi=value, of=of,
                    per_member=per_member)
    lo, hi = sorted((draw(_finite), draw(_finite)))
    return Draw(kind="uniform", lo=lo, hi=hi, of=of, per_member=per_member)


@st.composite
def _shared_cell(draw, positive=False):
    """A Draw legal for onset/duration slots: shared, non-negative."""
    of = draw(st.sampled_from(["value", "span"]))
    lo_min = 0.001 if positive else 0.0
    lo, hi = sorted((
        draw(st.floats(min_value=lo_min, max_value=100.0,
                       allow_nan=False, allow_infinity=False)),
        draw(st.floats(min_value=lo_min, max_value=100.0,
                       allow_nan=False, allow_infinity=False)),
    ))
    if draw(st.booleans()):
        return Draw(kind="fixed", lo=lo, hi=lo, of=of)
    return Draw(kind="uniform", lo=lo, hi=hi, of=of)


@st.composite
def family_specs(draw):
    """Any valid FamilySpec under the grammar's cross-field rules."""
    fault = draw(st.sampled_from(["stutter", "fail-stop"]))
    target = draw(st.sampled_from(["member", "group"]))
    onset = draw(_shared_cell())
    if fault == "fail-stop":
        return FamilySpec(name=draw(st.sampled_from(["f1", "blip", "halt"])),
                          target=target, fault=fault, onset=onset)
    lo, hi = sorted((draw(_unit), draw(_unit)))
    per_member = target == "group" and draw(st.booleans())
    kind = draw(st.sampled_from(["fixed", "uniform"]))
    factor = (Draw(kind="fixed", lo=lo, hi=lo, per_member=per_member)
              if kind == "fixed"
              else Draw(kind="uniform", lo=lo, hi=hi, per_member=per_member))
    return FamilySpec(
        name=draw(st.sampled_from(["f1", "blip", "slowdown"])),
        target=target, fault=fault, onset=onset,
        duration=draw(_shared_cell(positive=True)),
        factor=factor,
    )


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @given(cell=draw_cells())
    @settings(max_examples=100)
    def test_draw_round_trips(self, cell):
        assert Draw.parse(cell.to_dict(), "cell") == cell

    @given(spec=family_specs())
    @settings(max_examples=100)
    def test_family_spec_round_trips(self, spec):
        assert parse_spec(spec.to_dict()) == spec
        assert FamilySpec.from_dict(spec.to_dict()) == spec

    @given(spec=family_specs())
    @settings(max_examples=50)
    def test_family_digest_is_serialization_stable(self, spec):
        # The digest hashes the canonical (sorted-key) form, so a payload
        # with reordered keys must hash identically.
        reordered = dict(reversed(list(spec.to_dict().items())))
        assert parse_spec(reordered).digest() == spec.digest()

    @given(seed=st.integers(0, 10**6), index=st.integers(0, 200))
    @settings(max_examples=50)
    def test_generated_scenario_round_trips(self, seed, index):
        spec = generate_spec(seed, index)
        assert parse_spec(spec.to_dict()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert parse_spec(spec.to_dict()).digest() == spec.digest()

    def test_json_round_trip_through_disk(self, tmp_path):
        spec = generate_spec(7, 3)
        path = tmp_path / f"{spec.name}.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec(path) == spec


# ---------------------------------------------------------------------------
# Rejection: the message must name the offending field
# ---------------------------------------------------------------------------


def _valid_scenario():
    return {
        "kind": "scenario",
        "name": "t",
        "groups": {"substrate": "storage", "prefix": "d", "count": 2,
                   "rate": 5.5},
        "arrivals": {"work": 0.5, "gap": 0.05, "requests": 100},
        "faults": {"events": [
            {"component": "d0", "fault": "stutter", "onset": 1.0,
             "duration": 2.0, "factor": 0.3},
        ]},
    }


def _valid_family():
    return {
        "kind": "family",
        "name": "t",
        "target": "group",
        "fault": "stutter",
        "onset": {"uniform": [0.1, 0.25], "of": "span"},
        "duration": {"fixed": 0.5, "of": "span"},
        "factor": {"uniform": [0.08, 0.3], "per_member": True},
    }


def _mutate(payload, path, value, delete=False):
    payload = copy.deepcopy(payload)
    node = payload
    *parents, leaf = path
    for key in parents:
        node = node[key]
    if delete:
        del node[leaf]
    else:
        node[leaf] = value
    return payload


SCENARIO_REJECTIONS = [
    # (mutation, expected fragment naming the field)
    (lambda p: _mutate(p, ["extra"], 1), "extra: unknown key"),
    (lambda p: _mutate(p, ["arrivals"], None, delete=True),
     "arrivals: missing required key"),
    (lambda p: _mutate(p, ["groups", "substrate"], "blockchain"),
     "groups.substrate"),
    (lambda p: _mutate(p, ["groups", "rate"], 0), "groups.rate"),
    (lambda p: _mutate(p, ["groups", "rate"], True), "groups.rate"),
    (lambda p: _mutate(p, ["groups", "count"], 0), "groups.count"),
    (lambda p: _mutate(p, ["groups", "count"], 2.5), "groups.count"),
    (lambda p: _mutate(p, ["groups", "tolerance"], 1.5), "groups.tolerance"),
    (lambda p: _mutate(p, ["groups", "prefix"], ""), "groups.prefix"),
    (lambda p: _mutate(p, ["arrivals", "gap"], -0.1), "arrivals.gap"),
    (lambda p: _mutate(p, ["arrivals", "work"], "lots"), "arrivals.work"),
    (lambda p: _mutate(p, ["arrivals", "requests"], 0), "arrivals.requests"),
    (lambda p: _mutate(p, ["slo_factor"], 0.0), "slo_factor"),
    (lambda p: _mutate(p, ["horizon_factor"], 1.0), "horizon_factor"),
    (lambda p: _mutate(p, ["policy"], "pray"), "policy"),
    (lambda p: _mutate(p, ["faults"], {}), "faults"),
    (lambda p: _mutate(p, ["faults"],
                       {"family": "magnitude", "events": []}), "faults"),
    (lambda p: _mutate(p, ["faults"], {"family": ""}), "faults.family"),
    (lambda p: _mutate(p, ["faults", "events", 0, "factor"], 1.5),
     "faults.events[0].factor"),
    (lambda p: _mutate(p, ["faults", "events", 0, "onset"], -1.0),
     "faults.events[0].onset"),
    (lambda p: _mutate(p, ["faults", "events", 0, "duration"], None,
                       delete=True), "faults.events[0].duration"),
    (lambda p: _mutate(p, ["faults", "events", 0, "component"], "d9"),
     "faults.events[0].component"),
    (lambda p: _mutate(p, ["faults", "events", 0, "fault"], "gremlin"),
     "faults.events[0].fault"),
]

FAMILY_REJECTIONS = [
    (lambda p: _mutate(p, ["target"], "rack"), "target"),
    (lambda p: _mutate(p, ["fault"], "gremlin"), "fault"),
    (lambda p: _mutate(p, ["onset", "per_member"], True), "onset.per_member"),
    (lambda p: _mutate(p, ["onset"], {"uniform": [0.3, 0.1]}),
     "onset.uniform"),
    (lambda p: _mutate(p, ["onset"], {"fixed": 0.1, "uniform": [0.1, 0.2]}),
     "onset"),
    (lambda p: _mutate(p, ["onset"], {"uniform": [0.1, "lots"]}),
     "onset.uniform"),
    (lambda p: _mutate(p, ["duration"], {"fixed": 0.0}), "duration"),
    (lambda p: _mutate(p, ["duration"], None, delete=True), "duration"),
    (lambda p: _mutate(p, ["factor"], None, delete=True), "factor"),
    (lambda p: _mutate(p, ["factor"], {"uniform": [0.1, 1.5]}), "factor"),
    (lambda p: _mutate(p, ["factor"],
                       {"uniform": [0.1, 0.5], "of": "span"}), "factor.of"),
    (lambda p: _mutate(p, ["factor", "of"], "parsecs"), "factor.of"),
]


class TestRejectionsNameTheField:
    @pytest.mark.parametrize("mutate,fragment", SCENARIO_REJECTIONS)
    def test_scenario_rejections(self, mutate, fragment):
        with pytest.raises(SpecError) as err:
            parse_spec(mutate(_valid_scenario()))
        assert fragment in str(err.value)

    @pytest.mark.parametrize("mutate,fragment", FAMILY_REJECTIONS)
    def test_family_rejections(self, mutate, fragment):
        with pytest.raises(SpecError) as err:
            parse_spec(mutate(_valid_family()))
        assert fragment in str(err.value)

    def test_valid_baselines_actually_parse(self):
        # Guards the tables above: a broken baseline would vacuously pass.
        assert isinstance(parse_spec(_valid_scenario()), ScenarioSpec)
        assert isinstance(parse_spec(_valid_family()), FamilySpec)

    def test_unknown_kind(self):
        with pytest.raises(SpecError) as err:
            parse_spec({"kind": "topology"})
        assert "kind" in str(err.value)

    def test_overlapping_stutters_name_both_events(self):
        payload = _valid_scenario()
        payload["faults"]["events"].append(
            {"component": "d0", "fault": "stutter", "onset": 2.5,
             "duration": 1.0, "factor": 0.5})
        with pytest.raises(SpecError) as err:
            parse_spec(payload)
        message = str(err.value)
        assert "faults.events[1]" in message
        assert "faults.events[0]" in message
        assert "overlaps" in message

    def test_duplicate_failstop_names_first_event(self):
        payload = _valid_scenario()
        payload["faults"]["events"] = [
            {"component": "d1", "fault": "fail-stop", "onset": 1.0},
            {"component": "d1", "fault": "fail-stop", "onset": 2.0},
        ]
        with pytest.raises(SpecError) as err:
            parse_spec(payload)
        assert "already fail-stops" in str(err.value)

    def test_stutter_past_failstop_rejected(self):
        payload = _valid_scenario()
        payload["faults"]["events"] = [
            {"component": "d1", "fault": "fail-stop", "onset": 1.5},
            {"component": "d1", "fault": "stutter", "onset": 1.0,
             "duration": 2.0, "factor": 0.4},
        ]
        with pytest.raises(SpecError) as err:
            parse_spec(payload)
        assert "runs past its fail-stop" in str(err.value)

    def test_failstop_event_rejects_duration(self):
        payload = _valid_scenario()
        payload["faults"]["events"] = [
            {"component": "d1", "fault": "fail-stop", "onset": 1.0,
             "duration": 2.0},
        ]
        with pytest.raises(SpecError) as err:
            parse_spec(payload)
        assert "faults.events[0].duration" in str(err.value)


class TestExplicitEvents:
    def test_events_parse_to_fault_events_and_round_trip(self):
        payload = _valid_scenario()
        payload["faults"]["events"].append(
            {"component": "d1", "fault": "fail-stop", "onset": 4.0})
        spec = parse_spec(payload)
        assert spec.events == (
            FaultEvent("d0", "stutter", onset=1.0, duration=2.0, factor=0.3),
            FaultEvent("d1", "fail-stop", onset=4.0),
        )
        assert parse_spec(spec.to_dict()) == spec
        # The spec form: the kind under ``fault``, a fail-stop bare.
        assert spec.to_dict()["faults"]["events"] == payload["faults"]["events"]


class TestNaNIsRefused:
    def test_a_nan_onset_names_the_event(self):
        payload = _mutate(_valid_scenario(), ["faults", "events", 0, "onset"],
                          float("nan"))
        with pytest.raises(SpecError) as err:
            parse_spec(payload)
        assert "faults.events[0].onset: expected a number, got NaN" in str(err.value)

    def test_a_nan_fixed_duration_names_the_duration(self, tmp_path):
        path = tmp_path / "nan_duration.json"
        path.write_text(
            '{"kind": "family", "name": "nan_duration", "target": "member", '
            '"fault": "stutter", "onset": {"fixed": 0.15, "of": "span"}, '
            '"duration": {"fixed": NaN, "of": "span"}, '
            '"factor": {"uniform": [0.05, 0.5]}}')
        with pytest.raises(SpecError) as err:
            load_spec(path)
        assert "duration.fixed: expected a number, got NaN" in str(err.value)

    def test_an_infinite_stutter_never_restores(self):
        payload = _mutate(_valid_scenario(), ["faults", "events", 0, "duration"],
                          float("inf"))
        assert parse_spec(payload).events[0].end == float("inf")


class TestLoader:
    def test_fixture_files_are_rejected_with_the_filename(self, request):
        fixtures = sorted(
            (request.path.parent / "fixtures").glob("invalid_*.json")
        )
        assert fixtures, "planted-invalid fixtures are missing"
        for path in fixtures:
            with pytest.raises(SpecError) as err:
                load_spec(path)
            assert path.name in str(err.value)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(SpecError) as err:
            load_spec(path)
        assert "spec.yaml" in str(err.value)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError) as err:
            load_spec(path)
        assert "broken.json" in str(err.value)
        assert "not valid JSON" in str(err.value)
