"""Scenario document tests: defaults, schema errors, constraint paths."""

from __future__ import annotations

import json
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabtrust.adversary import (
    HONEST_PROFILE,
    FaultKind,
    InitiatorKind,
    PayloadKind,
    ReportingKind,
)
from collabtrust.errors import ScenarioError
from collabtrust.routines import Kind, RoutineSpec
from collabtrust.scenario import Scenario, load_scenario, parse_scenario, scenario_from_dict

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_empty_document_gives_defaults():
    sc = parse_scenario("{}")
    assert sc.population == 5
    assert sc.group_size == 5
    assert sc.rounds == 25
    assert sc.regroup_period == 5
    assert sc.quorum == 3
    assert sc.round_deadline == 10
    assert sc.repetitions == 1
    assert sc.flag_threshold == 1
    assert sc.network.drop_prob == 0.0
    assert (sc.network.latency_min, sc.network.latency_max) == (1, 3)
    assert (sc.energy.e_op, sc.energy.e_tx, sc.energy.e_rx) == (1, 2, 1)
    assert sc.adversaries == ()
    # The loader adds no default of its own: the constructors hold them all.
    assert sc == Scenario()


def test_quorum_default_applies_to_constructed_scenarios():
    assert Scenario(population=3, group_size=3).quorum == 2
    sc = Scenario(population=9, group_size=9)
    assert sc.quorum == 5
    assert parse_scenario('{"population": 9, "group_size": 9}').quorum == 5
    assert parse_scenario('{"population": 9, "group_size": 9}') == sc


def test_routine_width_defaults_to_8():
    sc = parse_scenario('{"routines": [{"id": 5, "kind": "ADD"}]}')
    assert sc.routines == (RoutineSpec(id=5, kind=Kind.ADD),)
    assert sc.routines[0].width == 8


def test_shipped_trojan_scenario_loads():
    sc = load_scenario(str(SCENARIO_DIR / "five_device_trojan.json"))
    assert sc.group_size == 5
    profiles = [p for _, p in sc.adversaries]
    assert len(profiles) == 1
    assert profiles[0].fault is FaultKind.TROJAN
    assert profiles[0].trojan.mask == 15


def test_all_shipped_scenarios_load():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        load_scenario(str(path))


# Every key the README documents, with its default, by the document it
# belongs in: (base document, where the key goes, key, default). A key
# needing context is set in a minimal valid base; the others in `{}`.
_TROJAN_ENTRY = {"device": 1, "fault": "TROJAN", "trigger": {}, "payload": {"kind": "COMPLEMENT"}}
_DOCUMENTED_DEFAULTS = (
    *(({}, (), key, default) for key, default in (
        ("population", 5),
        ("group_size", 5),
        ("rounds", 25),
        ("regroup_period", 5),
        ("seed", 0),
        ("quorum", 3),  # floor((group_size - 1) / 2) + 1
        ("round_deadline", 10),
        ("repetitions", 1),
        ("flag_threshold", 1),
        ("network", {}),
        ("energy", {}),
        ("routines", []),
        ("adversaries", []),
    )),
    *(({}, ("network",), key, default) for key, default in (
        ("latency_min", 1), ("latency_max", 3), ("drop_prob", 0.0),
    )),
    *(({}, ("energy",), key, default) for key, default in (
        ("e_op", 1), ("e_tx", 2), ("e_rx", 1),
    )),
    *(({"routines": [{"id": 5, "kind": "ADD"}]}, ("routines", 0), key, default)
      for key, default in (("width", 8), ("steps", []))),
    *(({"adversaries": [{"device": 1}]}, ("adversaries", 0), key, default) for key, default in (
        ("fault", "HONEST"),
        ("reporting", "HONEST"),
        ("targets", []),
        ("initiator_policy", "HONEST"),
    )),
    *(({"adversaries": [_TROJAN_ENTRY]}, ("adversaries", 0, "trigger"), key, 0)
      for key in ("index", "mask", "match")),
    # COMPLEMENT takes no value; one given as 0 is the same payload.
    ({"adversaries": [_TROJAN_ENTRY]}, ("adversaries", 0, "payload"), "value", 0),
)


@pytest.mark.parametrize(
    "base, where, key, default",
    _DOCUMENTED_DEFAULTS,
    ids=[".".join(map(str, (*where, key))) for _, where, key, _ in _DOCUMENTED_DEFAULTS],
)
def test_each_documented_key_set_to_its_default_loads_as_if_left_out(base, where, key, default):
    doc = json.loads(json.dumps(base))
    node = doc
    for step in where:
        node = node.setdefault(step, {}) if isinstance(step, str) else node[step]
    node[key] = default
    assert scenario_from_dict(doc) == scenario_from_dict(base)


def test_group_larger_than_population_names_path():
    with pytest.raises(ScenarioError, match="group_size"):
        parse_scenario('{"group_size": 10, "population": 5}')


def test_group_of_fewer_than_three_is_rejected():
    # A group of two has one checker, so no majority of checkers can flag.
    with pytest.raises(ScenarioError, match="group_size: must be at least 3"):
        parse_scenario('{"group_size": 2, "population": 5, "quorum": 1}')


def test_population_capped_in_one_line():
    # A run builds per-device state for the whole population before round 0.
    with pytest.raises(ScenarioError) as exc:
        parse_scenario('{"population": 100001, "group_size": 3}')
    assert str(exc.value) == "population: must be at most 100000, got 100001"
    assert parse_scenario('{"population": 100000, "group_size": 3}').population == 100_000


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="grop_size"):
        parse_scenario('{"grop_size": 5}')
    with pytest.raises(ScenarioError, match="network.lag"):
        parse_scenario('{"network": {"lag": 3}}')


def test_syntax_error_reported():
    with pytest.raises(ScenarioError, match="syntax"):
        parse_scenario("{not json")


def test_bad_enum_value_names_path():
    with pytest.raises(ScenarioError, match=r"adversaries\[0\].fault"):
        parse_scenario('{"adversaries": [{"device": 1, "fault": "SNEAKY"}]}')


def test_trigger_required_for_trojan():
    with pytest.raises(ScenarioError, match="trigger"):
        parse_scenario('{"adversaries": [{"device": 1, "fault": "TROJAN"}]}')


def test_trigger_match_outside_mask_rejected():
    doc = (
        '{"adversaries": [{"device": 1, "fault": "TROJAN",'
        ' "trigger": {"index": 0, "mask": 15, "match": 21},'
        ' "payload": {"kind": "XOR", "value": 1}}]}'
    )
    with pytest.raises(ScenarioError, match="mask"):
        parse_scenario(doc)


def test_trigger_index_validated_against_routines():
    doc = (
        '{"adversaries": [{"device": 1, "fault": "TROJAN",'
        ' "trigger": {"index": 2, "mask": 15, "match": 5},'
        ' "payload": {"kind": "XOR", "value": 1}}]}'
    )
    with pytest.raises(ScenarioError, match="index"):
        parse_scenario(doc)


def test_self_targeting_rejected():
    doc = '{"adversaries": [{"device": 1, "reporting": "FRAME", "targets": [1]}]}'
    with pytest.raises(ScenarioError, match="itself"):
        parse_scenario(doc)


def test_random_reporting_requires_p():
    with pytest.raises(ScenarioError, match=r"\bp\b"):
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "RANDOM"}]}')
    with pytest.raises(ScenarioError, match="flip"):
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "RANDOM", "p": 1.5}]}')
    with pytest.raises(ScenarioError, match="RANDOM"):
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "HONEST", "p": 0.5}]}')


def test_latency_must_fit_in_round():
    with pytest.raises(ScenarioError, match="latency_max"):
        parse_scenario('{"round_deadline": 3, "network": {"latency_max": 3}}')


def test_drop_prob_range():
    with pytest.raises(ScenarioError, match="drop_prob"):
        parse_scenario('{"network": {"drop_prob": -0.1}}')


def test_duplicate_adversary_device():
    doc = '{"adversaries": [{"device": 1}, {"device": 1}]}'
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(doc)


def test_duplicate_routine_id():
    doc = '{"routines": [{"id": 7, "kind": "ADD"}, {"id": 7, "kind": "MUL"}]}'
    with pytest.raises(ScenarioError, match="routines: duplicate id 7"):
        parse_scenario(doc)


def test_adversary_device_outside_population():
    with pytest.raises(ScenarioError, match="population"):
        parse_scenario('{"adversaries": [{"device": 9}]}')


def test_quorum_bounds():
    with pytest.raises(ScenarioError, match="quorum"):
        parse_scenario('{"quorum": 5}')
    with pytest.raises(ScenarioError, match="quorum"):
        parse_scenario('{"quorum": 0}')


def test_quorum_default_scales_with_group_size():
    sc = parse_scenario('{"population": 7, "group_size": 7}')
    assert sc.quorum == 4  # floor(6/2) + 1


def test_routine_additions_and_overrides():
    doc = (
        '{"routines": ['
        '{"id": 5, "kind": "COMPOSITE", "steps": ["ADD", "CMP"], "width": 8},'
        '{"id": 0, "kind": "MUL", "width": 8}]}'
    )
    sc = parse_scenario(doc)
    table = sc.routine_order
    assert [spec.id for spec in table] == [0, 1, 2, 3, 4, 5]
    assert table[0].kind is Kind.MUL  # override
    assert table[5].steps == (Kind.ADD, Kind.CMP)


def test_routine_entry_validation():
    with pytest.raises(ScenarioError, match=r"routines\[0\]"):
        parse_scenario('{"routines": [{"id": 5, "kind": "COMPOSITE", "width": 8}]}')
    # RoutineSpec's fields without a default are the required keys.
    with pytest.raises(ScenarioError, match=r"^routines\[0\]: entries need 'id' and 'kind'$"):
        parse_scenario('{"routines": [{"id": 5}]}')


def test_type_errors_name_paths():
    with pytest.raises(ScenarioError, match="rounds"):
        parse_scenario('{"rounds": "many"}')
    with pytest.raises(ScenarioError, match="targets"):
        parse_scenario('{"adversaries": [{"device": 1, "targets": ["x"]}]}')


def test_programmatic_construction_validates():
    with pytest.raises(ScenarioError, match="rounds"):
        Scenario(rounds=0)
    with pytest.raises(ScenarioError, match="flag_threshold"):
        Scenario(flag_threshold=0)


def test_evade_targets_feed_colluder_map():
    doc = (
        '{"adversaries": ['
        '{"device": 1, "fault": "TROJAN",'
        ' "trigger": {"index": 0, "mask": 15, "match": 5},'
        ' "payload": {"kind": "XOR", "value": 1}},'
        '{"device": 0, "initiator_policy": "EVADE", "targets": [1]}]}'
    )
    sc = parse_scenario(doc)
    profile = dict(sc.adversaries)[0]
    assert profile.initiator_policy is InitiatorKind.EVADE
    assert set(sc.plan.evader_trojans[0]) == {1}
    assert 1 not in sc.plan.evader_trojans


def test_reporting_without_targets_rejected():
    with pytest.raises(ScenarioError, match="targets"):
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "SHIELD"}]}')
    # honest reporting needs none
    sc = parse_scenario('{"adversaries": [{"device": 1, "reporting": "HONEST"}]}')
    assert dict(sc.adversaries)[1].reporting is ReportingKind.HONEST


_TRIGGER = {"index": 0, "mask": 1, "match": 1}


# One entry per rule of an adversaries entry, placed second in the list, with
# the key its diagnostic must name.
@pytest.mark.parametrize(
    "entry,key",
    [
        ({"device": 1, "fault": "TROJAN", "payload": {"kind": "COMPLEMENT"}}, "trigger"),
        ({"device": 1, "fault": "TROJAN", "trigger": _TRIGGER}, "payload"),
        ({"device": 1, "fault": "TROJAN", "trigger": _TRIGGER, "payload": {"kind": "XOR"}}, "value"),
        ({"device": 1, "fault": "TROJAN", "trigger": _TRIGGER, "payload": {"kind": "CONST"}}, "value"),
        ({"device": 1, "fault": "TROJAN", "trigger": _TRIGGER, "payload": {"value": 1}}, "kind"),
        ({"device": 1, "trigger": _TRIGGER}, "trigger"),
        ({"device": 1, "fault": "ALWAYS_WRONG", "payload": {"kind": "COMPLEMENT"}}, "payload"),
        ({"device": 1, "reporting": "FRAME"}, "targets"),
        ({"device": 1, "reporting": "SHIELD"}, "targets"),
        ({"device": 1, "initiator_policy": "EVADE"}, "targets"),
        ({"device": 1, "reporting": "RANDOM"}, "p"),
        ({"device": 1, "p": 0.5}, "p"),
        ({"device": 1, "fault": "TROJAN", "trigger": {**_TRIGGER, "when": 1},
          "payload": {"kind": "COMPLEMENT"}}, "when"),
        ({"fault": "ALWAYS_WRONG"}, "device"),
    ],
    ids=[
        "trojan-without-trigger", "trojan-without-payload", "xor-without-value",
        "const-without-value", "payload-without-kind", "trigger-without-trojan",
        "payload-without-trojan", "frame-without-targets", "shield-without-targets",
        "evade-without-targets", "random-without-p", "p-without-random",
        "unknown-trigger-key", "no-device",
    ],
)
def test_each_adversary_rule_names_its_entry_and_key(entry, key):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"adversaries": [{"device": 0}, entry]})
    message = str(exc.value)
    assert message.startswith("adversaries[1]")
    assert re.search(rf"\b{key}\b", message), message
    assert "\n" not in message


def test_missing_targets_names_only_the_policy_that_needs_them():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "FRAME"}]}')
    assert "FRAME" in str(exc.value) and "HONEST" not in str(exc.value)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario('{"adversaries": [{"device": 1, "initiator_policy": "EVADE"}]}')
    assert "EVADE" in str(exc.value) and "HONEST" not in str(exc.value)


def test_bare_and_complement_entries_load():
    sc = parse_scenario('{"adversaries": [{"device": 1}]}')
    assert sc.adversaries == ((1, HONEST_PROFILE),)
    doc = {"adversaries": [{"device": 1, "fault": "TROJAN", "trigger": _TRIGGER,
                            "payload": {"kind": "COMPLEMENT"}}]}
    trojan = scenario_from_dict(doc).adversaries[0][1].trojan
    assert (trojan.payload, trojan.payload_value) == (PayloadKind.COMPLEMENT, 0)
    assert (trojan.operand_index, trojan.mask, trojan.match) == (0, 1, 1)


# Scenario-loader fuzz: valid documents with a few slots replaced by any
# JSON value, removed, or joined by a stray key, so most of them get past
# the top-level checks into the nested adversaries and routines.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(),
    st.sampled_from((2**64 - 1, 2**70, -(2**70), 10**400)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.5, float("nan"), float("inf"), -float("inf"))),
    st.text(max_size=6),
    st.sampled_from(("HONEST", "TROJAN", "CONST", "RANDOM", "EVADE", "CMP", "COMPOSITE")),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _valid_adversary(draw, device: int, population: int) -> dict:
    fault = draw(st.sampled_from(("HONEST", "ALWAYS_WRONG", "TROJAN")))
    doc: dict = {"device": device, "fault": fault}
    if fault == "TROJAN":
        doc["trigger"] = {"index": draw(st.integers(0, 1)), "mask": 15, "match": draw(st.integers(0, 15))}
        doc["payload"] = {"kind": draw(st.sampled_from(("XOR", "CONST"))), "value": 1}
    doc["reporting"] = draw(st.sampled_from(("HONEST", "FRAME", "SHIELD", "RANDOM")))
    if doc["reporting"] == "RANDOM":
        doc["p"] = draw(st.sampled_from((0.0, 0.3, 1.0)))
    doc["initiator_policy"] = draw(st.sampled_from(("HONEST", "EVADE")))
    doc["targets"] = [(device + 1) % population]
    return doc


@st.composite
def _valid_scenario_doc(draw) -> dict:
    group_size = draw(st.integers(3, 6))
    population = group_size + draw(st.integers(0, 2))
    devices = draw(st.lists(st.integers(0, population - 1), max_size=3, unique=True))
    steps = st.lists(st.sampled_from(("ADD", "MUL", "CMP")), min_size=1, max_size=3)
    return {
        "population": population,
        "group_size": group_size,
        "rounds": draw(st.integers(1, 9)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "quorum": draw(st.integers(1, group_size - 1)),
        "round_deadline": 10,
        "network": {"latency_min": 1, "latency_max": 3, "drop_prob": 0.1},
        "energy": {"e_op": 1, "e_tx": 2, "e_rx": 1},
        "routines": [
            {
                "id": 5,
                "kind": "COMPOSITE",
                "width": draw(st.sampled_from((8, 16, 32))),
                "steps": draw(steps),
            }
        ],
        "adversaries": [draw(_valid_adversary(d, population)) for d in devices],
    }


def _slots(node, out: list) -> list:
    """Every (container, key-or-index) pair of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return out
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def _fuzzed_scenario_docs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    doc = draw(_valid_scenario_doc())
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(doc, [])))
        action = draw(st.sampled_from(("replace", "replace", "remove", "stray")))
        if action == "replace":
            container[key] = draw(_json_values)
        elif action == "remove":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.text(max_size=6))] = draw(_json_values)
        if not _slots(doc, []):
            break
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_fuzzed_scenario_docs())
@example(doc={"network": {"drop_prob": 10**400}})
@example(doc={"\n": None})
@example(doc={"adversaries": [{"device": 0, "trigger\r\n": {}}]})
@example(doc={"network": {"drop_prob": float("nan")}})
@example(doc={"adversaries": [{"device": 0, "reporting": "RANDOM", "p": 10**400}]})
@example(doc={"adversaries": [{"device": 0, "reporting": "RANDOM", "p": float("inf")}]})
@example(doc={"population": 2**70, "group_size": 2**70, "seed": 2**70, "quorum": 1})
@example(doc={"routines": [{"id": 2**70, "kind": "COMPOSITE", "steps": [["ADD"], {}]}]})
@example(doc={"adversaries": [{"device": 1, "fault": "TROJAN", "trigger": {"mask": 2**70}}]})
def test_any_json_value_loads_or_raises_scenario_error(doc):
    try:
        sc = scenario_from_dict(doc)
    except ScenarioError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(sc, Scenario)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=_valid_scenario_doc())
def test_every_unfuzzed_base_document_loads(doc):
    # The fuzz above starts from these documents; one that failed to load
    # would leave only its top-level checks exercised.
    assert isinstance(scenario_from_dict(doc), Scenario)


@pytest.mark.parametrize(
    "document",
    ['{"seed": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
)
def test_unreadable_documents_raise_scenario_error(document):
    with pytest.raises(ScenarioError, match="unreadable document"):
        parse_scenario(document)
