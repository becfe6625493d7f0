"""Scenario document tests: defaults, schema errors, constraint paths."""

from __future__ import annotations

import pathlib

import pytest

from collabtrust.adversary import FaultKind, InitiatorKind, ReportingKind
from collabtrust.errors import ScenarioError
from collabtrust.routines import Kind
from collabtrust.scenario import Scenario, load_scenario, parse_scenario

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


def test_group_larger_than_population_names_path():
    with pytest.raises(ScenarioError, match="group_size"):
        parse_scenario('{"group_size": 10, "population": 5}')


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
    table = sc.routine_table()
    assert [spec.id for spec in table] == [0, 1, 2, 3, 4, 5]
    assert table[0].kind is Kind.MUL  # override
    assert table[5].steps == (Kind.ADD, Kind.CMP)


def test_routine_entry_validation():
    with pytest.raises(ScenarioError, match=r"routines\[0\]"):
        parse_scenario('{"routines": [{"id": 5, "kind": "COMPOSITE", "width": 8}]}')


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
    trojans = sc.colluder_trojans(0)
    assert set(trojans) == {1}
    assert sc.colluder_trojans(1) == {}


def test_reporting_without_targets_rejected():
    with pytest.raises(ScenarioError, match="targets"):
        parse_scenario('{"adversaries": [{"device": 1, "reporting": "SHIELD"}]}')
    # honest reporting needs none
    sc = parse_scenario('{"adversaries": [{"device": 1, "reporting": "HONEST"}]}')
    assert dict(sc.adversaries)[1].reporting is ReportingKind.HONEST
