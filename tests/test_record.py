"""Record contract: the value records compare, hash, freeze and pickle as the code relies on."""

from __future__ import annotations

import pickle

import pytest

from collabtrust.adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    PayloadKind,
    ReportingKind,
    TrojanModel,
)
from collabtrust.metrics import DetectionStats, DeviceUsage, EnergyModel, TrafficCounters
from collabtrust.protocol import Challenge
from collabtrust.report import Report
from collabtrust.routines import Kind, RoutineSpec
from collabtrust.scenario import Scenario
from collabtrust.simnet import NetworkModel, run_simulation
from collabtrust.verdict import Outcome, SuspicionLedger, Tally, Verdict


def _trojan():
    return TrojanModel(
        operand_index=1, mask=0x0F, match=0x05, payload=PayloadKind.XOR, payload_value=3
    )


def _profile():
    return AdversaryProfile(
        fault=FaultKind.TROJAN,
        trojan=_trojan(),
        reporting=ReportingKind.FRAME,
        targets=frozenset({0, 2}),
        initiator_policy=InitiatorKind.EVADE,
    )


def _spec():
    return RoutineSpec(id=7, kind=Kind.COMPOSITE, width=16, steps=(Kind.ADD, Kind.MUL))


def _scenario():
    return Scenario(
        population=7,
        group_size=5,
        rounds=9,
        quorum=2,
        network=NetworkModel(latency_min=0, latency_max=4, drop_prob=0.25),
        energy=EnergyModel(e_op=2, e_tx=3, e_rx=4),
        routines=(_spec(),),
        adversaries=((1, _profile()),),
    )


# Each formerly frozen record, built twice from equal arguments by one call each.
FROZEN = {
    "TrojanModel": _trojan,
    "AdversaryProfile": _profile,
    "EnergyModel": lambda: EnergyModel(e_op=2, e_tx=3, e_rx=4),
    "NetworkModel": lambda: NetworkModel(latency_min=0, latency_max=4, drop_prob=0.25),
    "RoutineSpec": _spec,
    "Tally": lambda: Tally(agree=2, disagree=1, missing=1, n_checkers=4),
    "Scenario": _scenario,
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_a_frozen_record_is_a_read_only_value(make):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    for name, value in vars(record).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == twin


def test_derived_fields_take_no_part_in_equality():
    sc, twin = _scenario(), _scenario()
    assert sc.plan is not twin.plan
    object.__setattr__(twin, "routine_order", ())
    object.__setattr__(twin, "adversary_map", {})
    object.__setattr__(twin, "plan", None)
    assert sc == twin and hash(sc) == hash(twin)
    spec, twin_spec = _spec(), _spec()
    object.__setattr__(twin_spec, "arity", 99)
    object.__setattr__(twin_spec, "op_count", 98)
    assert spec == twin_spec and hash(spec) == hash(twin_spec)
    assert sc != Scenario() and spec != RoutineSpec(id=7, kind=Kind.ADD, width=16)


def test_messages_and_verdicts_hash_through_their_records():
    challenge = Challenge(round=3, initiator=0, checkee=1, spec=_spec(), ops=(1, 2, 3), honest=9)
    twin = Challenge(round=3, initiator=0, checkee=1, spec=_spec(), ops=(1, 2, 3), honest=9)
    assert challenge == twin and hash(challenge) == hash(twin)
    verdicts = [Verdict(1, 3, Outcome.TRUSTED, FROZEN["Tally"]()) for _ in range(2)]
    assert verdicts[0] is not verdicts[1] and len(set(verdicts)) == 1


@pytest.mark.parametrize(
    "make, other",
    (
        (lambda: DeviceUsage(ops=1, sent=2, received=3), lambda: DeviceUsage(ops=1, sent=2)),
        (lambda: TrafficCounters(sent=4, late=1), lambda: TrafficCounters(sent=4)),
        (lambda: DetectionStats(detections={1: 3}, flagged=2), lambda: DetectionStats(flagged=2)),
        (
            lambda: SuspicionLedger(flag_threshold=2, flags={1: 1}),
            lambda: SuspicionLedger(flag_threshold=2),
        ),
    ),
    ids=("DeviceUsage", "TrafficCounters", "DetectionStats", "SuspicionLedger"),
)
def test_a_mutable_record_is_equal_by_value_and_not_hashable(make, other):
    record = make()
    assert record == make() and record != other()
    with pytest.raises(TypeError):
        hash(record)


def test_each_record_made_with_default_maps_has_its_own():
    assert DetectionStats().detections is not DetectionStats().detections
    ledger, other = SuspicionLedger(), SuspicionLedger()
    for name in ("flags", "excluded_at", "first_flagged"):
        assert getattr(ledger, name) == {} and getattr(ledger, name) is not getattr(other, name)


def test_a_report_and_its_suspicion_ledger_survive_pickling():
    # A forked worker sends its total back pickled.
    sc = Scenario(
        population=6,
        rounds=12,
        network=NetworkModel(drop_prob=0.2),
        adversaries=((2, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    report = Report(sc)
    report.fold(run_simulation(sc, seed=4))
    copy = pickle.loads(pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
    assert type(copy.suspicion) is SuspicionLedger
    assert copy.suspicion == report.suspicion and copy.suspicion.excluded_at
    assert vars(copy) == vars(report)
