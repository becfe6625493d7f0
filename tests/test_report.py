"""Report assembly and serialization tests."""

from __future__ import annotations

import json
from functools import reduce

import pytest

from collabtrust.adversary import AdversaryProfile, FaultKind, PayloadKind, TrojanModel
from collabtrust.errors import ContractError
from collabtrust.report import build_report, emit_report, merge
from collabtrust.scenario import Scenario
from collabtrust.simnet import NetworkModel, run_simulation


def _honest_report(seed=3, rounds=5):
    sc = Scenario(rounds=rounds)
    return build_report(run_simulation(sc, seed=seed), sc), sc


def test_json_round_trip_matches_in_memory_report():
    report, _ = _honest_report()
    doc = json.loads(emit_report(report, "json"))
    assert doc["seed"] == report.seed
    assert doc["rounds_executed"] == report.rounds_executed
    assert doc["halt_reason"] is None
    assert doc["global"]["messages"] == report.messages
    assert doc["global"]["verdicts"] == report.verdicts
    assert doc["global"]["total_energy"] == report.total_energy
    for entry, dev in zip(doc["devices"], report.devices):
        assert entry == {
            "id": dev.id,
            "energy": dev.energy,
            "sent": dev.sent,
            "received": dev.received,
            "flags": dev.flags,
            "excluded_round": dev.excluded_round,
            "detection_round": dev.detection_round,
        }


def test_formats_carry_identical_numbers():
    report, _ = _honest_report(seed=11)
    doc = json.loads(emit_report(report, "json"))
    csv_rows = emit_report(report, "csv").decode().strip().split("\n")[1:]
    for entry, row in zip(doc["devices"], csv_rows):
        cells = row.split(",")
        assert [entry["id"], entry["energy"], entry["sent"], entry["received"]] == [
            int(cells[0]),
            int(cells[1]),
            int(cells[2]),
            int(cells[3]),
        ]
    assert csv_rows[-1].split(",")[1] == str(doc["global"]["total_energy"])


def test_unknown_format_rejected():
    report, _ = _honest_report()
    with pytest.raises(ContractError):
        emit_report(report, "xml")


def test_report_fields_for_flagged_device():
    sc = Scenario(
        population=10,
        adversaries=((4, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    res = run_simulation(sc, seed=2)
    report = build_report(res, sc)
    dev = report.devices[4]
    assert dev.flags >= 1
    assert dev.excluded_round == dev.detection_round == res.suspicion.excluded_round(4)
    assert report.detections == {4: dev.detection_round}
    assert report.verdicts["FLAGGED"] >= 1


def test_aggregate_sums_and_detection_counts():
    sc = Scenario(
        population=10,
        rounds=10,
        adversaries=((4, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    reports = [
        build_report(run_simulation(sc, seed=100 + k), sc)
        for k in range(3)
    ]
    agg = reduce(merge, reports)
    assert agg.seed == 100
    assert agg.repetitions == 3
    assert agg.rounds_executed == sum(r.rounds_executed for r in reports)
    assert agg.total_energy == sum(r.total_energy for r in reports)
    assert agg.detections[4] == sum(1 for r in reports if 4 in r.detections)
    assert agg.excluded[4] == 3
    assert agg.halt_reason is None
    assert all(d.excluded_round is None and d.detection_round is None for d in agg.devices)
    for key in ("sent", "delivered", "dropped"):
        assert agg.messages[key] == sum(r.messages[key] for r in reports)


# Population 6 in groups of 5: the always-wrong device 2 is always excluded,
# the Trojan (device 1) only in some repetitions, and a run that excludes
# both halts. So the reports differ in detections, exclusions and halts.
MIXED = Scenario(
    population=6,
    rounds=30,
    network=NetworkModel(drop_prob=0.05),
    adversaries=(
        (1, AdversaryProfile(fault=FaultKind.TROJAN, trojan=TrojanModel(
            operand_index=0, mask=0x0F, match=0x05, payload=PayloadKind.XOR, payload_value=1
        ))),
        (2, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),
    ),
)


def test_merge_is_associative_in_emitted_bytes():
    # Any grouping of repetitions merges to the same bytes, so partial sums
    # can be merged in any split.
    reports = [
        build_report(run_simulation(MIXED, seed=300 + k), MIXED)
        for k in range(6)
    ]
    assert len({r.halt_reason is None for r in reports}) == 2
    assert len({tuple(r.detections) for r in reports}) >= 2
    for n in range(2, 7):
        whole = reduce(merge, reports[:n])
        assert whole.repetitions == n
        for j in range(1, n):
            split = merge(reduce(merge, reports[:j]), reduce(merge, reports[j:n]))
            for fmt in ("json", "csv"):
                assert emit_report(split, fmt) == emit_report(whole, fmt), (n, j, fmt)

