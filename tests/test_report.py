"""Report assembly and serialization tests."""

from __future__ import annotations

import json

import pytest

from collabtrust.adversary import AdversaryProfile, FaultKind
from collabtrust.errors import ContractError
from collabtrust.report import build_aggregate, build_report, emit_report
from collabtrust.scenario import Scenario
from collabtrust.simnet import run_simulation


def _honest_report(seed=3, rounds=5):
    sc = Scenario(rounds=rounds)
    return build_report(run_simulation(sc, seed=seed, collect_trace=False), sc), sc


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
    res = run_simulation(sc, seed=2, collect_trace=False)
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
        build_report(run_simulation(sc, seed=100 + k, collect_trace=False), sc)
        for k in range(3)
    ]
    agg = build_aggregate(reports)
    assert agg.seed == 100
    assert agg.repetitions == 3
    assert agg.rounds_executed == sum(r.rounds_executed for r in reports)
    assert agg.total_energy == sum(r.total_energy for r in reports)
    assert agg.detections[4] == sum(1 for r in reports if 4 in r.detections)
    assert agg.excluded[4] == 3
    for key in ("sent", "delivered", "dropped"):
        assert agg.messages[key] == sum(r.messages[key] for r in reports)


def test_aggregate_requires_input():
    with pytest.raises(ContractError):
        build_aggregate([])
