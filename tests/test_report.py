"""Report assembly and serialization tests."""

from __future__ import annotations

import csv
import io
import json
from functools import reduce

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from collabtrust.adversary import AdversaryProfile, FaultKind, PayloadKind, TrojanModel
from collabtrust.errors import ContractError
from collabtrust.report import emit_report
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import NetworkModel, run_simulation
from reference_impl import build_report, emit, merge
from test_kernel import lossless_scenarios
from test_lossy import lossy_scenarios
from verdict_log import folded


def _honest_report(seed=3, rounds=5):
    sc = Scenario(rounds=rounds)
    return folded(sc, run_simulation(sc, seed=seed)), sc


def test_json_round_trip_matches_in_memory_report():
    report, _ = _honest_report()
    doc = json.loads(emit_report(report, "json"))
    assert doc["seed"] == report.seed
    assert doc["rounds_executed"] == report.rounds_executed
    assert doc["halt_reason"] is None
    assert doc["global"]["messages"] == report.messages
    assert doc["global"]["verdicts"] == report.verdicts
    assert doc["global"]["total_energy"] == report.total_energy()
    assert [entry["id"] for entry in doc["devices"]] == list(range(report.population))
    for entry in doc["devices"]:
        d = entry["id"]
        energy, sent, received, flags = report.devices[d]
        assert entry == {
            "id": d,
            "energy": energy,
            "sent": sent,
            "received": received,
            "flags": flags,
            "excluded_round": report.suspicion.excluded_round(d),
            "detection_round": report.suspicion.first_flagged.get(d),
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


def test_reports_keep_rows_only_for_devices_that_joined_a_group():
    # 10 rounds of 5-member groups touch at most 50 of 100,000 devices; the
    # ledger and the running total hold rows for those alone, while the
    # emitted CSV still has a line per device plus the header and GLOBAL.
    sc = Scenario(
        population=100_000,
        group_size=5,
        rounds=10,
        adversaries=((3, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    kernel = run_simulation(sc, seed=1)
    engine = run_simulation(sc, seed=2, trace=io.StringIO())
    for res in (kernel, engine):
        assert 5 <= len(res.energy.usage) <= 50
        assert folded(sc, res).devices.keys() == res.energy.usage.keys()
    total = folded(sc, kernel, engine)
    assert total.devices.keys() == kernel.energy.usage.keys() | engine.energy.usage.keys()
    assert len(total.devices) <= 50
    csv = emit_report(total, "csv").decode()
    assert csv.count("\n") == sc.population + 2
    lines = csv.split("\n")
    last = sc.population - 1  # its row follows the header and every row before it
    assert lines[1 + last] == f"{last},0,0,0,0,,"


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
    doc = json.loads(emit_report(folded(sc, res), "json"))
    dev = doc["devices"][4]
    assert dev["flags"] >= 1
    assert dev["excluded_round"] == dev["detection_round"] == res.suspicion.excluded_round(4)
    assert doc["global"]["detections"] == {"4": dev["detection_round"]}
    assert doc["global"]["verdicts"]["FLAGGED"] >= 1


def test_aggregate_sums_and_detection_counts():
    sc = Scenario(
        population=10,
        rounds=10,
        adversaries=((4, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    runs = [run_simulation(sc, seed=100 + k) for k in range(3)]
    agg = folded(sc, *runs)
    assert agg.seed == 100
    assert agg.repetitions == 3
    assert agg.rounds_executed == sum(r.rounds_executed for r in runs)
    assert agg.total_energy() == sum(r.energy.total_energy() for r in runs)
    assert agg.detections[4] == sum(1 for r in runs if 4 in r.stats.detections)
    assert agg.excluded[4] == 3
    doc = json.loads(emit_report(agg, "json"))
    assert "halt_reason" not in doc
    assert all(
        d["excluded_round"] is None and d["detection_round"] is None for d in doc["devices"]
    )
    for key in ("sent", "delivered", "dropped"):
        assert agg.messages[key] == sum(getattr(r.counters, key) for r in runs)


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


def test_mixed_example_shows_its_case():
    # MIXED at seeds 300..305 halts some runs and not others, and detects
    # the Trojan in some, so per-run and summed values differ.
    runs = [run_simulation(MIXED, seed=300 + k) for k in range(6)]
    assert len({r.halt_reason is None for r in runs}) == 2
    assert len({tuple(r.stats.detections) for r in runs}) >= 2
    doc = json.loads(emit_report(folded(MIXED, *runs), "json"))
    assert 0 < doc["halted_runs"] < 6
    assert 0 < doc["global"]["excluded"]["1"] < doc["global"]["excluded"]["2"] == 6


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sc=st.one_of(lossless_scenarios(), lossy_scenarios()),
    repetitions=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 7),
)
@example(sc=MIXED, repetitions=6, seed=300)
@example(sc=MIXED, repetitions=1, seed=300)
def test_folding_runs_one_by_one_emits_the_reference_chain_bytes(sc, repetitions, seed):
    # The running total emits what the old chain emitted: a report built
    # per run, merged pairwise, and serialized by its own emitter.
    runs = [run_simulation(sc, seed=seed + k) for k in range(repetitions)]
    total = folded(sc, *runs)
    chain = reduce(merge, (build_report(res, sc) for res in runs))
    for fmt in ("json", "csv"):
        assert emit_report(total, fmt) == emit(chain, fmt), fmt



@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sc=lossy_scenarios(),
    repetitions=st.integers(1, 6),
    split=st.integers(0, 5),
    seed=st.integers(0, 2**64 - 7),
)
@example(sc=MIXED, repetitions=6, split=2, seed=300)
@example(sc=MIXED, repetitions=2, split=0, seed=300)
def test_adding_two_totals_emits_the_running_total_bytes(sc, repetitions, split, seed):
    # Repetitions 0..k folded into one total and k+1..n-1 into another, then
    # added, emit what one total folding every run in turn emits, whatever k.
    runs = [run_simulation(sc, seed=seed + k) for k in range(repetitions)]
    k = split % repetitions
    total = folded(sc, *runs[: k + 1])
    total.add(folded(sc, *runs[k + 1 :]))
    whole = folded(sc, *runs)
    for fmt in ("json", "csv"):
        assert emit_report(total, fmt) == emit_report(whole, fmt), fmt


@pytest.mark.parametrize("traced", (False, True), ids=("kernel", "engine"))
def test_a_device_flagged_again_keeps_its_first_flag_round(traced):
    # ALWAYS_WRONG device 1 is flagged in every round it is checked, first
    # in round 4; with threshold 3 it is excluded at its third flag, in
    # round 13. detection_round is the round of its first flag, not its last.
    sc = scenario_from_dict(
        {
            "population": 5,
            "group_size": 5,
            "rounds": 20,
            "flag_threshold": 3,
            "adversaries": [{"device": 1, "fault": "ALWAYS_WRONG"}],
        }
    )
    res = run_simulation(sc, trace=io.StringIO() if traced else None)
    rows = {row[0]: row for row in csv.reader(io.StringIO(emit_report(folded(sc, res), "csv").decode()))}
    assert rows["id"][-2:] == ["excluded_round", "detection_round"]
    assert rows["1"][-2:] == ["13", "4"]
