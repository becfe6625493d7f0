"""Report assembly and serialization tests."""

from __future__ import annotations

import csv
import io
import json
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.report as report_module
from collabtrust.adversary import AdversaryProfile, FaultKind, PayloadKind, TrojanModel
from collabtrust.errors import ContractError
from collabtrust.metrics import EnergyModel
from collabtrust.report import Report, emit_report
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import NetworkModel, run_simulation
from collabtrust.verdict import SuspicionLedger
from reference_impl import build_report, emit, merge
from test_kernel import lossless_scenarios
from test_lossy import lossy_scenarios
from verdict_log import emitted, folded, run_engine


def _honest_report(seed=3, rounds=5):
    sc = Scenario(rounds=rounds)
    return folded(sc, run_simulation(sc, seed=seed)), sc


def test_json_round_trip_matches_in_memory_report():
    report, _ = _honest_report()
    doc = json.loads(emitted(report, "json"))
    assert doc["seed"] == report.seed
    assert doc["rounds_executed"] == report.rounds_executed
    assert doc["halt_reason"] is None
    assert doc["global"]["messages"] == report.messages
    assert doc["global"]["verdicts"] == report.verdicts
    assert doc["global"]["total_energy"] == report.total_energy()
    assert [entry["id"] for entry in doc["devices"]] == list(range(report.population))
    for entry in doc["devices"]:
        d = entry["id"]
        # A row sums raw counters; energy is priced from them when emitted.
        ops, sent, received, flags = report.devices[d]
        m = report.energy_model
        assert entry == {
            "id": d,
            "energy": m.e_op * ops + m.e_tx * sent + m.e_rx * received,
            "sent": sent,
            "received": received,
            "flags": flags,
            "excluded_round": report.suspicion.excluded_round(d),
            "detection_round": report.suspicion.first_flagged.get(d),
        }


def test_formats_carry_identical_numbers():
    report, _ = _honest_report(seed=11)
    doc = json.loads(emitted(report, "json"))
    csv_rows = emitted(report, "csv").decode().strip().split("\n")[1:]
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
    engine = run_engine(sc, seed=2, trace=io.StringIO())
    for res in (kernel, engine):
        assert 5 <= len(res.energy.usage) <= 50
        assert folded(sc, res).devices.keys() == res.energy.usage.keys()
    total = folded(sc, kernel, engine)
    assert total.devices.keys() == kernel.energy.usage.keys() | engine.energy.usage.keys()
    assert len(total.devices) <= 50
    csv = emitted(total, "csv").decode()
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
    doc = json.loads(emitted(folded(sc, res), "json"))
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
    doc = json.loads(emitted(agg, "json"))
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
    doc = json.loads(emitted(folded(MIXED, *runs), "json"))
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
        assert emitted(total, fmt) == emit(chain, fmt), fmt



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
        assert emitted(total, fmt) == emitted(whole, fmt), fmt


@pytest.mark.parametrize("engine", (False, True), ids=("kernel", "engine"))
def test_a_device_flagged_again_keeps_its_first_flag_round(engine):
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
    res = run_engine(sc, trace=io.StringIO()) if engine else run_simulation(sc)
    rows = {row[0]: row for row in csv.reader(io.StringIO(emitted(folded(sc, res), "csv").decode()))}
    assert rows["id"][-2:] == ["excluded_round", "detection_round"]
    assert rows["1"][-2:] == ["13", "4"]


# The report as the emitter wrote it before it was streamed: one object of
# every row, through json.dumps(obj, indent=2), and one CSV string of every
# line. Energy is priced from each row's summed counters.
_COLUMNS = ("id", "energy", "sent", "received", "flags", "excluded_round", "detection_round")


def _reference_rows(report):
    m = report.energy_model
    single = report.repetitions == 1
    for d in range(report.population):
        ops, sent, received, flags = report.devices.get(d, (0, 0, 0, 0))
        energy = m.e_op * ops + m.e_tx * sent + m.e_rx * received
        excluded = report.suspicion.excluded_at.get(d) if single else None
        detected = report.suspicion.first_flagged.get(d) if single else None
        yield d, energy, sent, received, flags, excluded, detected


def _reference_json(report) -> bytes:
    obj: dict = {
        "seed": report.seed,
        "repetitions": report.repetitions,
        "rounds_executed": report.rounds_executed,
    }
    single = report.repetitions == 1
    if single:
        obj["halt_reason"] = report.halt_reason
    else:
        obj["halted_runs"] = report.halted_runs
    rows = list(_reference_rows(report))
    obj["devices"] = [dict(zip(_COLUMNS, row)) for row in rows]
    detections = report.detection_rounds if single else report.detections
    global_obj = {
        "messages": report.messages,
        "verdicts": report.verdicts,
        "false_positives": report.false_positives,
        "detections": {str(d): n for d, n in sorted(detections.items())},
        "total_energy": sum(row[1] for row in rows),
    }
    if not single:
        global_obj["excluded"] = {str(d): n for d, n in sorted(report.excluded.items())}
    obj["global"] = global_obj
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _reference_csv(report) -> bytes:
    lines = [",".join(_COLUMNS)]
    totals = [0, 0, 0, 0]
    for row in _reference_rows(report):
        lines.append(",".join("" if cell is None else str(cell) for cell in row))
        totals = [t + cell for t, cell in zip(totals, row[1:5])]
    lines.append(f"GLOBAL,{','.join(map(str, totals))},,")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Halt reasons the encoder must escape as json.dumps does: the loader's own
# text, quotes, backslashes, control and non-ASCII characters.
HALT_REASONS = (
    "need 5 devices but only 4 are eligible",
    'a "quoted" reason',
    "back\\slash \\u0041",
    "tab\tnew\nline \x00 \x7f",
    "énergie ü 漢字 \u2028 \U0001f600",
)


@st.composite
def reports(draw) -> Report:
    """A report of any shape a running total can reach, with rows for any devices."""
    population = draw(st.integers(1, 12))
    energy = EnergyModel(*draw(st.tuples(*[st.integers(0, 5)] * 3)))
    report = Report(SimpleNamespace(population=population, energy=energy))
    ids = st.integers(0, population - 1)
    counts = st.integers(0, 2**40)
    rounds = st.integers(0, 60)
    by_device = st.dictionaries(ids, rounds)
    report.repetitions = draw(st.integers(1, 4))
    report.seed = draw(st.integers(0, 2**64 - 1))
    report.rounds_executed = draw(counts)
    report.halted_runs = draw(st.integers(0, report.repetitions))
    report.devices = draw(st.dictionaries(ids, st.lists(counts, min_size=4, max_size=4)))
    report.messages = {key: draw(counts) for key in report.messages}
    report.verdicts = {key: draw(counts) for key in report.verdicts}
    report.false_positives = draw(counts)
    report.detections = draw(by_device)
    report.excluded = draw(by_device)
    report.halt_reason = draw(st.none() | st.sampled_from(HALT_REASONS) | st.text())
    report.suspicion = SuspicionLedger(
        flags=draw(by_device), excluded_at=draw(by_device), first_flagged=draw(by_device)
    )
    report.detection_rounds = draw(by_device)
    return report


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(report=reports(), chunk_rows=st.integers(1, 5))
def test_streamed_report_is_the_reference_bytes_in_chunks(report, chunk_rows):
    # The encoder writes the bytes json.dumps wrote for the report's object,
    # and the CSV its lines, CHUNK_ROWS device rows a chunk at most.
    with mock.patch.object(report_module, "CHUNK_ROWS", chunk_rows):
        for fmt, reference in (("json", _reference_json), ("csv", _reference_csv)):
            chunks = list(emit_report(report, fmt))
            assert b"".join(chunks) == reference(report), fmt
            assert len(chunks) == -(-report.population // chunk_rows), fmt
