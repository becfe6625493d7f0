"""Energy accounting and detection statistics tests."""

from __future__ import annotations

from collabtrust.adversary import AdversaryProfile, FaultKind, ReportingKind
from collabtrust.metrics import (
    EnergyLedger,
    EnergyModel,
    detection_stats,
    lossless_messages_per_round,
)
from collabtrust.scenario import Scenario
from collabtrust.simnet import NetworkModel, run_simulation
from collabtrust.verdict import Outcome, Tally, Verdict, default_quorum
from verdict_log import run_logged

UNIT = EnergyModel(e_op=1, e_tx=2, e_rx=1)


def test_ledger_prices_each_usage_kind():
    # energy = e_op * ops + e_tx * sent + e_rx * received, with distinct
    # prices so each counter's weight shows.
    ledger = EnergyLedger(EnergyModel(e_op=1, e_tx=2, e_rx=5))
    ledger.usage[0].ops += 3
    ledger.usage[0].sent += 1
    ledger.usage[1].received += 1
    assert ledger.energy(0) == 3 * 1 + 1 * 2
    assert ledger.energy(1) == 1 * 5
    assert ledger.total_energy() == 10


def test_ledger_holds_only_charged_devices():
    ledger = EnergyLedger(UNIT)
    assert ledger.energy(7) == 0
    assert ledger.total_energy() == 0
    ledger.usage[3].sent += 1
    assert list(ledger.usage) == [3]  # pricing device 7 made no entry


def test_zero_cost_model():
    sc = Scenario(rounds=3, energy=EnergyModel(e_op=0, e_tx=0, e_rx=0))
    res = run_simulation(sc, seed=1)
    assert res.energy.total_energy() == 0


def test_lossless_round_closed_form_five_devices():
    # 5 executions of an atomic routine + 24 unicasts: 5*1 + 24*2 + 24*1 = 77
    sc = Scenario(rounds=1)
    res = run_simulation(sc, seed=1)
    assert res.counters.sent == 24
    assert res.energy.total_energy() == 77


def test_lossless_closed_form_group_sizes_3_to_7():
    for n in range(3, 8):
        sc = Scenario(
            population=n,
            group_size=n,
            rounds=1,
            quorum=default_quorum(n - 1),
        )
        res = run_simulation(sc, seed=1)
        messages = lossless_messages_per_round(n)
        assert messages == (n - 1) + (n - 1) + (n - 1) ** 2
        assert res.counters.sent == messages, n
        assert res.counters.delivered == messages, n
        assert res.energy.total_energy() == n * 1 + messages * (2 + 1), n


def test_ledger_matches_event_resum():
    sc = Scenario(network=NetworkModel(drop_prob=0.2))
    res = run_simulation(sc, seed=9)
    for device, usage in res.energy.usage.items():
        expected = UNIT.e_op * usage.ops + UNIT.e_tx * usage.sent + UNIT.e_rx * usage.received
        assert res.energy.energy(device) == expected
    assert res.energy.total_energy() == sum(
        res.energy.energy(d) for d in res.energy.usage
    )


def test_dropped_message_charges_sender_only():
    sc = Scenario(rounds=1, network=NetworkModel(drop_prob=1.0))
    res = run_simulation(sc, seed=1)
    # only the initiator acted: 1 execution + 4 transmissions, nothing received
    assert res.counters.sent == 4
    assert res.counters.dropped == 4
    assert res.energy.total_energy() == 1 * 1 + 4 * 2
    received = sum(u.received for u in res.energy.usage.values())
    assert received == 0


def test_energy_monotone_in_rounds():
    short = run_simulation(Scenario(rounds=5), seed=3)
    long = run_simulation(Scenario(rounds=10), seed=3)
    for device in range(5):
        assert long.energy.energy(device) >= short.energy.energy(device)


def test_non_unit_costs_scale_exactly():
    sc = Scenario(rounds=1, energy=EnergyModel(e_op=3, e_tx=5, e_rx=7))
    res = run_simulation(sc, seed=1)
    # 5 atomic executions, 24 sends, 24 receives
    assert res.energy.total_energy() == 5 * 3 + 24 * 5 + 24 * 7


def test_detection_stats_always_wrong_latency():
    sc = Scenario(
        population=10,
        adversaries=((3, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    _, verdicts = run_logged(sc, seed=4)
    stats = detection_stats(verdicts, sc.adversary_map)
    first_checkee_round = min(v.round for _, v in verdicts if v.checkee == 3)
    assert stats.detections == {3: first_checkee_round}
    assert stats.false_positives == 0


def test_detection_stats_all_honest_run():
    sc = Scenario(rounds=5)
    _, verdicts = run_logged(sc, seed=2)
    stats = detection_stats(verdicts, sc.adversary_map)
    assert stats.detections == {}
    assert stats.false_positives == 0
    assert stats.inconclusive == 0
    assert stats.trusted == 25


def test_false_positive_counts_flagged_honest_checkee():
    profiles = {0: AdversaryProfile()}
    verdicts = [
        (1, Verdict(0, 2, Outcome.FLAGGED, Tally(0, 4, 0, 4))),
        (2, Verdict(0, 2, Outcome.FLAGGED, Tally(0, 4, 0, 4))),
    ]
    stats = detection_stats(verdicts, profiles)
    assert stats.false_positives == 2
    assert stats.detections == {}


def test_detection_requires_honest_issuer():
    corrupt = AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)
    liar = AdversaryProfile(reporting=ReportingKind.FRAME, targets=frozenset({9}))
    profiles = {5: corrupt, 1: liar}
    flagged = Verdict(5, 3, Outcome.FLAGGED, Tally(0, 4, 0, 4))
    assert detection_stats([(1, flagged)], profiles).detections == {}
    assert detection_stats([(2, flagged)], profiles).detections == {5: 3}
