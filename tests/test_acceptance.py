"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is pinned here; statistical checks use 3-sigma binomial bounds
around analytically computed expectations.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from collabtrust.adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    PayloadKind,
    ReportingKind,
    TrojanModel,
    distort_opinion,
    trigger_probability,
)
from collabtrust.metrics import lossless_messages_per_round
from collabtrust.report import emit_report
from collabtrust.rng import SplitMix64
from collabtrust.scenario import Scenario
from collabtrust.simnet import NetworkModel, run_simulation
from collabtrust.verdict import (
    Outcome,
    Tally,
    compute_verdict,
    default_quorum,
    oracle_outcome,
)
from reference_impl import detection_stats, next_bits
from verdict_log import folded, run_logged, run_traced

TROJAN_16 = TrojanModel(
    operand_index=0, mask=0x0F, match=0x05, payload=PayloadKind.XOR, payload_value=1
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_acceptance_1_five_device_detection_vignette():
    with criterion(1, "always-wrong device flagged unanimously, zero false positives"):
        sc = Scenario(
            seed=1,
            adversaries=((2, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
        )
        res, verdicts = run_logged(sc)
        checkee_rounds = [v.round for _, v in verdicts if v.checkee == 2]
        assert checkee_rounds, "device 2 never served as checkee"
        first = min(checkee_rounds)
        flagged = [(i, v) for i, v in verdicts if v.outcome is Outcome.FLAGGED]
        # unanimous: all five devices flag it, in its first checkee round
        assert len(flagged) == 5
        assert {i for i, _ in flagged} == {0, 1, 2, 3, 4}
        assert all(v.round == first and v.checkee == 2 for _, v in flagged)
        others = [v for _, v in verdicts if v.outcome is not Outcome.FLAGGED]
        assert all(v.outcome is Outcome.TRUSTED for v in others)
        assert detection_stats(verdicts, sc.adversary_map).false_positives == 0
        assert res.suspicion.excluded_round(2) == first


def _lying_round_outcome(n: int, liars: set[int], checkee_corrupt: bool) -> Outcome:
    """Lossless round at tally level, opinions routed through distort_opinion.

    Checkee 0; checkers 1..n-1. When the checkee is corrupt its fault
    manifests (honest checkers truly DISAGREE) and lying checkers SHIELD it;
    against an honest checkee the liars FRAME.
    """
    checkee = 0
    rng = SplitMix64(0)
    if checkee_corrupt:
        true_opinion = Opinion.DISAGREE
        lie = AdversaryProfile(reporting=ReportingKind.SHIELD, targets=frozenset({checkee}))
    else:
        true_opinion = Opinion.AGREE
        lie = AdversaryProfile(reporting=ReportingKind.FRAME, targets=frozenset({checkee}))
    honest = AdversaryProfile()
    opinions = [
        distort_opinion(lie if checker in liars else honest, true_opinion, checkee, rng)
        for checker in range(1, n)
    ]
    agree = sum(1 for o in opinions if o is Opinion.AGREE)
    tally = Tally(agree=agree, disagree=len(opinions) - agree, missing=0, n_checkers=n - 1)
    return compute_verdict(tally, default_quorum(n - 1))


def test_acceptance_2_corruption_threshold_theorem():
    with criterion(2, "corruption bound exact for N in 3..7 (exhaustive subsets)"):
        for n in range(3, 8):
            checkers = list(range(1, n))
            bound = (n - 1) // 2
            # (a) up to `bound` liars can never frame an honest checkee
            for k in range(bound + 1):
                for liars in combinations(checkers, k):
                    outcome = _lying_round_outcome(n, set(liars), checkee_corrupt=False)
                    assert outcome is Outcome.TRUSTED, (n, liars)
            # (b) a manifesting corrupt checkee is flagged whenever the
            # corrupt set (checkee included) stays within the bound, even
            # with every corrupt checker shielding
            for total in range(1, bound + 1):
                for liars in combinations(checkers, total - 1):
                    outcome = _lying_round_outcome(n, set(liars), checkee_corrupt=True)
                    assert outcome is Outcome.FLAGGED, (n, liars)
            # (c) one more liar than the bound can frame an honest device
            framed = any(
                _lying_round_outcome(n, set(liars), checkee_corrupt=False)
                is Outcome.FLAGGED
                for liars in combinations(checkers, bound + 1)
            )
            assert framed, n


def _trojan_scenario(extra=()):
    adversaries = ((1, AdversaryProfile(fault=FaultKind.TROJAN, trojan=TROJAN_16)),) + tuple(extra)
    return Scenario(seed=0, rounds=55, adversaries=adversaries)


def test_acceptance_3_manifestation_hypothesis():
    with criterion(3, "trojan detection rate matches 1-(15/16)^11 within 3 sigma"):
        sc = _trojan_scenario()
        checkee_rounds = 11
        assert sc.rounds == checkee_rounds * sc.group_size
        p_trigger = trigger_probability(TROJAN_16, sc.routine_order[0])
        assert p_trigger == Fraction(1, 16)
        p_detect = 1 - (1 - p_trigger) ** checkee_rounds  # exact rational
        assert math.isclose(float(p_detect), 0.5081, abs_tol=5e-4)

        # independent oracle: Monte Carlo over the bare trigger event
        mc_rng = SplitMix64(0xFEED)
        mc_n = 20_000
        mc_hits = sum(
            1
            for _ in range(mc_n)
            if any((next_bits(mc_rng, 8) & 0x0F) == 0x05 for _ in range(checkee_rounds))
        )
        mc_sigma = math.sqrt(float(p_detect) * (1 - float(p_detect)) / mc_n)
        assert abs(mc_hits / mc_n - float(p_detect)) <= 3 * mc_sigma

        reps = 2000
        detected = 0
        profiles = sc.adversary_map
        for rep in range(reps):
            _, verdicts = run_logged(sc, seed=20_000 + rep)
            if 1 in detection_stats(verdicts, profiles).detections:
                detected += 1
        sigma = math.sqrt(float(p_detect) * (1 - float(p_detect)) / reps)
        rate = detected / reps
        print(f"  detection rate {rate:.4f} vs analytic {float(p_detect):.4f} (3s={3*sigma:.4f})")
        assert abs(rate - float(p_detect)) <= 3 * sigma


def test_acceptance_4_evasion_corollary():
    with criterion(4, "evading colluder initiators suppress detection entirely"):
        evaders = tuple(
            (d, AdversaryProfile(initiator_policy=InitiatorKind.EVADE, targets=frozenset({1})))
            for d in (0, 2, 3, 4)
        )
        sc = _trojan_scenario(extra=evaders)
        profiles = sc.adversary_map
        detected = 0
        for rep in range(500):
            _, verdicts = run_logged(sc, seed=50_000 + rep)
            if 1 in detection_stats(verdicts, profiles).detections:
                detected += 1
        assert detected == 0


def _engine_and_kernel(sc: Scenario):
    """Both paths of one lossless run: the event engine (traced) and the tally kernel.

    The closed forms are asserted on the engine, which routes every unicast;
    the kernel charges them by formula, so it must agree with the engine.
    """
    engine, _ = run_traced(sc)
    kernel = run_simulation(sc)
    assert kernel.counters == engine.counters
    assert kernel.energy.usage == engine.energy.usage
    assert kernel.energy.total_energy() == engine.energy.total_energy()
    return engine, kernel


def test_acceptance_5_message_and_energy_conservation():
    with criterion(5, "lossless round: 24 messages / 77 units; closed form for N in 3..7"):
        for res in _engine_and_kernel(Scenario(seed=1, rounds=1)):
            assert res.counters.sent == 24
            assert res.counters.delivered == 24
            assert res.energy.total_energy() == 77
        for n in range(3, 8):
            sc = Scenario(
                seed=1,
                population=n,
                group_size=n,
                rounds=1,
                quorum=default_quorum(n - 1),
            )
            for r in _engine_and_kernel(sc):
                messages = lossless_messages_per_round(n)
                assert r.counters.sent == messages, n
                # atomic routine in round 0: n executions at unit op cost
                assert r.energy.total_energy() == n + 3 * messages, n
                ledger_sum = sum(r.energy.energy(d) for d in range(n))
                assert ledger_sum == r.energy.total_energy()


def test_acceptance_6_loss_safety():
    with criterion(6, "no FLAGGED verdicts for honest devices at any loss rate"):
        for drop in (0.0, 0.1, 0.3, 0.5):
            sc = Scenario(seed=0, network=NetworkModel(drop_prob=drop))
            for rep in range(200):
                _, verdicts = run_logged(sc, seed=80_000 + rep)
                outcomes = {v.outcome for _, v in verdicts}
                assert Outcome.FLAGGED not in outcomes, (drop, rep)


def test_acceptance_7_determinism():
    with criterion(7, "same seed reproduces trace and report bytes; new seed differs"):
        sc = Scenario(seed=1, adversaries=((2, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),))
        a, a_trace = run_traced(sc, seed=7)
        b, b_trace = run_traced(sc, seed=7)
        _, c_trace = run_traced(sc, seed=8)
        assert a_trace == b_trace
        assert emit_report(folded(sc, a), "json") == emit_report(folded(sc, b), "json")
        assert emit_report(folded(sc, a), "csv") == emit_report(folded(sc, b), "csv")
        assert a_trace != c_trace


def test_acceptance_8_verdict_oracle_equivalence():
    with criterion(8, "compute_verdict equals the decision-table oracle everywhere"):
        checked = 0
        for n in range(2, 7):
            for quorum in range(1, n + 1):
                for agree in range(n + 1):
                    for disagree in range(n + 1 - agree):
                        missing = n - agree - disagree
                        tally = Tally(
                            agree=agree, disagree=disagree, missing=missing, n_checkers=n
                        )
                        assert compute_verdict(tally, quorum) is oracle_outcome(
                            agree, disagree, missing, quorum
                        )
                        checked += 1
        assert checked == sum((n + 1) * (n + 2) // 2 * n for n in range(2, 7))
