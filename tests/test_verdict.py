"""Verdict rule tests: the majority threshold, its bounds, and the ledger."""

from __future__ import annotations

from itertools import combinations

import pytest

from collabtrust.errors import ContractError
from collabtrust.scenario import Scenario
from collabtrust.verdict import (
    Outcome,
    SuspicionLedger,
    Tally,
    Verdict,
    compute_verdict,
    decision_table,
    default_quorum,
    framing_bound,
    lossless_verdicts,
    oracle_outcome,
    update_suspicion,
    verdict_table,
)


def tally(agree, disagree, missing, n=None):
    n = agree + disagree + missing if n is None else n
    return Tally(agree=agree, disagree=disagree, missing=missing, n_checkers=n)


def all_tallies(n):
    for agree in range(n + 1):
        for disagree in range(n + 1 - agree):
            yield tally(agree, disagree, n - agree - disagree)


def test_unanimous_disagreement_flags():
    assert compute_verdict(tally(0, 4, 0), quorum=3) is Outcome.FLAGGED


def test_unanimous_agreement_trusts():
    assert compute_verdict(tally(4, 0, 0), quorum=3) is Outcome.TRUSTED


def test_even_split_trusts():
    # 2 of 4 is not a strict majority; ties resolve against flagging.
    assert compute_verdict(tally(2, 2, 0), quorum=3) is Outcome.TRUSTED


def test_below_quorum_is_inconclusive():
    assert compute_verdict(tally(1, 1, 2), quorum=3) is Outcome.INCONCLUSIVE


def test_missing_counts_as_non_disagree():
    assert compute_verdict(tally(0, 3, 1), quorum=3) is Outcome.FLAGGED
    assert compute_verdict(tally(3, 0, 1), quorum=3) is Outcome.TRUSTED


def test_contract_errors():
    with pytest.raises(ContractError):
        Tally(agree=2, disagree=2, missing=2, n_checkers=4)
    with pytest.raises(ContractError):
        Tally(agree=-1, disagree=2, missing=3, n_checkers=4)
    with pytest.raises(ContractError):
        compute_verdict(tally(2, 2, 0), quorum=0)
    with pytest.raises(ContractError):
        compute_verdict(tally(2, 2, 0), quorum=5)


def test_verdict_rule_is_pure():
    t = tally(1, 3, 0)
    assert compute_verdict(t, 3) is compute_verdict(t, 3)


def test_matches_oracle_on_all_tallies_and_quorums():
    for n in range(2, 7):
        for q in range(1, n + 1):
            for t in all_tallies(n):
                assert compute_verdict(t, q) is oracle_outcome(
                    t.agree, t.disagree, t.missing, q
                ), (n, q, t)


def test_decision_table_shape():
    rows = list(decision_table(4))
    assert len(rows) == 15  # compositions of 4 into 3 parts
    assert all(a + d + m == 4 for a, d, m, _ in rows)
    assert len(set((a, d, m) for a, d, m, _ in rows)) == 15


def test_monotonicity_flipping_votes():
    # Turning any AGREE or MISSING vote into DISAGREE never rescues a
    # flagged device; the reverse flip never condemns a trusted one.
    for n in range(2, 7):
        q = default_quorum(n)
        for t in all_tallies(n):
            base = compute_verdict(t, q)
            if t.agree > 0:
                worse = compute_verdict(tally(t.agree - 1, t.disagree + 1, t.missing), q)
                if base is Outcome.FLAGGED:
                    assert worse is Outcome.FLAGGED
            if t.missing > 0:
                worse = compute_verdict(tally(t.agree, t.disagree + 1, t.missing - 1), q)
                if base is Outcome.FLAGGED:
                    assert worse is Outcome.FLAGGED
            if t.disagree > 0:
                better = compute_verdict(tally(t.agree + 1, t.disagree - 1, t.missing), q)
                if base is Outcome.TRUSTED:
                    assert better is not Outcome.FLAGGED


def test_loss_never_flags():
    # Moving any received vote to MISSING can only move outcomes toward
    # TRUSTED/INCONCLUSIVE, never produce a new FLAGGED.
    for n in range(2, 7):
        q = default_quorum(n)
        for t in all_tallies(n):
            base = compute_verdict(t, q)
            for da in range(t.agree + 1):
                for dd in range(t.disagree + 1):
                    lossy = tally(t.agree - da, t.disagree - dd, t.missing + da + dd)
                    if base is not Outcome.FLAGGED:
                        assert compute_verdict(lossy, q) is not Outcome.FLAGGED


def lossless_round_outcome(n, liar_set, checkee_manifests):
    """Tally-level oracle for one lossless round of a group of n.

    Checkers vote honestly from what they see; liars vote the worst case
    (DISAGREE when framing an honest checkee, AGREE when shielding a
    manifesting one).
    """
    n_checkers = n - 1
    if checkee_manifests:
        disagree = n_checkers - len(liar_set)
        agree = len(liar_set)
    else:
        disagree = len(liar_set)
        agree = n_checkers - len(liar_set)
    t = tally(agree, disagree, 0, n_checkers)
    return compute_verdict(t, default_quorum(n_checkers))


def test_minimum_corruption_to_frame_by_exhaustive_search():
    for n in range(3, 8):
        checkers = list(range(n - 1))
        smallest = None
        for k in range(0, n):
            if any(
                lossless_round_outcome(n, set(liars), checkee_manifests=False)
                is Outcome.FLAGGED
                for liars in combinations(checkers, min(k, len(checkers)))
            ):
                smallest = k
                break
        bound = framing_bound(lossless_verdicts(verdict_table(n, default_quorum(n - 1))))
        assert smallest == bound + 1 == (n - 1) // 2 + 1, n


def test_framing_bound_exhaustive():
    # At most floor((n-1)/2) liars can never flag an honest checkee.
    for n in range(3, 8):
        checkers = list(range(n - 1))
        for k in range((n - 1) // 2 + 1):
            for liars in combinations(checkers, k):
                outcome = lossless_round_outcome(n, set(liars), checkee_manifests=False)
                assert outcome is Outcome.TRUSTED, (n, liars)


def test_detection_bound_exhaustive():
    # A manifesting corrupt checkee is flagged whenever the corrupt set
    # (checkee included) is at most floor((n-1)/2), even if every corrupt
    # checker shields it.
    for n in range(3, 8):
        checkers = list(range(n - 1))
        max_corrupt = (n - 1) // 2
        for total_corrupt in range(1, max_corrupt + 1):
            shields = total_corrupt - 1  # the checkee is one of the corrupt
            for liars in combinations(checkers, shields):
                outcome = lossless_round_outcome(n, set(liars), checkee_manifests=True)
                assert outcome is Outcome.FLAGGED, (n, liars)


def test_ledger_threshold_crossing():
    ledger = SuspicionLedger(flag_threshold=1)
    v = Verdict(checkee=2, round=0, outcome=Outcome.FLAGGED, tally=tally(0, 4, 0))
    update_suspicion(ledger, v)
    assert ledger.is_excluded(2)
    assert ledger.excluded_round(2) == 0
    assert ledger.flag_count(2) == 1
    assert ledger.first_flagged[2] == 0


def test_ledger_ignores_trusted_and_inconclusive():
    ledger = SuspicionLedger()
    update_suspicion(ledger, Verdict(2, 0, Outcome.TRUSTED, tally(4, 0, 0)))
    update_suspicion(ledger, Verdict(2, 1, Outcome.INCONCLUSIVE, tally(1, 1, 2)))
    assert ledger.flag_count(2) == 0
    assert not ledger.is_excluded(2)


def test_ledger_below_threshold():
    ledger = SuspicionLedger(flag_threshold=3)
    for r in range(2):
        update_suspicion(ledger, Verdict(1, r, Outcome.FLAGGED, tally(0, 4, 0)))
    assert ledger.flag_count(1) == 2
    assert not ledger.is_excluded(1)
    update_suspicion(ledger, Verdict(1, 2, Outcome.FLAGGED, tally(0, 4, 0)))
    assert ledger.is_excluded(1)
    assert ledger.excluded_round(1) == 2


def test_lossless_verdicts_equal_the_rule_and_the_oracle():
    for n in range(3, 26):
        for quorum in range(1, n):
            table = lossless_verdicts(verdict_table(n, quorum))
            assert len(table) == n
            for agree, (t, outcome) in enumerate(table):
                disagree = n - 1 - agree
                assert t == tally(agree, disagree, 0)
                assert outcome is compute_verdict(t, quorum)
                assert outcome is oracle_outcome(agree, disagree, 0, quorum)


def test_lossless_verdicts_reject_a_quorum_out_of_range():
    with pytest.raises(ContractError):
        lossless_verdicts(verdict_table(5, 0))
    with pytest.raises(ContractError):
        lossless_verdicts(verdict_table(5, 5))


def test_verdict_table_decides_every_split_once_by_the_rule_and_the_oracle():
    for n in range(3, 10):
        for quorum in range(1, n):
            table = verdict_table(n, quorum)
            lossless = lossless_verdicts(table)
            assert len(table) == n  # entries are made as they are looked up
            for agree in range(n):
                for disagree in range(n - agree):
                    missing = n - 1 - agree - disagree
                    t, outcome = table[agree, disagree]
                    assert t == tally(agree, disagree, missing, n - 1)
                    assert outcome is compute_verdict(t, quorum)
                    assert outcome is oracle_outcome(agree, disagree, missing, quorum)
                    assert table[agree, disagree][0] is t  # decided once, then kept
            assert len(table) == n * (n + 1) // 2
            unanimous = sorted(
                (e for e in table.values() if e[0].missing == 0), key=lambda e: e[0].agree
            )
            assert list(lossless) == unanimous
            assert all(e is table[e[0].agree, e[0].disagree] for e in lossless)
            sc = Scenario(population=n, group_size=n, quorum=quorum)
            assert sc.plan.lossless_verdicts == lossless
            assert all(e is sc.plan.verdicts[e[0].agree, e[0].disagree] for e in sc.plan.lossless_verdicts)


def test_verdict_table_rejects_a_bad_quorum_or_split():
    for quorum in (0, 5):
        with pytest.raises(ContractError):
            verdict_table(5, quorum)
    table = verdict_table(5, 3)
    with pytest.raises(ContractError):
        table[3, 2]  # 5 opinions from 4 checkers
    with pytest.raises(ContractError):
        table[-1, 2]
    assert len(table) == 0
