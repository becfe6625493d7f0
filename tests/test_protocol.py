"""The reference engine's per-device handlers, driven directly.

`tests/event_engine.py` keeps the state machine that lossy runs took before
the round walk; the differential in `test_lossy.py` holds the round walk to
its bytes, so these rules hold for both.
"""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

from collabtrust.adversary import (
    AdversaryProfile,
    FaultKind,
    Opinion,
    PayloadKind,
    ReportingKind,
    TrojanModel,
)
from collabtrust.errors import ProtocolViolation
from event_engine import (
    Challenge,
    ComparisonReport,
    DeviceState,
    Response,
    begin_round,
    handle_check_request,
    handle_response,
    on_round_start,
    round_checkee,
    round_initiator,
    settle_round,
)
from collabtrust.rng import SplitMix64
from collabtrust.routines import execute, routine_catalog
from collabtrust.verdict import Outcome, Tally, Verdict, verdict_table
from reference_impl import handle_report, on_timeout

GROUP = (0, 1, 2, 3, 4)


def make_device(device_id, profile=None, group=GROUP):
    state = DeviceState(
        device_id=device_id,
        profile=profile or AdversaryProfile(),
        routine_order=routine_catalog(),
        rng=SplitMix64(100 + device_id),
        verdicts=verdict_table(len(group), 3),
    )
    state.join(group)
    return state


def make_bench(round_no=0, profiles=None):
    profiles = profiles or {}
    states = {d: make_device(d, profiles.get(d)) for d in GROUP}
    begin_round(list(states.values()), round_no)
    return states


def challenge_for(round_no=0, ops=(200, 100)):
    spec = routine_catalog()[0]
    return Challenge(
        round=round_no,
        initiator=round_initiator(GROUP, round_no),
        checkee=round_checkee(GROUP, round_no),
        spec=spec,
        ops=ops,
        honest=execute(spec, ops),
    )


# Each record kind with a factory of its field values: every call builds
# equal but distinct values.
RECORDS = {
    "Challenge": (Challenge, lambda: (0, 1, 0, routine_catalog()[0], (200, 100), 44)),
    "Response": (Response, lambda: (0, 0, 44)),
    "ComparisonReport": (ComparisonReport, lambda: (0, 2, 0, Opinion.AGREE)),
    "Verdict": (Verdict, lambda: (0, 0, Outcome.FLAGGED, Tally(0, 4, 0, 4))),
}


@pytest.mark.parametrize("kind, values", RECORDS.values(), ids=RECORDS)
def test_messages_and_verdicts_are_immutable_values(kind, values):
    """Messages and verdicts compare and hash by value (the tests count them
    in Counters), and no field of one can be reassigned."""
    a, b = kind(*values()), kind(*values())
    assert a is not b and a == b and hash(a) == hash(b)
    assert Counter([a, b]) == {a: 2}
    *head, _ = values()
    assert kind(*head, None) != a
    for name in inspect.signature(kind).parameters:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


def test_round_robin_schedule():
    assert round_checkee(GROUP, 0) == 0
    assert round_initiator(GROUP, 0) == 1
    assert round_checkee(GROUP, 1) == 1
    assert round_initiator(GROUP, 1) == 2
    assert round_checkee(GROUP, 5) == 0  # period = group size
    assert round_checkee(GROUP, 4) == 4
    assert round_initiator(GROUP, 4) == 0  # wraps past the end


def test_on_round_start_emits_group_minus_one_challenges():
    states = make_bench(round_no=0)
    ch = on_round_start(states[1], 0, shared_seed=42)
    assert isinstance(ch, Challenge)
    # the engine sends it to the initiator's peers: the rest of the group
    assert states[1].peers == (0, 2, 3, 4)
    assert ch.checkee == 0 and ch.initiator == 1 and ch.round == 0
    # the initiator processed its own copy and is now a waiting checker
    assert states[1].challenge == ch
    assert states[1].reference == execute(ch.spec, ch.ops)
    assert (states[1].heard, states[1].agree) == (0, 0)


def test_on_round_start_wrong_device_is_fatal():
    states = make_bench(round_no=0)
    with pytest.raises(ProtocolViolation):
        on_round_start(states[2], 0, shared_seed=42)


def test_on_round_start_requires_idle():
    states = make_bench(round_no=0)
    on_round_start(states[1], 0, shared_seed=42)
    with pytest.raises(ProtocolViolation):
        on_round_start(states[1], 0, shared_seed=42)


def test_honest_checkee_broadcasts_its_output():
    states = make_bench(round_no=0)
    response = handle_check_request(states[0], challenge_for(ops=(200, 100)))
    assert isinstance(response, Response)
    assert response.output == 44 and response.responder == 0 and response.round == 0
    assert states[0].peers == (1, 2, 3, 4)
    # the checkee defends its own output and never holds an opinion of its own
    assert states[0].reference == 44
    assert (states[0].heard, states[0].agree) == (0, 0)


def test_trojaned_checkee_answers_with_payload():
    trojan = TrojanModel(
        operand_index=0, mask=0xFF, match=200, payload=PayloadKind.XOR, payload_value=0x01
    )
    profile = AdversaryProfile(fault=FaultKind.TROJAN, trojan=trojan)
    states = make_bench(profiles={0: profile})
    response = handle_check_request(states[0], challenge_for(ops=(200, 100)))
    assert isinstance(response, Response) and response.output == 45


def test_checker_caches_reference_and_stays_silent():
    states = make_bench(round_no=0)
    assert handle_check_request(states[2], challenge_for(ops=(200, 100))) is None
    assert states[2].reference == 44
    assert (states[2].heard, states[2].agree) == (0, 0)
    assert states[2].pending_response is None


def test_matching_response_yields_agree_broadcast():
    states = make_bench(round_no=0)
    handle_check_request(states[2], challenge_for(ops=(200, 100)))
    report = handle_response(states[2], Response(round=0, responder=0, output=44))
    assert isinstance(report, ComparisonReport)
    assert report.opinion is Opinion.AGREE
    assert report.reporter == 2 and report.checkee == 0 and report.round == 0
    assert states[2].peers == (0, 1, 3, 4)
    assert (states[2].heard, states[2].agree) == (1, 1)  # its own AGREE
    assert not states[2].verdict_emitted


def test_mismatching_response_yields_disagree():
    states = make_bench(round_no=0)
    handle_check_request(states[2], challenge_for(ops=(200, 100)))
    report = handle_response(states[2], Response(round=0, responder=0, output=45))
    assert report.opinion is Opinion.DISAGREE


def test_framing_reporter_lies_in_broadcast_and_own_tally():
    framer = AdversaryProfile(reporting=ReportingKind.FRAME, targets=frozenset({0}))
    states = make_bench(profiles={2: framer})
    handle_check_request(states[2], challenge_for(ops=(200, 100)))
    report = handle_response(states[2], Response(round=0, responder=0, output=44))
    assert report.opinion is Opinion.DISAGREE
    assert (states[2].heard, states[2].agree) == (1, 0)  # its own DISAGREE


def test_early_response_is_parked_until_challenge_arrives():
    states = make_bench(round_no=0)
    early = Response(round=0, responder=0, output=44)
    assert handle_response(states[2], early) is None
    assert states[2].pending_response == early
    assert (states[2].heard, states[2].agree) == (0, 0)
    report = handle_check_request(states[2], challenge_for(ops=(200, 100)))
    assert isinstance(report, ComparisonReport)
    assert report.opinion is Opinion.AGREE and report.reporter == 2
    assert states[2].pending_response is None


def fill_reports(state, opinions):
    """Deliver one report per (reporter, opinion); return the last handler value."""
    verdict = None
    for reporter, opinion in opinions:
        verdict = handle_report(
            state,
            ComparisonReport(
                round=state.round, reporter=reporter, checkee=state.checkee, opinion=opinion
            ),
        )
    return verdict


def test_unanimous_agreement_concludes_trusted():
    states = make_bench(round_no=0)
    v = fill_reports(states[0], [(r, Opinion.AGREE) for r in (1, 2, 3, 4)])
    assert v is not None
    assert v.outcome is Outcome.TRUSTED
    assert v.checkee == 0 and v.round == 0
    assert v.tally.agree == 4 and v.tally.missing == 0
    assert states[0].verdict_emitted


def test_unanimous_disagreement_concludes_flagged():
    states = make_bench(round_no=0)
    v = fill_reports(states[0], [(r, Opinion.DISAGREE) for r in (1, 2, 3, 4)])
    assert v.outcome is Outcome.FLAGGED


def test_checker_tally_includes_own_opinion():
    states = make_bench(round_no=0)
    handle_check_request(states[2], challenge_for(ops=(200, 100)))
    handle_response(states[2], Response(round=0, responder=0, output=44))
    v = fill_reports(states[2], [(r, Opinion.AGREE) for r in (1, 3, 4)])
    assert v is not None and v.outcome is Outcome.TRUSTED
    assert v.tally.agree == 4  # three peers plus itself


def test_below_quorum_waits_for_timeout():
    states = make_bench(round_no=0)
    assert fill_reports(states[0], [(1, Opinion.AGREE), (2, Opinion.AGREE)]) is None
    v = on_timeout(states[0], 0)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.tally.missing == 2


def test_timeout_with_quorum_flags_or_trusts():
    states = make_bench(round_no=0)
    fill_reports(states[0], [(r, Opinion.DISAGREE) for r in (1, 2, 3)])
    v = on_timeout(states[0], 0)
    assert v.outcome is Outcome.FLAGGED
    assert v.tally == type(v.tally)(agree=0, disagree=3, missing=1, n_checkers=4)

    states = make_bench(round_no=0)
    fill_reports(states[0], [(r, Opinion.AGREE) for r in (1, 2, 3)])
    assert on_timeout(states[0], 0).outcome is Outcome.TRUSTED


def test_timeout_after_verdict_is_a_violation():
    states = make_bench(round_no=0)
    fill_reports(states[0], [(r, Opinion.AGREE) for r in (1, 2, 3, 4)])
    with pytest.raises(ProtocolViolation):
        on_timeout(states[0], 0)


def test_begin_round_resets_state():
    states = make_bench(round_no=0)
    handle_check_request(states[2], challenge_for())
    fill_reports(states[0], [(r, Opinion.AGREE) for r in (1, 2, 3, 4)])
    begin_round(list(states.values()), 1)
    for state in states.values():
        assert state.round == 1 and state.checkee == 1
        assert state.challenge is None and state.reference is None
        assert (state.heard, state.agree) == (0, 0)
        assert not state.verdict_emitted


def test_checker_without_challenge_still_tallies_peer_reports():
    # Its own challenge copy was lost, so it can never add its own opinion,
    # but the schedule tells it the checkee and the peers' reports count.
    states = make_bench(round_no=0)
    state = states[2]
    assert fill_reports(state, [(r, Opinion.AGREE) for r in (1, 3, 4)]) is None
    v = on_timeout(state, 0)
    assert v.outcome is Outcome.TRUSTED
    assert v.tally.agree == 3 and v.tally.missing == 1
    assert state.challenge is None


def _own_opinions(states, opinions):
    """Have each reporter of `opinions` (reporter -> opinion) reach its own
    opinion of checkee 0's answer, as handle_response counts it, and return
    the reports they send."""
    reports = []
    for reporter, opinion in opinions.items():
        state = states[reporter]
        handle_check_request(state, challenge_for())
        output = state.reference if opinion is Opinion.AGREE else state.reference + 1
        rep = handle_response(state, Response(round=0, responder=0, output=output))
        assert rep.opinion is opinion
        reports.append(rep)
    return reports


@pytest.mark.parametrize(
    "agree, disagree", [(a, d) for a in range(5) for d in range(5 - a)]
)
def test_settled_reports_conclude_at_the_deadline_as_handled_ones_do(agree, disagree):
    # Untraced runs hand over no report: settle_round adds each member's
    # reports less its misses at the deadline and concludes the group at
    # once. Traced runs tally each delivered report as handle_report does,
    # which may conclude early, and call on_timeout per member. Both must
    # reach the same verdicts.
    opinions = dict(zip((1, 2, 3, 4), [Opinion.AGREE] * agree + [Opinion.DISAGREE] * disagree))
    lost = max(opinions, default=None)  # the checkee misses the last report

    handled = make_bench(round_no=0)
    reports = _own_opinions(handled, opinions)
    expected = {}
    for d, state in handled.items():
        verdict = None
        for rep in reports:
            if rep.reporter != d and (d, rep.reporter) != (0, lost):
                verdict = handle_report(state, rep) or verdict
        expected[d] = verdict or on_timeout(state, 0)

    settled = make_bench(round_no=0)
    _own_opinions(settled, opinions)
    missed = Counter(opinions.keys())
    missed_agree = Counter(r for r, o in opinions.items() if o is Opinion.AGREE)
    if lost is not None:
        missed[0] += 1
        missed_agree[0] += opinions[lost] is Opinion.AGREE
    concluded = settle_round(
        list(settled.values()), 0, agree + disagree, agree, missed, missed_agree
    )
    got = {d: v for v, issuers in concluded for d in issuers}
    assert got == expected
    assert len(concluded) == len(set(expected.values()))
    assert sorted(d for _, issuers in concluded for d in issuers) == list(GROUP)
    assert all(issuers == sorted(issuers) for _, issuers in concluded)
    assert all(s.verdict_emitted for s in settled.values())
    tally = got[0].tally
    assert (tally.agree + tally.disagree, tally.disagree) == (
        agree + disagree - (lost is not None),
        disagree - (lost is not None and opinions[lost] is Opinion.DISAGREE),
    )


def test_one_settle_call_tallies_each_receiver_once():
    states = make_bench(round_no=0)
    _own_opinions(states, {1: Opinion.AGREE, 2: Opinion.DISAGREE})
    # Each reporter misses its own report, which handle_response counted.
    concluded = settle_round(list(states.values()), 0, 2, 1, {1: 1, 2: 1}, {1: 1})
    assert [(s.heard, s.agree) for s in states.values()] == [(2, 1)] * 5
    assert all(s.verdict_emitted for s in states.values())
    assert [issuers for _, issuers in concluded] == [[0, 1, 2, 3, 4]]
    with pytest.raises(ProtocolViolation):
        settle_round(list(states.values()), 0, 0, 0, {}, {})


def test_a_settle_call_returns_each_split_once_with_its_issuers_in_group_order():
    states = make_bench(round_no=0)
    # Devices 1 and 2 missed one of the two AGREE reports, devices 3 and 4 both.
    missed = {1: 1, 2: 1, 3: 2, 4: 2}
    concluded = settle_round(list(states.values()), 0, 2, 2, missed, missed)
    splits = {(v.tally.agree, v.tally.disagree): issuers for v, issuers in concluded}
    assert splits == {(2, 0): [0], (1, 0): [1, 2], (0, 0): [3, 4]}
    assert {(v.round, v.checkee) for v, _ in concluded} == {(0, 0)}
