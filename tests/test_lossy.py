"""Hypothesis properties of the event engine over lossy, tight-deadline runs.

These runs never take the tally kernel: every one has loss, and many have a
deadline the challenge -> response -> report chain can overrun, so reports go
missing, arrive late or are still in flight when the run ends. Scenarios
reuse the adversary strategy of `test_kernel.py`. Untraced, the engine hands
over no report: it records which members miss each one (dropped, landing at
or past the round's end, or their own) and tallies the rest at the deadline,
in one settle_round call per round. Traced, every delivery is its own event.
Both must end the same, down to each member's verdict and tally.
"""

from __future__ import annotations

import io
from collections import Counter
from operator import length_hint

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.protocol as protocol
import collabtrust.simnet as simnet
from collabtrust.adversary import Opinion, apply_fault
from collabtrust.metrics import DetectionStats, TrafficCounters
from collabtrust.protocol import Challenge, ComparisonReport, Message, Response
from collabtrust.rng import SplitMix64
from collabtrust.routines import execute, generate_operands
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import latency_free, run_simulation
from collabtrust.verdict import Outcome
from reference_impl import fates, trace_delivery, trace_verdict
from test_kernel import adversary_docs
from verdict_log import emitted, folded, run_logged, run_traced, trace_lines

DELIVERY_KINDS = ("CHALLENGE", "RESPONSE", "REPORT")

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def lossy_scenarios(draw, honest: bool = False, minority: bool = False) -> Scenario:
    """Lossy scenarios. With `minority`, the whole population holds exactly
    floor((group_size - 1) / 2) adversaries: the most that cannot outvote
    the honest checkers of any group."""
    group_size = draw(st.integers(3, 7))
    population = group_size + draw(st.integers(0, 3))
    latency_max = draw(st.integers(1, 4))
    devices = st.integers(0, population - 1)
    if honest:
        corrupt = []
    elif minority:
        k = (group_size - 1) // 2
        corrupt = draw(st.lists(devices, min_size=k, max_size=k, unique=True))
    else:
        corrupt = draw(st.lists(devices, max_size=3, unique=True))
    doc = {
        "population": population,
        "group_size": group_size,
        "rounds": draw(st.integers(1, 20)),
        "regroup_period": draw(st.integers(1, 8)),
        "quorum": draw(st.integers(1, group_size - 1)),
        "flag_threshold": draw(st.integers(1, 3)),
        "round_deadline": draw(st.integers(latency_max + 1, 3 * latency_max)),
        "network": {
            "latency_min": draw(st.integers(0, latency_max)),
            "latency_max": latency_max,
            "drop_prob": draw(st.sampled_from((0.05, 0.2, 0.5, 1.0))),
        },
        "adversaries": [draw(adversary_docs(d, population)) for d in corrupt],
    }
    return scenario_from_dict(doc)


def _check_conservation(res, trace: list[str]) -> None:
    c = res.counters
    assert c.sent == c.delivered + c.dropped + c.late + c.in_flight
    usage = res.energy.usage.values()
    assert sum(u.sent for u in usage) == c.sent
    lines = [line.split() for line in trace]
    deliveries = [f for f in lines if f[2] in DELIVERY_KINDS]
    # Every popped delivery is received; purged ones are late but never popped.
    assert sum(u.received for u in usage) == len(deliveries)
    assert c.delivered == sum(1 for f in deliveries if f[-1] != "late=1")
    assert c.late >= len(deliveries) - c.delivered


@SETTINGS
@given(sc=lossy_scenarios(honest=True), seed=st.integers(0, 2**64 - 1))
def test_lossy_honest_runs_flag_no_one(sc, seed):
    assert not latency_free(sc)
    sink = io.StringIO()
    res, verdicts = run_logged(sc, seed=seed, trace=sink)
    assert all(v.outcome is not Outcome.FLAGGED for _, v in verdicts)
    assert res.halt_reason is None and res.rounds_executed == sc.rounds
    _check_conservation(res, trace_lines(sink))


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
def test_lossy_traced_runs_conserve_and_repeat(sc, seed):
    first, first_trace = run_traced(sc, seed=seed)
    second, second_trace = run_traced(sc, seed=seed)
    _check_conservation(first, first_trace)
    assert first_trace == second_trace
    assert emitted(folded(sc, first), "json") == emitted(folded(sc, second), "json")


@SETTINGS
@given(sc=lossy_scenarios(minority=True), seed=st.integers(0, 2**64 - 1))
def test_lossy_minority_of_adversaries_frames_no_one(sc, seed):
    # Framing needs floor((N-1)/2) + 1 DISAGREE votes; loss and lateness
    # only remove votes, so a minority can never flag an honest device.
    res = run_simulation(sc, seed=seed)
    assert folded(sc, res).false_positives == 0


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
def test_engine_hands_handlers_only_on_round_member_messages(sc, seed):
    """The event loop owns message fate: whatever reaches a handler is for the
    current round, between current group members, and not a duplicate.

    A tally is two counts, so duplicates are caught here with a set of the
    (round, receiver, reporter) opinions tallied, the own one included. No
    report goes to a handler. Untraced, one settle_round call per deadline
    adds each member's reports less its misses: each report must come from
    a distinct checker, each member must miss its own, and each report it
    did not miss counts as one delivery. Traced, the loop tallies each
    report copy that lands in time, and its trace line shows it delivered."""
    calls: Counter = Counter()
    tallied: set[tuple[int, int, int]] = set()
    opinions: dict[tuple[int, int], bool] = {}  # (round, reporter) -> AGREE

    def own_opinion(state, out):
        if type(out) is ComparisonReport:
            key = (out.round, state.id, state.id)
            assert key not in tallied
            tallied.add(key)
            opinions[out.round, state.id] = out.opinion is Opinion.AGREE
        return out

    def on_challenge(state, ch):
        assert ch.round == state.round and state.challenge is None
        assert state.id in state.members and state.id != ch.initiator
        calls["challenge"] += 1
        return own_opinion(state, challenge_handler(state, ch))

    def on_response(state, r):
        assert r.round == state.round
        assert r.responder == state.checkee != state.id
        assert (r.round, state.id, state.id) not in tallied
        calls["response"] += 1
        return own_opinion(state, response_handler(state, r))

    def on_settle(states, round_no, reports, agrees, missed, missed_agree):
        sent = [agree for (r, _), agree in opinions.items() if r == round_no]
        assert (reports, agrees) == (len(sent), sum(sent))
        for state in states:
            assert state.round == round_no and state.id in state.members
            own = (round_no, state.id, state.id) in tallied
            assert own <= missed.get(state.id, 0) <= reports
            assert missed_agree.get(state.id, 0) <= min(agrees, missed.get(state.id, 0))
            calls["report"] += reports - missed.get(state.id, 0)
        concluded = settle_handler(states, round_no, reports, agrees, missed, missed_agree)
        assert all(state.heard <= state.n_checkers for state in states)
        return concluded

    challenge_handler = simnet.handle_check_request
    response_handler = simnet.handle_response
    settle_handler = simnet.settle_round
    for trace in (None, io.StringIO()):
        calls.clear()
        tallied.clear()
        opinions.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simnet, "handle_check_request", on_challenge)
            mp.setattr(simnet, "handle_response", on_response)
            mp.setattr(simnet, "settle_round", on_settle)
            res = run_simulation(sc, seed=seed, trace=trace)
        if trace is not None:
            reports = [f for f in map(str.split, trace_lines(trace)) if f[2] == "REPORT"]
            calls["report"] = sum(1 for f in reports if f[-1] != "late=1")
        # Every delivered message reached exactly one handler or tally.
        assert sum(calls.values()) == res.counters.delivered


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
def test_untraced_runs_hand_over_no_report(sc, seed):
    """Untraced, no report is handed over: its copies that land in time are
    not queued, and settle_round tallies them at the deadline. So up to the
    deadline a member's tally holds at most its own opinion, and no member
    has concluded."""

    def on_settle(states, round_no, *counts):
        for state in states:
            assert not state.verdict_emitted, f"device {state.id} concluded before the deadline"
            assert state.heard <= (state.id != state.checkee)
            assert state.agree <= state.heard
        return settle_handler(states, round_no, *counts)

    settle_handler = simnet.settle_round
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "settle_round", on_settle)
        run_simulation(sc, seed=seed)


def _lossy_doc(population, lo, hi, deadline, drop) -> dict:
    """Group 5, 12 rounds, regrouped every 3, with an ALWAYS_WRONG device 2."""
    return {
        "population": population,
        "group_size": 5,
        "rounds": 12,
        "regroup_period": 3,
        "round_deadline": deadline,
        "network": {"latency_min": lo, "latency_max": hi, "drop_prob": drop},
        "adversaries": [{"device": 2, "fault": "ALWAYS_WRONG"}],
    }


# The cases the differential must cover, each with a seed that shows it
# (test_differential_examples_show_their_case checks that they do).
ZERO_LATENCY = (_lossy_doc(6, 0, 2, 3, 0.2), 0)
# Latency 2 both ways: every report lands exactly on the deadline tick, late.
ON_THE_DEADLINE = (_lossy_doc(6, 2, 2, 6, 0.05), 0)
PURGE = (_lossy_doc(7, 1, 4, 10, 0.05), 1)
HALT_IN_FLIGHT = (_lossy_doc(5, 1, 4, 10, 0.05), 4)
# Latency 0 to deadline - 1: reports land in time, on the deadline tick and
# past it, and device 2 is excluded with deliveries to it still queued.
TIGHT_DEADLINE = (_lossy_doc(7, 0, 4, 5, 0.05), 3)
# Latency 0 to 2**63, a span of 2**63 + 1: latency words at or above
# 2**64 - 2**64 % span = 2**63 + 1, about half of them, are redrawn. Each
# report is sent at most 2 * latency_max after its round starts, so with a
# deadline above 3 * latency_max every report fan-out decides drops only;
# with a deadline of 2**63 + 3 the report fan-outs take the full decode.
WIDE_SPAN = 2**63
DROPS_ONLY = (_lossy_doc(6, 0, WIDE_SPAN, 3 * WIDE_SPAN + 1, 0.3), 0)
FULL_DECODE = (_lossy_doc(6, 0, WIDE_SPAN, WIDE_SPAN + 3, 0.3), 0)


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
@example(sc=scenario_from_dict(TIGHT_DEADLINE[0]), seed=TIGHT_DEADLINE[1])
@example(sc=scenario_from_dict(DROPS_ONLY[0]), seed=DROPS_ONLY[1])
@example(sc=scenario_from_dict(FULL_DECODE[0]), seed=FULL_DECODE[1])
def test_untraced_engine_equals_traced_engine(sc, seed):
    untraced = run_simulation(sc, seed=seed)
    traced, _ = run_traced(sc, seed=seed)
    assert untraced.stats == traced.stats
    assert untraced.counters == traced.counters
    assert dict(untraced.energy.usage) == dict(traced.energy.usage)
    assert untraced.suspicion == traced.suspicion
    assert untraced.rounds_executed == traced.rounds_executed
    assert untraced.halt_reason == traced.halt_reason


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
@example(sc=scenario_from_dict(TIGHT_DEADLINE[0]), seed=TIGHT_DEADLINE[1])
def test_untraced_engine_folds_the_traced_engines_verdicts(sc, seed):
    """Each member's verdict, tally included, is the same whether its reports
    are handed over one by one (traced) or tallied by their misses at the
    deadline (untraced). Untraced, a round's verdicts are folded once per
    split, so only the multisets are compared."""
    _, untraced = run_logged(sc, seed=seed)
    _, traced = run_logged(sc, seed=seed, trace=io.StringIO())

    def view(log):
        return Counter((i, v.round, v.checkee, v.outcome, v.tally) for i, v in log)

    assert view(untraced) == view(traced)


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
def test_each_fan_out_reaches_the_senders_peers_once(sc, seed):
    """Every send is one message to the sender's group_size - 1 peers: the
    engine charges each fan-out's transmissions in one step, never an empty
    one, and no delivery goes from a device to itself."""
    counts: list[int] = []

    class FanOuts(TrafficCounters):
        # Each step of `sent` is one fan-out's transmissions.
        def __setattr__(self, name, value):
            if name == "sent" and "sent" in self.__dict__:
                counts.append(value - self.sent)
            super().__setattr__(name, value)

    sink = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "TrafficCounters", FanOuts)
        for trace in (None, sink):
            counts.clear()
            res = run_simulation(sc, seed=seed, trace=trace)
            assert set(counts) == {sc.group_size - 1}
            assert sum(counts) == res.counters.sent
    deliveries = [f for f in map(str.split, trace_lines(sink)) if f[2] in DELIVERY_KINDS]
    assert all(f[3] != f[4] for f in deliveries)


KINDS = {Challenge: "CHALLENGE", Response: "RESPONSE", ComparisonReport: "REPORT"}


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
def test_trace_lines_equal_the_reference_formatter(sc, seed):
    """Each delivery line is the reference's line of the message sent, at the
    line's tick, seq, receiver and fate; each VERDICT line the reference's
    line of the verdict folded for its round and issuer, and each folded
    (issuer, verdict) has exactly one VERDICT line. A round's verdicts are
    folded once per split, so they are matched by (round, issuer), not by
    their order."""
    sent: dict[tuple[str, int, int], Message] = {}  # (kind, round, sender) -> message

    def logging(handler):
        def wrapped(state, *args):
            msg = handler(state, *args)
            if msg is not None:
                # A device sends at most one message of each kind per round.
                assert sent.setdefault((KINDS[type(msg)], msg.round, state.id), msg) is msg
            return msg

        return wrapped

    sink = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("on_round_start", "handle_check_request", "handle_response"):
            mp.setattr(simnet, name, logging(getattr(simnet, name)))
        _, verdicts = run_logged(sc, seed=seed, trace=sink)
    issued = {}  # (round, issuer) -> the verdict folded
    for issuer, v in verdicts:
        assert (v.round, issuer) not in issued, "a member concludes once per round"
        issued[v.round, issuer] = v
    current_round, members = -1, []
    for line in trace_lines(sink):
        t, seq, kind, frm, to, *fields = line.split()
        if kind == "ROUND_START":
            payload = dict(f.split("=") for f in fields)
            current_round, members = int(payload["round"]), payload["group"].split(",")
        elif kind in DELIVERY_KINDS:
            late = fields[-1] == "late=1"
            rnd = int(dict(f.split("=") for f in fields)["cid"])
            assert late == (rnd != current_round or to not in members)
            msg = sent[kind, rnd, int(frm)]
            assert line + "\n" == trace_delivery(int(t), int(seq), msg, int(frm), int(to), late)
        elif kind == "VERDICT":
            rnd = int(dict(f.split("=") for f in fields)["round"])
            v = issued.pop((rnd, int(frm)))
            assert line + "\n" == trace_verdict(int(t), int(seq), int(frm), v)
    assert not issued, "every folded verdict has its VERDICT line"


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
def test_lateness_is_fixed_at_send(sc, seed):
    """A delivery is late exactly when it lands at or after the end of the
    round it was sent in: groups change only at round starts and a member
    sends only to its current peers, so one that lands in time always goes
    to a member."""
    _, trace = run_traced(sc, seed=seed)
    for f in map(str.split, trace):
        if f[2] in DELIVERY_KINDS:
            cid = int(dict(field.split("=") for field in f[5:])["cid"])
            assert (f[-1] == "late=1") == (int(f[0]) >= (cid + 1) * sc.round_deadline)


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
def test_verdict_lines_follow_their_last_report_or_precede_the_deadline(sc, seed):
    """A member's VERDICT line is written where its tally ends: right after
    the in-time REPORT delivery to it that completes the tally, at that
    line's tick and seq and with nothing missing, or else at its round's
    deadline. The deadline's VERDICT lines come in group order just before
    ROUND_DEADLINE. Each member of a round has one VERDICT line."""
    _, trace = run_traced(sc, seed=seed)
    lines = [line.split() for line in trace]
    members: list[str] = []
    issuers: list[str] = []  # the round's VERDICT issuers, in trace order
    at_deadline: list[str] = []  # those written at the deadline
    for i, f in enumerate(lines):
        kind = f[2]
        if kind == "ROUND_START":
            members = dict(x.split("=") for x in f[5:])["group"].split(",")
        elif kind == "VERDICT":
            payload = dict(x.split("=") for x in f[5:])
            rnd = int(payload["round"])
            issuers.append(f[3])
            if f[:2] == [str((rnd + 1) * sc.round_deadline), str(2 * rnd + 1)]:
                at_deadline.append(f[3])
                continue
            report = lines[i - 1]
            assert report[2] == "REPORT" and report[-1] != "late=1"
            assert report[:2] == f[:2] and report[4] == f[3]
            assert payload["missing"] == "0"
        elif kind == "ROUND_DEADLINE":
            k = len(at_deadline)
            assert [g[2:4] for g in lines[i - k : i]] == [["VERDICT", m] for m in at_deadline]
            assert at_deadline == [m for m in members if m in at_deadline]
            assert sorted(issuers) == sorted(members)
            issuers.clear()
            at_deadline.clear()
    assert not issuers, "every VERDICT line precedes its round's deadline"


TRACE_LONG = {
    # perfbench's traced workload: one Trojan shielded by an EVADE initiator
    # and one RANDOM reporter, in groups of 7 of 8 devices for 500 rounds.
    "population": 8,
    "group_size": 7,
    "rounds": 500,
    "flag_threshold": 501,
    "adversaries": [
        {
            "device": 1,
            "fault": "TROJAN",
            "trigger": {"index": 0, "mask": 15, "match": 5},
            "payload": {"kind": "XOR", "value": 1},
        },
        {"device": 2, "initiator_policy": "EVADE", "targets": [1]},
        {"device": 3, "reporting": "RANDOM", "p": 0.2},
    ],
}


@pytest.mark.parametrize(
    "doc, seed",
    [pytest.param(TRACE_LONG, 5, id="trace_long"), pytest.param(*PURGE, id="purge")],
)
def test_a_traced_round_folds_each_split_once(doc, seed):
    """A traced round folds each (agree, disagree) split of its VERDICT lines
    in one DetectionStats.fold call, for all of that split's issuers."""
    calls: list[tuple[int, tuple[int, int], tuple[int, ...]]] = []
    fold = DetectionStats.fold

    def counting(stats, v, issuers, profiles):
        calls.append((v.round, (v.tally.agree, v.tally.disagree), tuple(issuers)))
        fold(stats, v, issuers, profiles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DetectionStats, "fold", counting)
        res, trace = run_traced(scenario_from_dict(doc), seed=seed)
    lines: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for f in map(str.split, trace):
        if f[2] == "VERDICT":
            p = dict(x.split("=") for x in f[5:])
            split = int(p["agree"]), int(p["disagree"])
            lines.setdefault((int(p["round"]), split), []).append(int(f[3]))
    folded_splits = {(rnd, split): sorted(ids) for rnd, split, ids in calls}
    assert len(folded_splits) == len(calls), "one call per split and round"
    assert folded_splits == {key: sorted(ids) for key, ids in lines.items()}
    if doc is TRACE_LONG:
        # Lossless: every member hears every report, so each round is one call.
        assert len(calls) == res.rounds_executed == doc["rounds"]
    else:
        # Lossy: some round's members conclude with different tallies.
        assert len(calls) > res.rounds_executed


def _report_redraws(case) -> dict[tuple[int, int], int]:
    """(round, sender) -> the latency words redrawn in that report fan-out
    of an untraced run.

    The run's network words are recorded, and so is each message a handler
    makes, in the order made: every one is fanned out to its sender's
    N-1 peers in that order. reference_impl.fates then replays the words
    fan-out by fan-out, and a fan-out's redraws are the words it takes past
    one drop word per unicast and one latency word per kept copy (the
    document has loss and a latency span above 1)."""
    doc, seed = case
    sc = scenario_from_dict(doc)
    drawn: list[int] = []
    made: list[Message] = []
    stream = simnet.stream

    def recording(words):
        for w in words:
            drawn.append(w)
            yield w

    def network(seed, tag, *key, **first):
        rng = stream(seed, tag, *key, **first)
        if tag == simnet.NETWORK_STREAM:
            rng.words = recording(rng.words)
        return rng

    def making(handler):
        def wrapped(*args):
            out = handler(*args)
            if out is not None:
                made.append(out)
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "stream", network)
        for name in ("on_round_start", "handle_check_request", "handle_response"):
            mp.setattr(simnet, name, making(getattr(simnet, name)))
        run_simulation(sc, seed=seed)
    net = sc.network
    span = net.latency_max - net.latency_min + 1
    n = sc.group_size - 1
    replay = SplitMix64(0)
    replay.words = iter(drawn)
    redraws = {}
    for msg in made:
        left = length_hint(replay.words)
        kept = n - fates(replay, n, net.drop_prob, net.latency_min, span).count(None)
        if type(msg) is ComparisonReport:
            redraws[msg.round, msg.reporter] = left - length_hint(replay.words) - n - kept
    assert length_hint(replay.words) == 0, "every word drawn belongs to a fan-out"
    return redraws


def test_differential_examples_show_their_case():
    def run(case):
        doc, seed = case
        return run_simulation(scenario_from_dict(doc), seed=seed)

    zero = run(ZERO_LATENCY)
    assert zero.counters.delivered > 0 and zero.counters.late > 0
    _, trace = run_traced(scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
    reports = [line for line in trace if line.split()[2] == "REPORT"]
    deadline = ON_THE_DEADLINE[0]["round_deadline"]
    assert reports and all(
        line.endswith(" late=1") and int(line.split()[0]) % deadline == 0 for line in reports
    )
    purged = run(PURGE)
    assert purged.counters.purged > 0 and purged.halt_reason is None
    halted = run(HALT_IN_FLIGHT)
    assert halted.halt_reason is not None and halted.counters.in_flight > 0
    tight, trace = run_traced(scenario_from_dict(TIGHT_DEADLINE[0]), seed=TIGHT_DEADLINE[1])
    deadline = TIGHT_DEADLINE[0]["round_deadline"]
    reports = [line.split() for line in trace if line.split()[2] == "REPORT"]
    landings = Counter(
        "in time" if f[-1] != "late=1" else "on" if int(f[0]) % deadline == 0 else "past"
        for f in reports
    )
    assert min(landings["in time"], landings["on"], landings["past"]) > 0
    assert tight.suspicion.excluded_at and tight.counters.purged > 0
    # A latency word is redrawn in a report fan-out that decides drops only,
    # and in one with a late copy, which takes the full decode.
    doc = DROPS_ONLY[0]
    assert 3 * doc["network"]["latency_max"] < doc["round_deadline"]
    assert sum(_report_redraws(DROPS_ONLY).values()) > 0
    _, trace = run_traced(scenario_from_dict(FULL_DECODE[0]), seed=FULL_DECODE[1])
    late = {
        (int(f[5].removeprefix("cid=")), int(f[3]))
        for f in map(str.split, trace)
        if f[2] == "REPORT" and f[-1] == "late=1"
    }
    redraws = _report_redraws(FULL_DECODE)
    assert any(redraws[key] for key in late)


# Device 2 initiates with EVADE for its colluder 3, whose Trojan fires on
# every odd first operand: each challenge 2 initiates at 3 is rewritten so
# the Trojan stays quiet (test_challenge_examples_show_their_case).
EVADE_TROJAN = (
    {
        "population": 6,
        "group_size": 5,
        "rounds": 30,
        "regroup_period": 3,
        "round_deadline": 10,
        "network": {"latency_min": 1, "latency_max": 4, "drop_prob": 0.1},
        "adversaries": [
            {"device": 2, "initiator_policy": "EVADE", "targets": [3]},
            {
                "device": 3,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 1, "match": 1},
                "payload": {"kind": "COMPLEMENT"},
            },
        ],
    },
    0,
)


def _check_challenges(sc, seed) -> int:
    """Run `sc` untraced and check every challenge against the routine layer.

    Each challenge built must carry `honest == execute(spec, ops)` on its
    final operands, and each device that handles one must keep as its
    reference that output passed through its own fault model. Returns how
    many challenges an initiator rewrote to operands with another honest
    output than the drawn ones.
    """
    built: list[Challenge] = []
    make_challenge = protocol.make_challenge
    handle_check_request = protocol.handle_check_request

    def making(state, round_no, shared_seed):
        ch = make_challenge(state, round_no, shared_seed)
        built.append(ch)
        return ch

    def handling(state, ch):
        out = handle_check_request(state, ch)
        spec, ops = ch.spec, ch.ops
        assert state.reference == apply_fault(state.profile, spec, ops, execute(spec, ops))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "make_challenge", making)
        # The initiator handles its own copy in on_round_start; the engine
        # hands over every delivered one.
        mp.setattr(protocol, "handle_check_request", handling)
        mp.setattr(simnet, "handle_check_request", handling)
        res = run_simulation(sc, seed=seed)
    assert len(built) == res.rounds_executed
    rewritten = 0
    for ch in built:
        assert ch.honest == execute(ch.spec, ch.ops)
        drawn = generate_operands(res.seed, ch.round, ch.checkee, ch.spec)
        rewritten += execute(ch.spec, drawn) != ch.honest
    return rewritten


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(EVADE_TROJAN[0]), seed=EVADE_TROJAN[1])
def test_each_challenge_carries_the_honest_output_of_its_final_operands(sc, seed):
    _check_challenges(sc, seed)


def test_challenge_examples_show_their_case():
    assert _check_challenges(scenario_from_dict(EVADE_TROJAN[0]), EVADE_TROJAN[1]) > 0


@pytest.mark.parametrize(
    "doc, seed, traced",
    [
        pytest.param(EVADE_TROJAN[0], EVADE_TROJAN[1], True, id="evade_traced"),
        pytest.param(EVADE_TROJAN[0], EVADE_TROJAN[1], False, id="evade_untraced"),
        pytest.param(PURGE[0], PURGE[1], False, id="purge_untraced"),
        pytest.param(HALT_IN_FLIGHT[0], HALT_IN_FLIGHT[1], False, id="halt_untraced"),
    ],
)
def test_the_engine_runs_each_challenges_routine_once(doc, seed, traced):
    """The routine is pure, so the initiator runs it once per challenge and
    every receiver passes that output through its own fault model."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "execute", counting("execute", protocol.execute))
        mp.setattr(protocol, "make_challenge", counting("built", protocol.make_challenge))
        trace = io.StringIO() if traced else None
        res = run_simulation(scenario_from_dict(doc), seed=seed, trace=trace)
    assert calls["execute"] == calls["built"] == res.rounds_executed > 0
