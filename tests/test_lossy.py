"""Hypothesis properties of the event engine over lossy, tight-deadline runs.

These runs never take the tally kernel: every one has loss, and many have a
deadline the challenge -> response -> report chain can overrun, so reports go
missing, arrive late or are still in flight when the run ends. Scenarios
reuse the adversary strategy of `test_kernel.py`. Untraced, the engine
settles each report that lands before its round's deadline when it is sent;
traced, every delivery is its own event. Both must end the same.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.simnet as simnet
from collabtrust.report import emit_report
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import latency_free, run_simulation
from collabtrust.verdict import Outcome
from test_kernel import adversary_docs
from verdict_log import folded, run_logged, run_traced, trace_lines

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
    assert emit_report(folded(sc, first), "json") == emit_report(folded(sc, second), "json")


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
    current round, between current group members, and not a duplicate."""
    calls: Counter = Counter()

    def on_challenge(state, ch):
        assert ch.round == state.round and state.challenge is None
        assert state.id in state.members and state.id != ch.initiator
        calls["challenge"] += 1
        return challenge_handler(state, ch)

    def on_response(state, r):
        assert r.round == state.round
        assert r.responder == state.checkee != state.id
        assert state.id not in state.opinions
        calls["response"] += 1
        return response_handler(state, r)

    def on_report(state, rep):
        assert rep.round == state.round and rep.checkee == state.checkee
        assert rep.reporter in state.members
        assert rep.reporter not in (state.checkee, state.id)
        assert rep.reporter not in state.opinions
        calls["report"] += 1
        return report_handler(state, rep)

    challenge_handler = simnet.handle_check_request
    response_handler = simnet.handle_response
    report_handler = simnet.handle_report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "handle_check_request", on_challenge)
        mp.setattr(simnet, "handle_response", on_response)
        mp.setattr(simnet, "handle_report", on_report)
        res = run_simulation(sc, seed=seed)
    # Every delivered message reached exactly one handler.
    assert sum(calls.values()) == res.counters.delivered


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


@SETTINGS
@given(sc=lossy_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=scenario_from_dict(ZERO_LATENCY[0]), seed=ZERO_LATENCY[1])
@example(sc=scenario_from_dict(ON_THE_DEADLINE[0]), seed=ON_THE_DEADLINE[1])
@example(sc=scenario_from_dict(PURGE[0]), seed=PURGE[1])
@example(sc=scenario_from_dict(HALT_IN_FLIGHT[0]), seed=HALT_IN_FLIGHT[1])
def test_untraced_engine_equals_traced_engine(sc, seed):
    untraced = run_simulation(sc, seed=seed)
    traced, _ = run_traced(sc, seed=seed)
    assert untraced.stats == traced.stats
    assert untraced.counters == traced.counters
    assert dict(untraced.energy.usage) == dict(traced.energy.usage)
    assert untraced.suspicion == traced.suspicion
    assert untraced.rounds_executed == traced.rounds_executed
    assert untraced.halt_reason == traced.halt_reason


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
