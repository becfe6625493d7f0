"""The tally-level round kernel against the event engine.

Runs with no trace sink, no loss and 3 * latency_max below the round
deadline take the kernel; a run given a trace stream always takes the event
engine. The kernel gives each checkee position of a group one of three
classes: FULL (the full tally), TRIGGER (a Trojan checkee, quiet unless its
trigger fires) and FREE (quiet). By the paper's framing bound, up to
floor((N-1)/2) dissenting checkers cannot flag a checkee whose answer is
honest, so a quiet round ends TRUSTED and is folded in bulk without its
tally.

A Hypothesis differential test generates lossless scenarios at the edge of
the kernel's regime and checks that both paths produce the same report
bytes and fold the same (issuer, verdict) pairs into their stats: exactly
for the rounds the kernel tallies, and on (issuer, round, checkee, outcome)
for its bulk rounds. Fold order legitimately differs: the engine folds
verdicts as tallies complete, the kernel a round's verdict for all members
at once and a group epoch's quiet rounds in bulk. A second Hypothesis test
checks the classes on single rounds: whenever a round is quiet, the full
tally ends TRUSTED and every RANDOM checker's stream ends one word on,
where the full tally leaves it. A third differential pins the classifier
at the bound itself, for each kind of dissenter and N in 3..7.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.routines as routines
import collabtrust.simnet as simnet
from collabtrust.adversary import (
    AdversaryProfile,
    Opinion,
    ReportingKind,
    distort_opinion,
    is_special,
)
from collabtrust.report import emit_report
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import NetworkModel, latency_free, report_stream, run_simulation
from collabtrust.verdict import (
    Outcome,
    default_quorum,
    framing_bound,
    lossless_verdicts,
    verdict_table,
)
from reference_impl import detection_stats
from verdict_log import folded, kernel_view, run_logged

MASKS = (0, 1, 3, 0x0F, 0x81)


@st.composite
def adversary_docs(draw, device: int, population: int) -> dict:
    others = [d for d in range(population) if d != device]
    doc: dict = {"device": device}
    fault = draw(st.sampled_from(("HONEST", "ALWAYS_WRONG", "TROJAN")))
    doc["fault"] = fault
    if fault == "TROJAN":
        mask = draw(st.sampled_from(MASKS))
        doc["trigger"] = {
            "index": draw(st.integers(0, 1)),
            "mask": mask,
            "match": draw(st.integers(0, 255)) & mask,
        }
        payload = draw(st.sampled_from(("XOR", "CONST", "COMPLEMENT")))
        doc["payload"] = {"kind": payload}
        if payload == "XOR":
            doc["payload"]["value"] = draw(st.integers(0, 255))
        elif payload == "CONST":
            # 0 and 1 are every CMP routine's outputs: a fired Trojan that
            # writes the honest output must not count as a disagreement.
            doc["payload"]["value"] = draw(st.sampled_from((0, 1)) | st.integers(0, 255))
    reporting = draw(st.sampled_from(("HONEST", "FRAME", "SHIELD", "RANDOM")))
    doc["reporting"] = reporting
    if reporting == "RANDOM":
        doc["p"] = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)) | st.floats(0.0, 1.0))
    policy = draw(st.sampled_from(("HONEST", "EVADE")))
    doc["initiator_policy"] = policy
    if reporting in ("FRAME", "SHIELD") or policy == "EVADE":
        doc["targets"] = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
    return doc


ATOMIC = ("ADD", "MUL", "CMP")


@st.composite
def routine_docs(draw, routine_id: int) -> dict:
    """A routine of any width; composites take up to 4 operands."""
    doc = {"id": routine_id, "width": draw(st.sampled_from((8, 16, 32)))}
    if draw(st.booleans()):
        doc["kind"] = draw(st.sampled_from(ATOMIC))
    else:
        doc["kind"] = "COMPOSITE"
        doc["steps"] = draw(st.lists(st.sampled_from(ATOMIC), min_size=1, max_size=3))
    return doc


@st.composite
def lossless_scenarios(draw, min_adversaries: int = 0) -> Scenario:
    group_size = draw(st.integers(3, 9))
    population = group_size + draw(st.integers(0, 3))
    latency_max = draw(st.integers(0, 4))
    # Overrides of the built-in ids 0..4 and additions past them. Trigger
    # masks and payloads fit in 8 bits and every routine takes at least two
    # operands, so any table passes the load-time trigger checks.
    routine_ids = draw(st.lists(st.integers(0, 7), max_size=5, unique=True))
    corrupt = draw(
        st.lists(st.integers(0, population - 1), min_size=min_adversaries, max_size=4, unique=True)
    )
    doc = {
        "population": population,
        "group_size": group_size,
        "rounds": draw(st.integers(1, 30)),
        "regroup_period": draw(st.integers(1, 8)),
        "quorum": draw(st.integers(1, group_size - 1)),
        "flag_threshold": draw(st.integers(1, 3)),
        "round_deadline": 3 * latency_max + draw(st.integers(1, 3)),
        "network": {
            "latency_min": draw(st.integers(0, latency_max)),
            "latency_max": latency_max,
            "drop_prob": 0.0,
        },
        "routines": [draw(routine_docs(i)) for i in routine_ids],
        "adversaries": [draw(adversary_docs(d, population)) for d in corrupt],
    }
    return scenario_from_dict(doc)


def _reports(sc: Scenario, res) -> tuple[bytes, bytes]:
    report = folded(sc, res)
    return emit_report(report, "json"), emit_report(report, "csv")


# A Trojan that always fires and writes 1 into CMP routines of every width:
# rounds where 1 is also the honest output must tally as agreement. It is
# excluded on its second flag, and the regroups of the 6 devices left have
# no special member.
CONST_TROJAN = scenario_from_dict(
    {
        "population": 7,
        "group_size": 5,
        "rounds": 40,
        "flag_threshold": 2,
        "routines": [
            {"id": i, "kind": "CMP", "width": w} for i, w in enumerate((8, 16, 32, 8, 16))
        ],
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 0, "match": 0},
                "payload": {"kind": "CONST", "value": 1},
            }
        ],
    }
)


# Device 2's only deviation is its EVADE initiator policy: whenever it
# initiates a round that checks its Trojan colluder, it rewrites the operands
# so the trigger (firing on every other challenge) stays quiet.
PURE_EVADER = scenario_from_dict(
    {
        "rounds": 40,
        "flag_threshold": 40,
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 1, "match": 1},
                "payload": {"kind": "COMPLEMENT"},
            },
            {"device": 2, "initiator_policy": "EVADE", "targets": [1]},
        ],
    }
)


# Device 2 evades for its colluder 1 by writing 0b10 into operand 0's low
# bits, which fires device 3's trigger. At seed 1, round 1 (checkee 1,
# initiator 2 in group order 0..4) has low bits 0b01, which fire neither.
TWO_TROJAN_EVADER = scenario_from_dict(
    {
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 3},
                "payload": {"kind": "COMPLEMENT"},
            },
            {
                "device": 3,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 3, "match": 2},
                "payload": {"kind": "COMPLEMENT"},
            },
            {"device": 2, "initiator_policy": "EVADE", "targets": [1]},
        ],
    }
)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sc=lossless_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=CONST_TROJAN, seed=0)
@example(sc=PURE_EVADER, seed=0)
def test_kernel_matches_engine(sc, seed):
    assert latency_free(sc)
    engine, engine_verdicts = run_logged(sc, seed=seed, trace=io.StringIO())
    kernel, kernel_verdicts = run_logged(sc, seed=seed)
    assert _reports(sc, kernel) == _reports(sc, engine)
    # Verdicts folded one by one equal the engine's, tally included; bulk
    # rounds match on (issuer, round, checkee, outcome).
    got, expected = kernel_view(kernel_verdicts, engine_verdicts)
    assert got == expected
    # The kernel folds each round once for all members; the reference folds per issuer.
    assert kernel.stats == engine.stats == detection_stats(kernel_verdicts, sc.adversary_map)
    assert (kernel.rounds_executed, kernel.halt_reason) == (engine.rounds_executed, engine.halt_reason)


def _special_devices(sc: Scenario) -> list[int]:
    """The devices that can make a round differ from an all-honest one, in id order."""
    return sorted(d for d, p in sc.adversary_map.items() if is_special(p))


@st.composite
def kernel_rounds(draw) -> tuple[Scenario, tuple[int, ...], int, int]:
    """A scenario, a group of it that holds every special device, a round and a seed."""
    sc = draw(lossless_scenarios(min_adversaries=1))
    specials = _special_devices(sc)
    plain = [d for d in range(sc.population) if d not in specials]
    members = (specials + plain)[: sc.group_size]
    order = tuple(draw(st.permutations(members)))
    return sc, order, draw(st.integers(0, 2**20)), draw(st.integers(0, 2**64 - 1))


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=kernel_rounds())
# The Trojan always fires: loud while device 1 is in the group, quiet once it is not.
@example(case=(CONST_TROJAN, (0, 1, 2, 3, 4), 0, 0))
@example(case=(CONST_TROJAN, (6, 0, 2, 3, 4), 7, 0))
# Round 1 checks the Trojan colluder 1 and device 2 initiates it: the evader matters.
@example(case=(PURE_EVADER, (0, 1, 2, 3, 4), 1, 0))
@example(case=(PURE_EVADER, (0, 1, 2, 3, 4), 3, 0))
@example(case=(TWO_TROJAN_EVADER, (0, 1, 2, 3, 4), 1, 1))
def test_quiet_rounds_end_in_the_unanimous_verdict(case):
    sc, members, r, seed = case
    n = len(members)
    pos = r % n
    spec = sc.routine_order[r % len(sc.routine_order)]
    layout = tuple((i, m) for i, m in enumerate(members) if m in sc.layout_devices)
    classes = simnet._classify(sc, layout)
    position = classes.positions[pos]
    # The group's RANDOM reporters on fresh streams; no other member has one.
    shortcut = {m: report_stream(seed, m) for m in classes.randoms}
    full = {m: report_stream(seed, m) for m in classes.randoms}
    quiet = simnet._quiet_round(position, seed, r, members[pos], spec, shortcut)
    v = simnet._tally_round(sc, members, classes.specials, full, r, spec, seed)
    if quiet:
        assert position.kind is not simnet.PositionClass.FULL
        assert v.outcome is Outcome.TRUSTED
        # Each RANDOM checker's stream is exactly one word on, as the full round left it.
        for m in classes.randoms:
            step = report_stream(seed, m)
            if m in position.randoms:
                step.next_u64()
            assert shortcut[m].next_u64() == full[m].next_u64() == step.next_u64()
    else:
        # A loud round draws nothing before _tally_round does.
        for m in classes.randoms:
            assert shortcut[m].next_u64() == report_stream(seed, m).next_u64()


def _engine_runs(monkeypatch, sc: Scenario, trace: io.StringIO | None) -> int:
    """How many times one run enters the event engine (asserting it took one path)."""
    calls = Counter()
    for name in ("_run_events", "_run_tally"):
        path = getattr(simnet, name)

        def counted(*args, _path=path, _name=name):
            calls[_name] += 1
            return _path(*args)

        monkeypatch.setattr(simnet, name, counted)
    run_simulation(sc, seed=3, trace=trace)
    monkeypatch.undo()
    assert calls["_run_events"] + calls["_run_tally"] == 1
    return calls["_run_events"]


def test_only_latency_free_untraced_runs_take_the_kernel(monkeypatch):
    inside = Scenario(rounds=5, round_deadline=10, network=NetworkModel(latency_max=3))
    assert _engine_runs(monkeypatch, inside, trace=None) == 0
    assert _engine_runs(monkeypatch, inside, trace=io.StringIO()) == 1
    lossy = Scenario(rounds=5, network=NetworkModel(drop_prob=0.1))
    tight = Scenario(rounds=5, round_deadline=9, network=NetworkModel(latency_max=3))
    for sc in (lossy, tight):
        assert not latency_free(sc)
        assert _engine_runs(monkeypatch, sc, trace=None) == 1


def test_report_streams_independent_across_devices_and_seeds():
    # With seed ^ device, device 1 at seed 0 replayed device 0 at seed 1.
    random = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=0.5)
    a, b = report_stream(0, 1), report_stream(1, 0)
    flips_a = [distort_opinion(random, Opinion.AGREE, 2, a) for _ in range(48)]
    flips_b = [distort_opinion(random, Opinion.AGREE, 2, b) for _ in range(48)]
    assert flips_a != flips_b


def _flip_rate(sc: Scenario, reps: int, trace: bool) -> tuple[int, int]:
    """(flips, chances) over `reps` runs of a scenario whose only deviants are RANDOM reporters.

    All hardware is honest, so every DISAGREE in a tally is a flip, and each
    RANDOM reporter other than the checkee has one chance per round.
    """
    randoms = set(_special_devices(sc))
    chances = flips = 0
    for rep in range(reps):
        _, verdicts = run_logged(sc, seed=1000 + rep, trace=io.StringIO() if trace else None)
        per_round = {v.round: v for issuer, v in verdicts}
        for v in per_round.values():
            chances += len(randoms - {v.checkee})
            flips += v.tally.disagree
    return flips, chances


def test_random_reporter_flip_rate_end_to_end():
    p = 0.3
    random = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=p)
    # One RANDOM reporter is within the framing bound, so the kernel folds
    # its rounds in bulk without tallies: count on the engine.
    within = Scenario(rounds=50, adversaries=((1, random),))
    # Four of five are over it: every round is FULL and the kernel's
    # tallies are exact.
    over = Scenario(
        rounds=50, flag_threshold=50, adversaries=tuple((d, random) for d in (1, 2, 3, 4))
    )
    layout = tuple((i, i) for i in (1, 2, 3, 4))
    assert all(c.kind is simnet.PositionClass.FULL for c in simnet._classify(over, layout).positions)
    for sc, trace, reps in ((within, True, 40), (over, False, 10)):
        flips, chances = _flip_rate(sc, reps, trace)
        sigma = (p * (1 - p) / chances) ** 0.5
        assert abs(flips / chances - p) <= 3 * sigma, (flips, chances)


# Each kind of member that can dissent about an honest checkee, by the
# devices it holds: 1..k of a group that also holds device 0.
DISSENTERS = {
    "FRAME": {"reporting": "FRAME", "targets": [0]},
    "RANDOM": {"reporting": "RANDOM", "p": 1.0},
    "ALWAYS_WRONG": {"fault": "ALWAYS_WRONG"},
    "TROJAN": {
        "fault": "TROJAN",
        "trigger": {"index": 0, "mask": 0, "match": 0},
        "payload": {"kind": "COMPLEMENT"},
    },
}


def test_kernel_matches_engine_at_the_framing_bound():
    # floor((N-1)/2) dissenters cannot flag an honest checkee; one more can.
    for n in range(3, 8):
        bound = framing_bound(lossless_verdicts(verdict_table(n, default_quorum(n - 1))))
        for kind, doc in DISSENTERS.items():
            for k in (bound, bound + 1):
                sc = scenario_from_dict(
                    {
                        "population": n,
                        "group_size": n,
                        "rounds": 12,
                        "regroup_period": 3,
                        "flag_threshold": 12,
                        "adversaries": [dict(doc, device=d) for d in range(1, k + 1)],
                    }
                )
                # Device 0 is honest and every dissenter can dissent about it.
                layout = tuple((d, d) for d in range(1, k + 1))
                if kind == "FRAME":
                    layout = ((0, 0),) + layout  # device 0 is a FRAME target
                position = simnet._classify(sc, layout).positions[0]
                expected = simnet.PositionClass.FREE if k == bound else simnet.PositionClass.FULL
                assert position.kind is expected, (n, kind, k)
                for seed in range(3):
                    engine = run_simulation(sc, seed=seed, trace=io.StringIO())
                    kernel = run_simulation(sc, seed=seed)
                    assert _reports(sc, kernel) == _reports(sc, engine), (n, kind, k, seed)


def test_operand_key_memo_stays_bounded():
    # 20,000 rounds ask for 20,000 distinct (round, checkee, routine) keys.
    run_simulation(Scenario(rounds=20_000, regroup_period=1_000))
    info = routines._operand_key.cache_info()
    assert info.maxsize == routines.OPERAND_KEY_CACHE <= 4096
    assert info.currsize <= info.maxsize


def test_layout_memo_stays_bounded():
    # 3,000 FRAME reporters among 100,000 devices, regrouped every round:
    # thousands of groups hold one, each at its own (position, device) layout.
    sc = scenario_from_dict(
        {
            "population": 100_000,
            "group_size": 5,
            "rounds": 20_000,
            "regroup_period": 1,
            "adversaries": [
                {"device": d, "reporting": "FRAME", "targets": [d + 1]} for d in range(0, 6_000, 2)
            ],
        }
    )
    run_simulation(sc)
    # The memo fills up to its cap and no further.
    assert len(sc.layout_classes) == simnet.LAYOUT_MEMO <= 4096


def _count_report_streams(monkeypatch, sc: Scenario, engine: bool) -> tuple[Counter, set[int]]:
    """The report streams one run derives, per device, and the devices of its groups.

    A trace sink sends the run through the event engine; without one it takes the kernel.
    """
    streams: Counter = Counter()
    drawn: set[int] = set()

    def counted_stream(seed, device):
        streams[device] += 1
        return report_stream(seed, device)

    def recorded_draw(*args, _draw=simnet.draw_group):
        members = _draw(*args)
        drawn.update(members)
        return members

    monkeypatch.setattr(simnet, "report_stream", counted_stream)
    monkeypatch.setattr(simnet, "draw_group", recorded_draw)
    run_simulation(sc, seed=0, trace=io.StringIO() if engine else None)
    monkeypatch.undo()
    return streams, drawn


@pytest.mark.parametrize("engine", [False, True], ids=["kernel", "engine"])
def test_no_report_stream_for_frame_reporters(monkeypatch, engine):
    # FRAME reporters never draw from a report stream.
    sc = scenario_from_dict(
        {
            "population": 100_000,
            "group_size": 5,
            "rounds": 10,
            "adversaries": [
                {"device": d, "reporting": "FRAME", "targets": [d + 1]} for d in range(0, 6_000, 2)
            ],
        }
    )
    streams, _ = _count_report_streams(monkeypatch, sc, engine)
    assert sum(streams.values()) == 0


@pytest.mark.parametrize("engine", [False, True], ids=["kernel", "engine"])
def test_one_report_stream_per_random_reporter_drawn(monkeypatch, engine):
    # Half the devices are RANDOM reporters that never flip; only those the
    # run's groups hold get a stream, once each however often they return.
    randoms = range(0, 40, 2)
    sc = scenario_from_dict(
        {
            "population": 40,
            "group_size": 5,
            "rounds": 15,
            "regroup_period": 3,
            "adversaries": [{"device": d, "reporting": "RANDOM", "p": 0.0} for d in randoms],
        }
    )
    streams, drawn = _count_report_streams(monkeypatch, sc, engine)
    expected = drawn.intersection(randoms)
    assert len(expected) < len(randoms)
    assert streams == Counter(dict.fromkeys(expected, 1))
