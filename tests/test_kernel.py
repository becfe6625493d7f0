"""The tally-level round kernel against the round walk (the "engine").

Runs with no loss and 3 * latency_max below the round deadline take the
kernel, traced or not; the tests force the round walk with
verdict_log.forced_engine to compare the two. The kernel gives each
checkee position of a group one of three classes: FULL (the full tally),
TRIGGER (a Trojan checkee, quiet unless its trigger fires) and FREE
(quiet). By the paper's framing bound, up to floor((N-1)/2) dissenting
checkers cannot flag a checkee whose answer is honest, so a quiet round
ends TRUSTED and is folded in bulk without its tally.

A Hypothesis differential test generates lossless scenarios at the edge of
the kernel's regime and checks that both paths produce the same report
bytes and fold the same (issuer, verdict) pairs into their stats: exactly
for the rounds the kernel tallies, and on (issuer, round, checkee, outcome)
for its bulk rounds. Fold order legitimately differs: the engine folds
verdicts as tallies complete, the kernel a round's verdict for all members
at once and a group epoch's quiet rounds in bulk. Another checks that a
traced kernel run writes the engine's trace and reports, byte for byte. A
third Hypothesis test checks the classes on single rounds: whenever a
round is quiet, the full tally ends TRUSTED and every RANDOM checker's
stream ends one word on, where the full tally leaves it. A further
differential pins the classifier at the bound itself, for each kind of
dissenter and N in 3..7, and a fixed sweep of epoch shapes checks the
kernel's closed-form charges.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.cli as cli
import collabtrust.rng as rng
import collabtrust.routines as routines
import collabtrust.simnet as simnet
from collabtrust.adversary import (
    AdversaryProfile,
    Opinion,
    ReportingKind,
    distort_opinion,
    is_special,
)
from collabtrust.rng import LANES, stream
from collabtrust.scenario import Scenario, load_scenario, scenario_from_dict
from collabtrust.simnet import NetworkModel, latency_free, report_stream, run_simulation
from collabtrust.verdict import (
    Outcome,
    default_quorum,
    framing_bound,
    lossless_verdicts,
    verdict_table,
)
from golden import INLINE_SCENARIOS
from reference_impl import detection_stats
from verdict_log import emitted, folded, forced_engine, kernel_view, run_engine, run_logged

MASKS = (0, 1, 3, 0x0F, 0x81)


@st.composite
def adversary_docs(draw, device: int, population: int, max_index: int = 1) -> dict:
    """An adversary entry; a Trojan's trigger reads an operand index up to `max_index`."""
    others = [d for d in range(population) if d != device]
    doc: dict = {"device": device}
    fault = draw(st.sampled_from(("HONEST", "ALWAYS_WRONG", "TROJAN")))
    doc["fault"] = fault
    if fault == "TROJAN":
        mask = draw(st.sampled_from(MASKS))
        doc["trigger"] = {
            "index": draw(st.integers(0, max_index)),
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
    # Overrides of the built-in ids 0..4 and additions past them, drawn
    # first: a trigger reads an operand index up to the narrowest routine's
    # arity - 1 and its masks and payloads fit in 8 bits, so any table
    # passes the load-time trigger checks.
    routine_ids = draw(st.lists(st.integers(0, 7), max_size=5, unique=True))
    routines = [draw(routine_docs(i)) for i in routine_ids]
    table = scenario_from_dict({"routines": routines}).routine_order
    max_index = min(spec.arity for spec in table) - 1
    corrupt = draw(
        st.lists(st.integers(0, population - 1), min_size=min_adversaries, max_size=4, unique=True)
    )
    doc = {
        "population": population,
        "group_size": group_size,
        "rounds": draw(st.integers(1, 30)),
        # Epochs up to 3n rounds long, in which a loud spot recurs.
        "regroup_period": draw(st.integers(1, 3 * group_size)),
        "quorum": draw(st.integers(1, group_size - 1)),
        "flag_threshold": draw(st.integers(1, 3)),
        "round_deadline": 3 * latency_max + draw(st.integers(1, 3)),
        "network": {
            "latency_min": draw(st.integers(0, latency_max)),
            "latency_max": latency_max,
            "drop_prob": 0.0,
        },
        "routines": routines,
        "adversaries": [draw(adversary_docs(d, population, max_index)) for d in corrupt],
    }
    return scenario_from_dict(doc)


def _reports(sc: Scenario, *results) -> tuple[bytes, bytes]:
    report = folded(sc, *results)
    return emitted(report, "json"), emitted(report, "csv")


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


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COLLUDING_FRAMING, ALWAYS_WRONG, HONEST, TROJAN = (
    load_scenario(str(SCENARIOS / f"{name}.json"))
    for name in ("colluding_framing", "five_device_always_wrong", "five_device_honest", "five_device_trojan")
)

# The documents of the CI workflow's kernel-against-engine steps. In a group
# of 7, three FRAME liars against device 0 cannot flag it (the bound) and
# four can; a Trojan rides along in both.
_TROJAN_6 = {
    "device": 6,
    "fault": "TROJAN",
    "trigger": {"index": 0, "mask": 1, "match": 1},
    "payload": {"kind": "COMPLEMENT"},
}
AT_BOUND, OVER_BOUND = (
    scenario_from_dict(
        {
            "population": 7,
            "group_size": 7,
            "rounds": 60,
            "repetitions": 20,
            "flag_threshold": 3,
            "adversaries": [
                *({"device": d, "reporting": "FRAME", "targets": [0]} for d in range(1, 1 + liars)),
                _TROJAN_6,
            ],
        }
    )
    for liars in (3, 4)
)
# Devices 1 and 4 flip opinions from their own report streams, and device 2
# rewrites the challenges it initiates so its colluder's Trojan stays quiet.
RANDOM_EVADE = scenario_from_dict(
    {
        "population": 7,
        "group_size": 5,
        "rounds": 40,
        "repetitions": 20,
        "flag_threshold": 3,
        "adversaries": [
            {"device": 1, "reporting": "RANDOM", "p": 0.3},
            {"device": 4, "reporting": "RANDOM", "p": 0.3},
            {"device": 2, "initiator_policy": "EVADE", "targets": [3]},
            {
                "device": 3,
                "fault": "TROJAN",
                "trigger": {"index": 0, "mask": 1, "match": 1},
                "payload": {"kind": "COMPLEMENT"},
            },
        ],
    }
)
# Epochs off the aligned phase: a regroup period of 7 over groups of 5 and 7
# routines, and an ALWAYS_WRONG device excluded on its first flag, so groups
# are also redrawn in the middle of a period.
OFF_PHASE_DOC = {
    "population": 9,
    "group_size": 5,
    "rounds": 60,
    "regroup_period": 7,
    "repetitions": 20,
    "flag_threshold": 1,
    "routines": [
        {"id": 5, "kind": "ADD", "width": 16},
        {"id": 6, "kind": "COMPOSITE", "steps": ["MUL", "ADD"]},
    ],
    "adversaries": [
        {"device": 2, "fault": "ALWAYS_WRONG"},
        {
            "device": 5,
            "fault": "TROJAN",
            "trigger": {"index": 0, "mask": 3, "match": 1},
            "payload": {"kind": "COMPLEMENT"},
        },
    ],
}
OFF_PHASE = scenario_from_dict(OFF_PHASE_DOC)
# The kernel visits each loud spot every n rounds of an epoch. Each of these
# has epochs longer than its groups, so a spot recurs within one. A Trojan
# whose trigger reads operand 2 of routines of 3 operands and more: the
# built-in ids 0..2 take 2, so they are overridden.
_THREE_OPERANDS = [
    {"id": i, "kind": "COMPOSITE", "steps": steps}
    for i, steps in enumerate((["ADD", "MUL"], ["MUL", "CMP"], ["CMP", "ADD"]))
]
OPERAND_2 = scenario_from_dict(
    {
        "rounds": 40,
        "regroup_period": 8,
        "flag_threshold": 40,
        "routines": _THREE_OPERANDS,
        "adversaries": [
            {
                "device": 1,
                "fault": "TROJAN",
                "trigger": {"index": 2, "mask": 3, "match": 1},
                "payload": {"kind": "COMPLEMENT"},
            }
        ],
    }
)
# Regrouped every 11 rounds, above 2 * 5: a spot recurs twice in an epoch.
LONG_EPOCH = scenario_from_dict(
    {"rounds": 44, "regroup_period": 11, "flag_threshold": 44, "adversaries": [_TROJAN_6 | {"device": 1}]}
)
# The CI workflow's recurring-spots document: all three shapes at once. Two
# Trojans and an ALWAYS_WRONG device in a group of 7 make three spots,
# merged in round order, over epochs of 15 rounds; the ALWAYS_WRONG device
# is excluded on its third flag.
RECURRING_SPOTS_DOC = {
    "population": 8,
    "group_size": 7,
    "rounds": 60,
    "regroup_period": 15,
    "repetitions": 20,
    "flag_threshold": 3,
    "routines": _THREE_OPERANDS,
    "adversaries": [
        {
            "device": 1,
            "fault": "TROJAN",
            "trigger": {"index": 2, "mask": 3, "match": 1},
            "payload": {"kind": "XOR", "value": 1},
        },
        {"device": 2, "fault": "ALWAYS_WRONG"},
        _TROJAN_6 | {"device": 3},
    ],
}
RECURRING_SPOTS = scenario_from_dict(RECURRING_SPOTS_DOC)


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
# Each shipped scenario at its own seed and at the other seed CI runs it at,
# and the CI documents: their tallies, which the CI steps' reports do not hold.
@example(sc=COLLUDING_FRAMING, seed=COLLUDING_FRAMING.seed)
@example(sc=COLLUDING_FRAMING, seed=20261018)
@example(sc=ALWAYS_WRONG, seed=ALWAYS_WRONG.seed)
@example(sc=ALWAYS_WRONG, seed=20261018)
@example(sc=HONEST, seed=HONEST.seed)
@example(sc=HONEST, seed=20261018)
@example(sc=TROJAN, seed=TROJAN.seed)
@example(sc=TROJAN, seed=20261018)
@example(sc=AT_BOUND, seed=AT_BOUND.seed)
@example(sc=OVER_BOUND, seed=OVER_BOUND.seed)
@example(sc=RANDOM_EVADE, seed=RANDOM_EVADE.seed)
@example(sc=OFF_PHASE, seed=1)
@example(sc=OFF_PHASE, seed=2)
@example(sc=OPERAND_2, seed=1)
@example(sc=LONG_EPOCH, seed=1)
@example(sc=RECURRING_SPOTS, seed=1)
def test_kernel_matches_engine(sc, seed):
    assert latency_free(sc)
    engine, engine_verdicts = run_logged(sc, seed=seed, trace=io.StringIO(), engine=True)
    kernel, kernel_verdicts = run_logged(sc, seed=seed)
    assert _reports(sc, kernel) == _reports(sc, engine)
    # Verdicts folded one by one equal the engine's, tally included; bulk
    # rounds match on (issuer, round, checkee, outcome).
    got, expected = kernel_view(kernel_verdicts, engine_verdicts)
    assert got == expected
    # The kernel folds each round once for all members; the reference folds per issuer.
    assert kernel.stats == engine.stats == detection_stats(kernel_verdicts, sc.adversary_map)
    assert (kernel.rounds_executed, kernel.halt_reason) == (engine.rounds_executed, engine.halt_reason)


# Traces only the kernel's renderer and the forced engine write. Latency
# 0..3 in groups of 3: a checker whose own opinion forms after the one
# report it hears concludes at the deadline timer, four times at seed 0.
DEADLINE_VERDICTS = scenario_from_dict(
    {
        "population": 3,
        "group_size": 3,
        "rounds": 20,
        "round_deadline": 10,
        "network": {"latency_min": 0, "latency_max": 3},
    }
)
# A fixed latency draws no latency word, so every copy of a fan-out lands
# on one tick; a RANDOM reporter and a Trojan ride along.
FIXED_LATENCY = scenario_from_dict(
    {
        "population": 6,
        "group_size": 5,
        "rounds": 15,
        "network": {"latency_min": 2, "latency_max": 2},
        "adversaries": [
            {"device": 1, "reporting": "RANDOM", "p": 0.3},
            _TROJAN_6 | {"device": 2, "trigger": {"index": 0, "mask": 0, "match": 0}},
        ],
    }
)
# Every device is in every group, so excluding the ALWAYS_WRONG one halts the run.
HALTS = scenario_from_dict(
    {
        "population": 5,
        "group_size": 5,
        "rounds": 20,
        "flag_threshold": 1,
        "adversaries": [{"device": 2, "fault": "ALWAYS_WRONG"}],
    }
)
# A latency span of 2**63 + 1 redraws about half the latency words.
WIDE_SPAN = scenario_from_dict(
    {
        "population": 6,
        "group_size": 5,
        "rounds": 12,
        "regroup_period": 3,
        "round_deadline": 3 * 2**63 + 1,
        "network": {"latency_min": 0, "latency_max": 2**63},
        "adversaries": [{"device": 2, "fault": "ALWAYS_WRONG"}],
    }
)
# Three repetitions, so the trace has a REP header before each run.
REPETITIONS_RANDOM_EVADE = scenario_from_dict(INLINE_SCENARIOS["repetitions_random_evade"])


def _traced_run(sc: Scenario, seed: int, engine: bool) -> tuple[str, bytes, bytes]:
    """What `collabtrust run --trace` writes for all repetitions: trace, JSON and CSV report."""
    sink = io.StringIO()
    with forced_engine() if engine else nullcontext():
        report = cli._fold_runs(sc, seed, range(sc.repetitions), sink)
    return sink.getvalue(), emitted(report, "json"), emitted(report, "csv")


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sc=lossless_scenarios(), seed=st.integers(0, 2**64 - 1))
@example(sc=DEADLINE_VERDICTS, seed=0)
@example(sc=FIXED_LATENCY, seed=1)
@example(sc=HALTS, seed=1)
@example(sc=WIDE_SPAN, seed=1)
@example(sc=REPETITIONS_RANDOM_EVADE, seed=1)
def test_kernel_trace_matches_engine(sc, seed):
    assert latency_free(sc)
    assert _traced_run(sc, seed, engine=False) == _traced_run(sc, seed, engine=True)


def test_trace_examples_show_their_case():
    lines = _traced_run(DEADLINE_VERDICTS, 0, engine=False)[0].splitlines()
    # A timer's seq is below 2 * rounds, a message's at or above it.
    at_deadline = [f for f in map(str.split, lines) if f[2] == "VERDICT" and int(f[1]) < 40]
    assert len(at_deadline) == 4 and all(int(f[1]) % 2 for f in at_deadline)
    net = FIXED_LATENCY.network
    assert net.latency_min == net.latency_max
    assert run_simulation(HALTS, seed=1).halt_reason is not None
    trace = _traced_run(REPETITIONS_RANDOM_EVADE, 1, engine=False)[0]
    assert [line for line in trace.splitlines() if line.startswith("REP ")] == [
        f"REP {k} seed={1 + k}" for k in range(3)
    ]


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
    checkee = members[pos]
    spec = sc.routine_order[r % len(sc.routine_order)]
    key = tuple(map(sc.plan.marker, members))
    specials, spots, randoms = simnet._classify(sc.adversary_map, sc.plan.bound, key)
    # The kernel's rule: a FULL spot (None) is loud, a FREE position quiet,
    # and a TRIGGER spot quiet unless the one word its trigger reads fires.
    trigger = spots.get(pos, simnet.FREE)
    quiet = trigger is not None and (
        not trigger
        or routines.operand_word(seed, r, checkee, spec, trigger[0]) & trigger[1] != trigger[2]
    )
    # The group's RANDOM reporters on fresh streams; no other member has one.
    full = {m: report_stream(seed, m) for m in randoms}
    v = simnet._tally_round(sc, members, specials, full, r, spec, seed)[0]
    if quiet:
        assert v.outcome is Outcome.TRUSTED
    # The full tally draws one word from each RANDOM checker's stream, the
    # word a quiet round draws, and none from the checkee's.
    for m in randoms:
        step = report_stream(seed, m)
        if m != checkee:
            step.next_u64()
        assert full[m].next_u64() == step.next_u64()


def _engine_runs(monkeypatch, sc: Scenario, trace: io.StringIO | None) -> int:
    """How many times one run enters the event engine (asserting it took one path)."""
    calls = Counter()
    for name in ("_run_rounds", "_run_tally"):
        path = getattr(simnet, name)

        def counted(*args, _path=path, _name=name):
            calls[_name] += 1
            return _path(*args)

        monkeypatch.setattr(simnet, name, counted)
    run_simulation(sc, seed=3, trace=trace)
    monkeypatch.undo()
    assert calls["_run_rounds"] + calls["_run_tally"] == 1
    return calls["_run_rounds"]


def test_latency_free_runs_take_the_kernel_traced_or_not(monkeypatch):
    inside = Scenario(rounds=5, round_deadline=10, network=NetworkModel(latency_max=3))
    assert _engine_runs(monkeypatch, inside, trace=None) == 0
    assert _engine_runs(monkeypatch, inside, trace=io.StringIO()) == 0
    lossy = Scenario(rounds=5, network=NetworkModel(drop_prob=0.1))
    tight = Scenario(rounds=5, round_deadline=9, network=NetworkModel(latency_max=3))
    for sc in (lossy, tight):
        assert not latency_free(sc)
        assert _engine_runs(monkeypatch, sc, trace=None) == 1
        assert _engine_runs(monkeypatch, sc, trace=io.StringIO()) == 1


def test_report_streams_independent_across_devices_and_seeds():
    # With seed ^ device, device 1 at seed 0 replayed device 0 at seed 1.
    random = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=0.5)
    a, b = report_stream(0, 1), report_stream(1, 0)
    flips_a = [distort_opinion(random, Opinion.AGREE, 2, a) for _ in range(48)]
    flips_b = [distort_opinion(random, Opinion.AGREE, 2, b) for _ in range(48)]
    assert flips_a != flips_b


def _flip_rate(sc: Scenario, reps: int, engine: bool) -> tuple[int, int]:
    """(flips, chances) over `reps` runs of a scenario whose only deviants are RANDOM reporters.

    All hardware is honest, so every DISAGREE in a tally is a flip, and each
    RANDOM reporter other than the checkee has one chance per round.
    """
    randoms = set(_special_devices(sc))
    chances = flips = 0
    for rep in range(reps):
        _, verdicts = run_logged(sc, seed=1000 + rep, engine=engine)
        per_round = {v.round: v for issuer, v in verdicts}
        for v in per_round.values():
            chances += len(randoms - {v.checkee})
            flips += v.tally.disagree
    return flips, chances


def test_random_reporter_flip_rate_end_to_end():
    p = 0.3
    random = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=p)
    # One RANDOM reporter is within the framing bound, so the untraced
    # kernel folds its rounds in bulk without tallies: count on the engine.
    within = Scenario(rounds=50, adversaries=((1, random),))
    # Four of five are over it: every round is FULL and the kernel's
    # tallies are exact.
    over = Scenario(
        rounds=50, flag_threshold=50, adversaries=tuple((d, random) for d in (1, 2, 3, 4))
    )
    # Every position is a FULL spot (None).
    spots = simnet._classify(over.adversary_map, over.plan.bound, (None, 1, 2, 3, 4))[1]
    assert spots == dict.fromkeys(range(5))
    for sc, engine, reps in ((within, True, 40), (over, False, 10)):
        flips, chances = _flip_rate(sc, reps, engine)
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
                # Its position is FREE (no spot) at the bound and FULL (None) past it.
                members = tuple(range(n))
                key = tuple(map(sc.plan.marker, members))
                spots = simnet._classify(sc.adversary_map, sc.plan.bound, key)[1]
                assert spots.get(0, simnet.FREE) == (simnet.FREE if k == bound else None), (n, kind, k)
                for seed in range(3):
                    engine = run_engine(sc, seed=seed, trace=io.StringIO())
                    kernel = run_simulation(sc, seed=seed)
                    assert _reports(sc, kernel) == _reports(sc, engine), (n, kind, k, seed)


def test_operand_key_memo_stays_bounded():
    # 20,000 rounds ask for 20,000 distinct (round, checkee, routine) keys.
    run_simulation(Scenario(rounds=20_000, regroup_period=1_000))
    info = routines._operand_key.cache_info()
    assert info.maxsize == routines.OPERAND_KEY_CACHE <= 4096
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "doc",
    [
        # 3,000 FRAME reporters among 100,000 devices, regrouped every round:
        # thousands of groups hold one, each with its own key of markers.
        {
            "population": 100_000,
            "group_size": 5,
            "rounds": 20_000,
            "regroup_period": 1,
            "adversaries": [
                {"device": d, "reporting": "FRAME", "targets": [d + 1]} for d in range(0, 6_000, 2)
            ],
        },
        # Groups of 5 and 661 routines (5 and 661 are coprime), regrouped every
        # round, give each of the first 3,305 rounds its own epoch shape, and
        # every group the key of no marked member.
        {
            "population": 5,
            "group_size": 5,
            "rounds": 3_400,
            "regroup_period": 1,
            "routines": [{"id": i, "kind": "ADD"} for i in range(5, 661)],
        },
        # Groups of 400, regrouped every round: each key (where the one
        # Trojan sits) holds 400 positions.
        {
            "population": 400,
            "group_size": 400,
            "rounds": 100,
            "regroup_period": 1,
            "adversaries": [
                {
                    "device": 1,
                    "fault": "TROJAN",
                    "trigger": {"index": 0, "mask": 15, "match": 5},
                    "payload": {"kind": "XOR", "value": 1},
                }
            ],
        },
        # A group wider than the memo keeps nothing.
        {
            "population": 20_000,
            "group_size": simnet.MEMO_POSITIONS + 1,
            "rounds": 2,
            "regroup_period": 1,
        },
    ],
    ids=["frame_reporters", "epoch_shapes", "group_400", "wider_than_the_memo"],
)
def test_run_plan_memo_stays_bounded(doc):
    sc = scenario_from_dict(doc)
    run_simulation(sc, seed=3)
    n = sc.group_size
    info = sc.plan.classify.cache_info()
    # A key holds n positions, one marker each. The cache fills up to its
    # bound and no further; epoch shapes take no room.
    assert info.maxsize == simnet.MEMO_POSITIONS // n
    if sc.plan.layout_devices:
        assert info.currsize == info.maxsize
    else:
        # Every group has the key of no marked member, kept if there is room for one.
        assert info.currsize == min(info.maxsize, 1)


def _kernel_reports(doc: dict) -> list[tuple[bytes, bytes]]:
    """The kernel's JSON and CSV reports of every repetition of `doc`, at its seed and at 20261018."""
    sc = scenario_from_dict(doc)
    assert latency_free(sc)
    reports = []
    for seed in (sc.seed, 20261018):
        reports.append(_reports(sc, *(run_simulation(sc, seed=seed + k) for k in range(sc.repetitions))))
    # The cache holds every key classified, up to its bound.
    info = sc.plan.classify.cache_info()
    assert info.currsize == min(info.maxsize, info.misses)
    return reports


@pytest.mark.parametrize(
    "doc",
    [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))] + [OFF_PHASE_DOC],
    ids=[p.stem for p in sorted(SCENARIOS.glob("*.json"))] + ["off_phase"],
)
def test_a_full_memo_changes_no_report_byte(monkeypatch, doc):
    # With no room every key is classified anew; with room for one, each
    # key other than the last one used evicts it.
    expected = _kernel_reports(doc)
    for room in (0, scenario_from_dict(doc).group_size):
        monkeypatch.setattr(simnet, "MEMO_POSITIONS", room)
        assert _kernel_reports(doc) == expected, room


def test_a_layout_used_again_is_classified_once(monkeypatch):
    calls: Counter = Counter()

    def counted(profiles, bound, key, _classify=simnet._classify):
        calls[key] += 1
        return _classify(profiles, bound, key)

    monkeypatch.setattr(simnet, "_classify", counted)
    # Room for two keys. Among 5 devices in groups of 5, the Trojan's key
    # marks the position it is drawn at, and a one-round run draws one group.
    monkeypatch.setattr(simnet, "MEMO_POSITIONS", 10)
    sc = scenario_from_dict(
        {
            "population": 5,
            "group_size": 5,
            "rounds": 1,
            "adversaries": [
                {
                    "device": 0,
                    "fault": "TROJAN",
                    "trigger": {"index": 0, "mask": 1, "match": 1},
                    "payload": {"kind": "COMPLEMENT"},
                }
            ],
        }
    )
    seeds = {}  # the first seed that draws each key
    for seed in range(50):
        members = simnet.draw_group(5, (), 5, stream(seed, simnet.GROUPING_STREAM))
        seeds.setdefault(tuple(0 if m == 0 else None for m in members), seed)
    (a, b, c, *_) = seeds
    # Fill the cache with two other keys, then use one key three times.
    for seed in (seeds[b], seeds[c], seeds[a], seeds[a], seeds[a]):
        run_simulation(sc, seed=seed)
    assert calls == {b: 1, c: 1, a: 1}


@pytest.mark.parametrize("n", range(3, 8))
def test_kernel_charges_equal_the_engines_over_epoch_shapes(n):
    # Every regroup period from 1 to 2n + 1, over 5 and 7 routines, with an
    # ALWAYS_WRONG device excluded on its first flag, so epochs also end in
    # the middle of a period: the kernel's closed-form sends, receptions and
    # op counts must equal the engine's, device by device.
    extra = [
        {"id": 5, "kind": "ADD", "width": 16},
        {"id": 6, "kind": "COMPOSITE", "steps": ["MUL", "ADD"]},
    ]
    cut = 0  # the runs whose exclusion ends an epoch before its period does
    for period in range(1, 2 * n + 2):
        for routines_doc in ([], extra):
            sc = scenario_from_dict(
                {
                    "population": n + 1,
                    "group_size": n,
                    "rounds": 4 * n + 3,
                    "regroup_period": period,
                    "flag_threshold": 1,
                    "routines": routines_doc,
                    "adversaries": [{"device": 0, "fault": "ALWAYS_WRONG"}],
                }
            )
            for seed in range(2):
                kernel = run_simulation(sc, seed=seed)
                engine = run_engine(sc, seed=seed, trace=io.StringIO())
                assert _reports(sc, kernel) == _reports(sc, engine), (period, len(sc.routine_order), seed)
                cut += (kernel.suspicion.excluded_at.get(0, -1) + 1) % period != 0
    assert cut >= n


# A kernel run with no RANDOM reporter draws words from its grouping stream
# alone. The manifestation Monte-Carlo's shape draws 11 groups of all 5
# devices, 4 bounded words each, so its plan sizes the first pass to 44
# words and a run computes that one pass; 3 rounds of 70 of 80 devices
# regrouped every round draw 207 words, read on past a full first pass.
@pytest.mark.parametrize(
    ("doc", "passes"),
    [
        ({"population": 5, "group_size": 5, "rounds": 55, "adversaries": [_TROJAN_6 | {"device": 1}]}, [44]),
        ({"population": 80, "group_size": 70, "rounds": 3, "regroup_period": 1}, [LANES] * 4),
    ],
    ids=["trojan_mc", "wide_group"],
)
def test_grouping_stream_first_pass_is_sized_by_the_run_plan(monkeypatch, doc, passes):
    sc = scenario_from_dict(doc)
    assert sc.plan.group_words == passes[0]
    computed: list[int] = []

    def counting(state, k, _block=rng.block):
        computed.append(k)
        return _block(state, k)

    expected = _reports(sc, run_simulation(sc, seed=1))
    monkeypatch.setattr(rng, "block", counting)
    assert _reports(sc, run_simulation(sc, seed=1)) == expected
    assert computed == passes


def _count_report_streams(monkeypatch, sc: Scenario, path: str) -> tuple[Counter, set[int]]:
    """The report streams one run derives, per device, and the devices of its groups.

    `path` is "kernel", "traced" (the kernel with a trace sink) or "engine" (forced).
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
    with forced_engine() if path == "engine" else nullcontext():
        run_simulation(sc, seed=0, trace=None if path == "kernel" else io.StringIO())
    monkeypatch.undo()
    return streams, drawn


@pytest.mark.parametrize("path", ["kernel", "traced", "engine"])
def test_no_report_stream_for_frame_reporters(monkeypatch, path):
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
    streams, _ = _count_report_streams(monkeypatch, sc, path)
    assert sum(streams.values()) == 0


@pytest.mark.parametrize("path", ["kernel", "traced", "engine"])
def test_one_report_stream_per_random_reporter_drawn(monkeypatch, path):
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
    streams, drawn = _count_report_streams(monkeypatch, sc, path)
    expected = drawn.intersection(randoms)
    assert len(expected) < len(randoms)
    assert streams == Counter(dict.fromkeys(expected, 1))
