"""The tally-level round kernel against the event engine.

Runs with no trace sink, no loss and 3 * latency_max below the round
deadline take the kernel; a run given a trace stream always takes the event
engine. A Hypothesis differential test generates lossless scenarios at the
edge of that regime and checks that both paths produce the same report bytes
and fold the same (issuer, verdict) pairs into their stats. Fold order
legitimately differs: the engine folds verdicts as tallies complete, the
kernel a round's verdict for all members at once.
"""

from __future__ import annotations

import io
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import collabtrust.simnet as simnet
from collabtrust.adversary import AdversaryProfile, Opinion, ReportingKind, distort_opinion
from collabtrust.metrics import detection_stats
from collabtrust.report import build_report, emit_report
from collabtrust.scenario import Scenario, scenario_from_dict
from collabtrust.simnet import NetworkModel, latency_free, report_stream, run_simulation
from verdict_log import run_logged

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
        doc["p"] = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
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
def lossless_scenarios(draw) -> Scenario:
    group_size = draw(st.integers(3, 9))
    population = group_size + draw(st.integers(0, 3))
    latency_max = draw(st.integers(0, 4))
    # Overrides of the built-in ids 0..4 and additions past them. Trigger
    # masks and payloads fit in 8 bits and every routine takes at least two
    # operands, so any table passes the load-time trigger checks.
    routine_ids = draw(st.lists(st.integers(0, 7), max_size=5, unique=True))
    corrupt = draw(st.lists(st.integers(0, population - 1), max_size=4, unique=True))
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
    report = build_report(res, sc)
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
    assert Counter(kernel_verdicts) == Counter(engine_verdicts)
    # The kernel folds each round once for all members; the reference folds per issuer.
    assert kernel.stats == engine.stats == detection_stats(kernel_verdicts, sc.profile_map())
    assert (kernel.rounds_executed, kernel.halt_reason) == (engine.rounds_executed, engine.halt_reason)


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


def test_random_reporter_flip_rate_end_to_end():
    # All hardware is honest, so every DISAGREE in a tally is a flip by the
    # one RANDOM reporter, which checks in 4 of every 5 rounds.
    p = 0.3
    sc = Scenario(
        rounds=50,
        adversaries=((1, AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=p)),),
    )
    chances = flips = 0
    for rep in range(40):
        _, verdicts = run_logged(sc, seed=1000 + rep)
        per_round = {v.round: v for issuer, v in verdicts}
        for v in per_round.values():
            if v.checkee != 1:
                chances += 1
                flips += v.tally.disagree
    sigma = (p * (1 - p) / chances) ** 0.5
    assert abs(flips / chances - p) <= 3 * sigma, (flips, chances)
