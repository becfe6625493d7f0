"""Event engine and end-to-end run tests: ordering, loss, groups, determinism."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collabtrust.simnet as simnet
from collabtrust.adversary import AdversaryProfile, FaultKind, ReportingKind
from collabtrust.errors import ContractError, GroupFormationError
from collabtrust.rng import GOLDEN_GAMMA, MASK64, SplitMix64, float_cut
from collabtrust.scenario import Scenario
from collabtrust.simnet import NetworkModel, draw_group, run_simulation
from collabtrust.verdict import Outcome
from reference_impl import detection_stats, fates, form_group, state_before
from verdict_log import kernel_view, run_engine, run_logged, run_traced, trace_lines


# The word 2**64 - 1 is rejected by every draw whose bound is not a power of
# two, so a stream placed just before it forces a rejection at a chosen word:
# the first or the last of a pass of the stream's word iterator, or one
# inside a pass.
def _rejecting_at(lane: int) -> int:
    return (state_before(MASK64) - lane * GOLDEN_GAMMA) & MASK64


def _network_at(state: int, monkeypatch) -> None:
    """Start every run's network stream at `state`; the other streams stay as they are."""
    stream = simnet.stream
    monkeypatch.setattr(
        simnet,
        "stream",
        lambda seed, tag, *words, **first: SplitMix64(state) if tag == simnet.NETWORK_STREAM
        else stream(seed, tag, *words, **first),
    )


def _deliveries(trace, kind):
    """(seq, sender, receiver, tick) of each `kind` delivery line, in seq order."""
    return sorted((int(f[1]), int(f[3]), int(f[4]), int(f[0]))
                  for f in map(str.split, trace) if f[2] == kind)


def _reference_fan_out(rng, group, frm, now, seq, drop_prob, lo, span):
    """The deliveries `reference_impl.fates` gives a fan-out from `frm` sent at `now`."""
    peers = [m for m in group if m != frm]
    out = []
    for to, latency in zip(peers, fates(rng, len(peers), drop_prob, lo, span)):
        if latency is not None:
            out.append((seq, frm, to, now + latency))
            seq += 1  # a drop takes no seq
    return out


def _check_first_fan_outs(state, group_size, drop_prob, span, monkeypatch):
    """One traced round whose network stream starts at `state`: its challenge
    fan-out, and the first response fan-out after it, reach exactly the
    (receiver, tick) pairs the word-by-word reference gives and drop exactly
    the unicasts it drops. Every message of both lands before the deadline."""
    lo = 2
    hi = lo + span - 1
    sc = Scenario(population=group_size, group_size=group_size, rounds=1,
                  round_deadline=2 * hi + 1, network=NetworkModel(lo, hi, drop_prob))
    _network_at(state, monkeypatch)
    res, trace = run_traced(sc, seed=0)
    start = dict(f.split("=") for f in trace[0].split()[5:])
    group = tuple(map(int, start["group"].split(",")))
    reference = SplitMix64(state)
    challenges = _deliveries(trace, "CHALLENGE")
    first = 2 * sc.rounds
    assert challenges == _reference_fan_out(
        reference, group, int(start["initiator"]), 0, first, drop_prob, lo, span
    )
    responses = _deliveries(trace, "RESPONSE")
    if responses:
        frm = responses[0][1]
        sent_at = next(t for _, _, to, t in challenges if to == frm)
        assert [r for r in responses if r[1] == frm] == _reference_fan_out(
            reference, group, frm, sent_at, first + len(challenges), drop_prob, lo, span
        )
    return res


def test_send_lossless_delivers_within_latency_bounds():
    sc = Scenario(rounds=150, network=NetworkModel(latency_min=1, latency_max=3))
    res, trace = run_traced(sc, seed=1)
    assert res.counters.dropped == 0
    latencies = [int(t) - int(rnd.split("=")[1]) * sc.round_deadline
                 for t, _, kind, _, _, rnd, *_ in map(str.split, trace) if kind == "CHALLENGE"]
    assert len(latencies) == 150 * (sc.group_size - 1)
    assert set(latencies) == {1, 2, 3}


def test_send_certain_loss_never_delivers():
    sc = Scenario(rounds=50, network=NetworkModel(drop_prob=1.0))
    res, trace = run_traced(sc, seed=2)
    c = res.counters
    assert c.dropped == c.sent == 50 * (sc.group_size - 1)
    assert {line.split()[2] for line in trace} == {"ROUND_START", "VERDICT", "ROUND_DEADLINE"}


def test_send_loss_rate_within_3_sigma():
    p = 0.2
    sc = Scenario(population=10, group_size=10, rounds=1800, network=NetworkModel(drop_prob=p))
    c = run_simulation(sc, seed=3).counters
    n = c.sent
    assert n > 100_000
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(c.dropped / n - p) <= 3 * sigma


# Span 1 draws no latency word, drop 0 no float, and span 2**63 + 1 rejects
# about half of its latency words. 64 peers take the fan-outs across the
# pass boundaries of the stream's word iterator.
@pytest.mark.parametrize("span", (1, 3, 4, 7, 2**63 + 1))
@pytest.mark.parametrize("drop_prob", (0.0, 0.3, 1.0))
def test_fates_draw_what_next_float_and_below_draw(drop_prob, span, monkeypatch):
    res = _check_first_fan_outs(99, 65, drop_prob, span, monkeypatch)
    if drop_prob == 1.0:
        assert res.counters.dropped == res.counters.sent == 64


# A fan-out to `count` peers (a group of 3 at the least) whose word `lane`
# is rejected: the first or the last word of the iterator's first pass of
# LANES words (0, 63), a word inside it (4), and the first and the last
# word of its second pass and the first of its third (64, 127, 128).
@pytest.mark.parametrize(
    "count,lane",
    ((1, 0), (5, 0), (5, 4), (64, 63), (100, 0), (100, 63), (130, 64), (130, 127), (130, 128)),
)
def test_fates_redraw_a_rejected_word_as_below_does(count, lane, monkeypatch):
    _check_first_fan_outs(_rejecting_at(lane), max(3, count + 1), 0.0, 3, monkeypatch)


@pytest.mark.parametrize("population,size,lane", ((5, 5, 0), (5, 5, 2), (100, 70, 0), (100, 70, 63)))
def test_draw_group_redraws_a_rejected_word_as_form_group_does(population, size, lane):
    sparse, listed = SplitMix64(_rejecting_at(lane)), SplitMix64(_rejecting_at(lane))
    assert draw_group(population, {}, size, sparse) == form_group(list(range(population)), size, listed)
    assert sparse.next_u64() == listed.next_u64()


# Groups of 6 of 6, 7 of 7 and 5 of 200. The bound at position 0 is the
# population, at position 1 one less; a bound rejects its top 2**64 % bound
# words (7 of 7 at position 1: the bound is 6, the limit 2**64 - 4; 5 of
# 200 at 0: the limit is 2**64 - 16, below the top `size` words). The word
# at `position` is at the limit and redrawn, or just below it, inside the
# band 2**64 - population, and taken.
@pytest.mark.parametrize(
    "population,size,position",
    ((6, 6, 0), (7, 7, 0), (6, 6, 1), (7, 7, 1), (200, 5, 0)),
    ids=("6", "7", "6-at-1", "7-at-1", "5-of-200"),
)
@pytest.mark.parametrize("below_limit", (0, 1))
def test_draw_group_rejects_from_the_limit_on_as_form_group_does(
    population, size, position, below_limit
):
    bound = population - position
    word = (1 << 64) - (1 << 64) % bound - below_limit
    assert word >= (1 << 64) - population
    state = (state_before(word) - position * GOLDEN_GAMMA) & MASK64
    drawn = SplitMix64(state)
    words = [drawn.next_u64() for _ in range(size + 2)]
    assert words[position] == word
    sparse, listed = SplitMix64(state), SplitMix64(state)
    assert draw_group(population, {}, size, sparse) == form_group(
        list(range(population)), size, listed
    )
    # One bounded draw per position below population - 1, and one word more
    # when the one at the limit is redrawn.
    draws = min(size, population - 1)
    assert sparse.next_u64() == listed.next_u64() == words[draws + (below_limit == 0)]


# Zero-latency sends and a deadline of 2 * latency_max put round timers and
# deliveries on the same ticks.
SHARED_TICKS = Scenario(
    population=6,
    group_size=5,
    rounds=20,
    round_deadline=6,
    network=NetworkModel(latency_min=0, latency_max=3, drop_prob=0.1),
)
TIMERS = ("ROUND_START", "ROUND_DEADLINE", "HALT")


def _events(trace):
    """(time, seq, kind, round) of each trace line but the verdicts."""
    out = []
    for line in trace:
        t, seq, kind, *rest = line.split()
        if kind != "VERDICT":
            rnd = int(rest[2].split("=")[1]) if kind in ("ROUND_START", "ROUND_DEADLINE") else None
            out.append((int(t), int(seq), kind, rnd))
    return out


def test_queue_orders_by_time():
    _, trace = run_traced(SHARED_TICKS, seed=5)
    times = [e[0] for e in _events(trace)]
    assert times == sorted(times)


def test_queue_breaks_ties_by_scheduling_order():
    first = 2 * SHARED_TICKS.rounds
    _, trace = run_traced(SHARED_TICKS, seed=5)
    events = _events(trace)
    shared = 0
    for tick in sorted({e[0] for e in events}):
        at = [e for e in events if e[0] == tick]
        is_timer = [kind in TIMERS for _, _, kind, _ in at]
        assert is_timer == sorted(is_timer, reverse=True), at
        shared += is_timer[0] and not is_timer[-1]
        for _, seq, kind, rnd in at:
            if kind == "ROUND_START":
                assert (tick, seq) == (rnd * 6, 2 * rnd)
            elif kind == "ROUND_DEADLINE":
                assert (tick, seq) == ((rnd + 1) * 6, 2 * rnd + 1)
        deliveries = [seq for _, seq, kind, _ in at if kind not in TIMERS]
        assert deliveries == sorted(deliveries) and all(s >= first for s in deliveries)
    assert shared > 0


def test_engine_counts_unreached_deliveries_in_flight():
    # All honest, so nothing is purged: every undropped send either shows up
    # as a delivery line or is still in flight when the last deadline fires.
    sc = Scenario(
        rounds=20, round_deadline=6, network=NetworkModel(latency_min=1, latency_max=5, drop_prob=0.2)
    )
    res, trace = run_traced(sc, seed=1)
    c = res.counters
    first = 2 * sc.rounds
    delivered = {e[1] for e in _events(trace) if e[2] not in TIMERS}
    assert delivered <= set(range(first, first + c.sent - c.dropped))
    assert c.in_flight == c.sent - c.dropped - len(delivered) > 0
    assert trace[-1].endswith(f"ROUND_DEADLINE - - round={sc.rounds - 1}")


def test_only_challenges_handled_on_time_are_charged_ops():
    # Validation keeps latency_max below the deadline, so in a valid run every
    # challenge lands in its round. A network that holds each unicast for a
    # whole round, set past validation, makes every one late: only the
    # initiators, who build the challenges, pay for their routines.
    sc = Scenario(rounds=6)
    whole_round = NetworkModel(latency_min=sc.round_deadline, latency_max=sc.round_deadline)
    object.__setattr__(sc, "network", whole_round)  # not latency-free: the engine
    res = run_simulation(sc, seed=0)
    c = res.counters
    assert c.late == c.sent - c.in_flight and c.delivered == 0
    built = sum(sc.routine_order[r % len(sc.routine_order)].op_count for r in range(sc.rounds))
    assert sum(u.ops for u in res.energy.usage.values()) == built


def test_network_model_validation():
    with pytest.raises(ContractError):
        NetworkModel(latency_min=3, latency_max=1)
    with pytest.raises(ContractError):
        NetworkModel(drop_prob=1.5)


def test_form_group_deterministic():
    population = list(range(20))
    a = form_group(population, 5, SplitMix64(7))
    b = form_group(population, 5, SplitMix64(7))
    assert a == b
    assert len(set(a)) == 5
    assert all(m in population for m in a)


def test_form_group_whole_population():
    group = form_group([3, 1, 4, 5, 9], 5, SplitMix64(0))
    # degenerate draw: size == population, every device selected
    assert sorted(group) == [1, 3, 4, 5, 9]


def test_form_group_too_few_devices():
    with pytest.raises(GroupFormationError):
        form_group([0, 1, 2], 5, SplitMix64(0))


def test_form_group_inclusion_frequency_hypergeometric():
    # Each of 20 devices should appear in a 5-member draw with p = 1/4.
    population = list(range(20))
    rng = SplitMix64(123)
    draws = 10_000
    counts = dict.fromkeys(population, 0)
    for _ in range(draws):
        for m in form_group(population, 5, rng):
            counts[m] += 1
    p = 5 / 20
    sigma = (draws * p * (1 - p)) ** 0.5
    for device, count in counts.items():
        assert abs(count - draws * p) <= 3 * sigma, (device, count)


@st.composite
def group_draws(draw) -> tuple[int, set[int], int, list[int]]:
    """A population, its excluded devices, a group size and three seeds."""
    population = draw(st.integers(3, 200), label="population")
    excluded = draw(
        st.one_of(
            st.sets(st.integers(0, population - 1), max_size=population // 4),
            # Nearly everyone excluded: the complement of a few kept devices.
            st.sets(st.integers(0, population - 1), max_size=8).map(
                lambda kept: set(range(population)) - kept
            ),
        ),
        label="excluded",
    )
    # Sizes past rng.LANES take more than one block pass.
    size = draw(st.integers(3, 8) | st.integers(60, 140), label="size")
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3), label="seeds")
    return population, excluded, size, seeds


SEEDS = [0, 20261018, 2**64 - 1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=group_draws())
# Every swap partner inside the group: 5 of 5, and 7 of 8 with device 3 excluded.
@example(case=(5, set(), 5, SEEDS))
@example(case=(8, {3}, 7, SEEDS))
# 70 of 70 draws 69 words, more than one block pass.
@example(case=(70, set(), 70, SEEDS))
# 5 of 200 with exclusions: nearly every partner lies beyond the group.
@example(case=(200, {0, 2, 7, 64, 199}, 5, SEEDS))
def test_draw_group_matches_form_group_over_the_eligible_list(case):
    population, excluded, size, seeds = case
    eligible = [d for d in range(population) if d not in excluded]
    for seed in seeds:
        listed, sparse = SplitMix64(seed), SplitMix64(seed)
        if size > len(eligible):
            with pytest.raises(GroupFormationError) as expected:
                form_group(eligible, size, listed)
            with pytest.raises(GroupFormationError) as got:
                draw_group(population, excluded, size, sparse)
            assert str(got.value) == str(expected.value)
            continue
        expected = form_group(eligible, size, listed)
        got = draw_group(population, excluded, size, sparse)
        assert got == expected
        # Both consumed the same draws.
        assert sparse.next_u64() == listed.next_u64()


def test_honest_run_all_trusted():
    sc = Scenario(rounds=5)
    res, verdicts = run_logged(sc, seed=1, trace=io.StringIO(), engine=True)
    assert len(verdicts) == 25  # 5 devices x 5 rounds
    assert all(v.outcome is Outcome.TRUSTED for _, v in verdicts)
    assert res.halt_reason is None
    assert res.counters.late == 0


def test_always_wrong_flagged_in_first_checkee_round():
    sc = Scenario(
        population=10,
        adversaries=((2, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    res, verdicts = run_logged(sc, seed=5, trace=io.StringIO(), engine=True)
    first_checkee_round = min(v.round for _, v in verdicts if v.checkee == 2)
    assert res.suspicion.first_flagged[2] == first_checkee_round
    flagged = [v for _, v in verdicts if v.outcome is Outcome.FLAGGED]
    assert flagged and all(v.checkee == 2 for v in flagged)


def test_lossless_verdicts_identical_across_devices_each_round():
    # Honest reporting (hardware faults allowed): every device concludes
    # the same verdict from the same lossless broadcast.
    scenarios = (
        Scenario(rounds=10),
        Scenario(rounds=10, adversaries=((1, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),), population=8),
    )
    # Asserted on the event engine (forced, traced), where each device tallies the
    # reports it received; the untraced tally kernel must match it.
    for sc in scenarios:
        res, verdicts = run_logged(sc, seed=12, trace=io.StringIO(), engine=True)
        by_round: dict[int, set] = {}
        issuers: dict[int, int] = {}
        for _, v in verdicts:
            by_round.setdefault(v.round, set()).add((v.outcome, v.checkee, v.tally))
            issuers[v.round] = issuers.get(v.round, 0) + 1
        for round_no, distinct in by_round.items():
            assert len(distinct) == 1, (round_no, distinct)
            assert issuers[round_no] == sc.group_size  # one verdict per device
        kernel, kernel_verdicts = run_logged(sc, seed=12)
        assert kernel.counters == res.counters
        assert kernel.energy.usage == res.energy.usage
        # The kernel folds rounds the framing bound makes TRUSTED in bulk,
        # without their tallies (verdict_log.kernel_view).
        got, expected = kernel_view(kernel_verdicts, verdicts)
        assert got == expected


def test_lossless_framing_minority_causes_no_false_positives():
    liars = tuple(
        (d, AdversaryProfile(reporting=ReportingKind.FRAME, targets=frozenset({0})))
        for d in (3, 4)
    )
    sc = Scenario(adversaries=liars)
    for seed in range(5):
        _, verdicts = run_logged(sc, seed=seed)
        assert all(v.outcome is Outcome.TRUSTED for _, v in verdicts)
        assert detection_stats(verdicts, sc.adversary_map).false_positives == 0


def test_same_seed_identical_trace_and_different_seed_differs():
    sc = Scenario(rounds=5)
    _, a = run_traced(sc, seed=9)
    _, b = run_traced(sc, seed=9)
    _, c = run_traced(sc, seed=10)
    assert a == b
    assert a != c


def _round_slices(trace):
    """Map round -> delivery lines between its START and DEADLINE marks."""
    slices: dict[int, list[str]] = {}
    current = None
    for line in trace:
        fields = line.split()
        kind = fields[2]
        if kind == "ROUND_START":
            current = int(fields[5].removeprefix("round="))
            slices[current] = []
        elif kind == "ROUND_DEADLINE":
            current = None
        elif kind in ("CHALLENGE", "RESPONSE", "REPORT") and current is not None:
            slices[current].append(line)
    return slices


def test_lossless_round_message_counts_from_trace():
    sc = Scenario(rounds=5)
    res, trace = run_traced(sc, seed=4)
    for round_no, lines in _round_slices(trace).items():
        kinds = [line.split()[2] for line in lines]
        assert kinds.count("CHALLENGE") == 4, round_no
        assert kinds.count("RESPONSE") == 4, round_no
        assert kinds.count("REPORT") == 16, round_no
    assert res.counters.sent == 5 * 24


def test_no_causal_violation_in_trace():
    # Every challenge delivery happens within (round start, start + max latency].
    sc = Scenario(rounds=5)
    _, trace = run_traced(sc, seed=8)
    deadline = sc.round_deadline
    for line in trace:
        fields = line.split()
        if fields[2] != "CHALLENGE":
            continue
        t = int(fields[0])
        round_no = int(fields[5].removeprefix("round="))
        start = round_no * deadline
        assert start + sc.network.latency_min <= t <= start + sc.network.latency_max


def test_trace_conservation_under_loss():
    sc = Scenario(network=NetworkModel(drop_prob=0.3))
    for seed in range(5):
        res, _ = run_traced(sc, seed=seed)
        c = res.counters
        assert c.sent == c.delivered + c.dropped + c.late + c.in_flight, c
        assert c.sent == sum(u.sent for u in res.energy.usage.values())


def test_excluded_device_never_referenced_afterwards():
    sc = Scenario(
        population=12,
        rounds=25,
        adversaries=((4, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    res, trace = run_traced(sc, seed=6)
    excluded_round = res.suspicion.excluded_round(4)
    assert excluded_round is not None
    boundary = (excluded_round + 1) * sc.round_deadline  # its deadline tick
    for line in trace:
        fields = line.split()
        t, kind = int(fields[0]), fields[2]
        if t <= boundary:
            continue
        if kind in ("CHALLENGE", "RESPONSE", "REPORT"):
            assert fields[3] != "4" and fields[4] != "4", line
        elif kind == "ROUND_START":
            members = fields[6].removeprefix("group=").split(",")
            assert "4" not in members, line
        elif kind == "VERDICT":
            assert fields[3] != "4", line
            assert "checkee=4" not in fields, line


def test_exclusion_halts_when_population_exhausted():
    sc = Scenario(adversaries=((1, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),))
    res, _ = run_traced(sc, seed=2)
    assert res.halt_reason is not None
    assert "eligible" in res.halt_reason
    assert res.rounds_executed < sc.rounds


def test_regroup_period_redraws_membership():
    sc = Scenario(population=20, rounds=10, regroup_period=5)
    _, trace = run_traced(sc, seed=3)
    starts = [line for line in trace if line.split()[2] == "ROUND_START"]
    groups = {line.split()[6] for line in starts}
    # one membership for rounds 0-4, one for 5-9 (identical draws are
    # astronomically unlikely with population 20)
    assert len(groups) == 2


def test_engine_makes_state_only_for_devices_that_join_a_group(monkeypatch):
    made = []

    class CountingState(simnet.DeviceState):
        def __init__(self, device_id, *args, **kwargs):
            made.append(device_id)
            super().__init__(device_id, *args, **kwargs)

    monkeypatch.setattr(simnet, "DeviceState", CountingState)
    sc = Scenario(population=1000, group_size=5, rounds=10, regroup_period=1)
    _, trace = run_traced(sc, seed=4, engine=True)
    joined = {
        int(m)
        for line in trace
        if line.split()[2] == "ROUND_START"
        for m in line.split()[6].removeprefix("group=").split(",")
    }
    # Each device that joined is made once; no other device is made.
    assert sorted(made) == sorted(joined)


def test_high_latency_runs_stay_conserved():
    # Latencies near the deadline push response/report chains past the
    # round boundary: deliveries become late (marked in the trace) and the
    # books still balance.
    sc = Scenario(network=NetworkModel(latency_min=4, latency_max=9))
    sink = io.StringIO()
    res, verdicts = run_logged(sc, seed=1, trace=sink)
    c = res.counters
    assert c.late > 0
    assert c.sent == c.delivered + c.dropped + c.late + c.in_flight, c
    assert any(line.endswith("late=1") for line in trace_lines(sink))
    assert all(v.outcome is not Outcome.FLAGGED for _, v in verdicts)


def test_high_latency_exclusion_still_unreferenced():
    # Exclusion with slow links exercises the queued-delivery purge; the
    # excluded device must still vanish from the trace afterwards.
    sc = Scenario(
        population=8,
        rounds=25,
        network=NetworkModel(latency_min=1, latency_max=9),
        adversaries=((5, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    exclusions = 0
    for seed in range(6):
        res, trace = run_traced(sc, seed=seed)
        excluded_round = res.suspicion.excluded_round(5)
        if excluded_round is None:
            continue  # slow links can starve every tally of this device's rounds
        exclusions += 1
        boundary = (excluded_round + 1) * sc.round_deadline
        for line in trace:
            fields = line.split()
            if int(fields[0]) <= boundary:
                continue
            if fields[2] in ("CHALLENGE", "RESPONSE", "REPORT"):
                assert fields[3] != "5" and fields[4] != "5", line
        c = res.counters
        assert c.sent == c.delivered + c.dropped + c.late + c.in_flight, c
    assert exclusions > 0


def test_loss_knob_does_not_reshuffle_groups_or_operands():
    # Separate named streams: turning on packet loss must not change which
    # groups are drawn, who is checked, or what operands are issued.
    _, base = run_traced(Scenario(rounds=10), seed=42)
    _, lossy = run_traced(Scenario(rounds=10, network=NetworkModel(drop_prob=0.4)), seed=42)

    def round_starts(trace):
        return [line.split(maxsplit=2)[2] for line in trace if " ROUND_START " in line]

    def challenge_ops(trace):
        ops = {}
        for line in trace:
            fields = line.split()
            if fields[2] == "CHALLENGE":
                round_no = fields[5].removeprefix("round=")
                ops.setdefault(round_no, set()).add(fields[8])
        return ops

    assert round_starts(base) == round_starts(lossy)
    base_ops = challenge_ops(base)
    for round_no, sets in challenge_ops(lossy).items():
        assert sets == base_ops[round_no], round_no


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
def test_the_purge_covers_deliveries_from_the_excluded_device(traced):
    # Seed 2 excludes ALWAYS_WRONG device 5 with deliveries to it and one
    # from it still queued; all three are purged, so device 1 never
    # receives the one from device 5.
    sc = Scenario(
        population=8,
        group_size=5,
        rounds=30,
        round_deadline=5,
        network=NetworkModel(latency_min=0, latency_max=4),
        adversaries=((5, AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)),),
    )
    res = run_simulation(sc, seed=2, trace=io.StringIO() if traced else None)
    assert res.suspicion.is_excluded(5)
    assert res.counters.purged == 3
    assert res.energy.usage[1].received == 73


@pytest.mark.parametrize("offset, dropped", ((0, False), (1, True)))
def test_the_drop_cut_is_strict(offset, dropped, monkeypatch):
    # A unicast is dropped when its drop word is below float_cut(p), so a
    # word equal to the cut is delivered and the word below it dropped.
    p = 0.3
    _network_at(state_before(float_cut(p) - offset), monkeypatch)
    sc = Scenario(population=3, group_size=3, rounds=1,
                  network=NetworkModel(latency_min=1, latency_max=1, drop_prob=p))
    _, trace = run_traced(sc, seed=0)
    start = dict(f.split("=") for f in trace[0].split()[5:])
    first_peer = next(m for m in start["group"].split(",") if m != start["initiator"])
    challenged = {f[4] for f in map(str.split, trace) if f[2] == "CHALLENGE"}
    assert (first_peer not in challenged) == dropped
