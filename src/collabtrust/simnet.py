"""Deterministic runs: groups, the tally kernel and the round walk.

run_simulation picks the path: a latency_free run takes the tally kernel,
_run_tally, which tallies the loud rounds of each group (RunPlan,
_classify, _tally_round), and every other run the round walk, _run_rounds.
Both walk a run's groups with _epochs, and _RoundTrace writes a traced run.
Streams come from rng.stream: the network, grouping and report streams.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Collection, Iterator
from functools import lru_cache, partial
from itertools import accumulate, chain, islice

from .adversary import (
    HONEST_PROFILE,
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    ReportingKind,
    is_special,
)
from .errors import ContractError, GroupFormationError, ProtocolViolation
from .metrics import (
    DetectionStats,
    EnergyLedger,
    TrafficCounters,
    lossless_messages_per_round,
)
from .protocol import answers, opinion
from .record import Frozen, Record
from .rng import LANES, MASK64, SplitMix64, float_cut, stream
from .routines import RoutineSpec, operand_word
from .verdict import (
    Outcome,
    SuspicionLedger,
    Tally,
    Verdict,
    framing_bound,
    lossless_verdicts,
    update_suspicion,
    verdict_table,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

    from .scenario import Scenario

# Stream-name tags for deriving independent substreams from one seed.
NETWORK_STREAM = 0x6E657477  # "netw"
GROUPING_STREAM = 0x67727570  # "grup"
REPORT_STREAM = 0x72707274  # "rprt"


class NetworkModel(Frozen):
    """Per-unicast loss and latency. A latency is a whole tick count in [min, max]."""

    def __init__(self, latency_min: int = 1, latency_max: int = 3, drop_prob: float = 0.0):
        if not 0 <= latency_min <= latency_max:
            raise ContractError(
                f"need 0 <= latency_min <= latency_max, got [{latency_min}, {latency_max}]"
            )
        if not 0.0 <= drop_prob <= 1.0:
            raise ContractError(f"drop_prob must be in [0, 1], got {drop_prob}")
        self.latency_min = latency_min
        self.latency_max = latency_max
        self.drop_prob = drop_prob


def draw_group(
    population: int,
    excluded: Collection[int],
    size: int,
    rng: SplitMix64,
) -> tuple[int, ...]:
    """An ad-hoc group of `size` devices of range(population) not in `excluded`.

    The members, in shuffled order, are those a Fisher-Yates shuffle of the
    first `size` positions of the sorted eligible list picks, from the same
    draws but without the list: a sparse shuffle of ranks keeps the
    positions below `size` in a list and only the swapped positions beyond
    it in a dict, and each chosen rank maps to its device by bisecting the
    sorted exclusions, so the cost does not grow with `population`. A draw
    below `bound` rejects a word at or above 2**64 - 2**64 % bound; no
    bound exceeds n, so only a word in the band 2**64 - n can be rejected,
    and the limit is worked out only for such a word.
    """
    skip = sorted(excluded) if excluded else ()
    n = population - len(skip)
    if size > n:
        raise GroupFormationError(f"need {size} devices but only {n} are eligible")
    words = rng.words
    band = (1 << 64) - n
    ranks = list(range(size))
    beyond: dict[int, int] = {}
    # Position i swaps with i + an unbiased draw below n - i, by rejection;
    # a bound of 1, at position n - 1, draws no word and swaps nothing.
    for i in range(min(size, n - 1)):
        bound = n - i
        z = next(words)
        while z >= band and z >= (1 << 64) - (1 << 64) % bound:
            z = next(words)
        j = i + z % bound
        if j < size:
            ranks[i], ranks[j] = ranks[j], ranks[i]
        else:
            ranks[i], beyond[j] = beyond.get(j, j), ranks[i]
    return tuple(_nth_eligible(skip, rank) for rank in ranks) if skip else tuple(ranks)


def _nth_eligible(skip: list[int], rank: int) -> int:
    """The device of this rank (from 0) among those not in the sorted list `skip`.

    It is the least d with d = rank + |skip <= d|; iterating that map from
    d = rank climbs to it without passing it.
    """
    d = rank
    while (nxt := rank + bisect_right(skip, d)) != d:
        d = nxt
    return d


class RunResult(Record):
    """Everything a single run produces; report assembly reads from here."""

    def __init__(
        self,
        seed: int,
        rounds_executed: int,
        halt_reason: str | None,
        stats: DetectionStats,
        counters: TrafficCounters,
        energy: EnergyLedger,
        suspicion: SuspicionLedger,
    ):
        self.seed = seed
        self.rounds_executed = rounds_executed
        self.halt_reason = halt_reason
        self.stats = stats
        self.counters = counters
        self.energy = energy
        self.suspicion = suspicion


def _challenge_text(
    frm: int, r: int, checkee: int, spec: RoutineSpec, ops: tuple[int, ...]
) -> tuple[str, str]:
    """The text of a challenge's delivery lines, around its receiver.

    A delivery's line is f"{time} {seq}{head}{to}{tail}": `head` holds the
    kind and sender, `tail` the payload and newline. Both are the same for
    every receiver of a fan-out, so they are built once per fan-out; a
    report's come from _report_head, once per sender, and _report_tail,
    once per (round, opinion).
    """
    return (
        f" CHALLENGE {frm} ",
        f" round={r} checkee={checkee} spec={spec.id} ops={','.join(map(str, ops))} cid={r}\n",
    )


def _response_text(frm: int, r: int, output: int) -> tuple[str, str]:
    return f" RESPONSE {frm} ", f" cid={r} output={output}\n"


def _report_head(frm: int) -> str:
    return f" REPORT {frm} "


def _report_tail(round_no: int, checkee: int, opinion: Opinion) -> str:
    return f" cid={round_no} checkee={checkee} opinion={opinion.value}\n"


def _verdict_text(round_no: int, checkee: int, tally: Tally, outcome: Outcome) -> str:
    """What a VERDICT line of round `round_no` ends in, after f"{time} {seq} VERDICT {device}"."""
    return (
        f" - round={round_no} checkee={checkee} outcome={outcome.value} agree={tally.agree}"
        f" disagree={tally.disagree} missing={tally.missing}\n"
    )


def _round_start_line(
    t: int, r: int, group_text: str, checkee: int, initiator: int, spec: RoutineSpec
) -> str:
    return (
        f"{t} {2 * r} ROUND_START - - round={r} group={group_text}"
        f" checkee={checkee} initiator={initiator} routine={spec.id}\n"
    )


def _deadline_line(t: int, r: int) -> str:
    return f"{t} {2 * r + 1} ROUND_DEADLINE - - round={r}\n"


def _halt_line(t: int, r: int, reason: str) -> str:
    return f"{t} {2 * r} HALT - - reason={reason!r}\n"


def report_stream(seed: int, device: int) -> SplitMix64:
    """Device `device`'s reporting-noise stream for the run at `seed`.

    XOR-ing seed and device instead of hashing them would make device d at
    seed s replay device d' at seed s^d^d'.
    """
    return stream(seed, REPORT_STREAM, device)


def latency_free(scenario: "Scenario") -> bool:
    """Whether no report or verdict of the run can depend on message timing.

    Without loss every message is delivered, and with 3 * latency_max below
    the round deadline the challenge -> response -> report chain of each
    round lands before its deadline.
    """
    net = scenario.network
    return net.drop_prob == 0.0 and 3 * net.latency_max < scenario.round_deadline


# The trigger of a FREE position: no word to test, and no tally.
FREE = ()

# How many group positions a run plan may keep classified: a key holds one per
# position, so groups of n keep the MEMO_POSITIONS // n keys used last, and a
# group wider than this keeps none.
MEMO_POSITIONS = 16_384


class RunPlan:
    """What every run of a scenario derives from it and no seed changes.

    Built once with the scenario, as `Scenario.plan`. `group_words` sizes
    the grouping stream's first pass. A group draw takes one word per
    member while more than one device is left to pick from, so a run with
    no exclusion and no rejected word draws min(group_size, population - 1)
    words in each of its ceil(rounds / regroup_period) epochs. The first
    pass holds that many, LANES at most, and a run that draws more reads on
    in passes of LANES words.

    Only two parts grow: the verdict table, by the (agree, disagree) splits runs reach, and the
    cache of classified groups, up to MEMO_POSITIONS positions. Neither
    holds a run's streams.

    It holds no reference to its scenario, nor the cache one to the plan:
    the scenario holds the plan, so a cycle back would keep a dropped
    scenario, its plan and classified groups alive until a full garbage
    collection. The cache wraps _classify over the adversary map and bound.
    """

    def __init__(self, sc: "Scenario"):
        profiles = sc.adversary_map
        epochs = -(-sc.rounds // sc.regroup_period)
        self.group_words = min(LANES, epochs * min(sc.group_size, sc.population - 1))
        # op_prefix[i]: the summed op counts of the first i routines of the cycle.
        self.op_prefix = tuple(accumulate((s.op_count for s in sc.routine_order), initial=0))
        # The members whose place in a group the kernel's classes depend on:
        # the special devices and the devices a FRAME reporter targets.
        specials = (d for d, p in profiles.items() if is_special(p))
        framed = (p.targets for p in profiles.values() if p.reporting is ReportingKind.FRAME)
        self.layout_devices = frozenset(specials).union(*framed)
        # A member's marker: itself if in layout_devices, else None.
        self.marker = {d: d for d in self.layout_devices}.get
        trojans = {d: p.trojan for d, p in profiles.items() if p.trojan is not None}
        self.evader_trojans = {
            d: {t: trojans[t] for t in p.targets if t in trojans}
            for d, p in profiles.items()
            if p.initiator_policy is InitiatorKind.EVADE
        }
        self.verdicts = verdict_table(sc.group_size, sc.quorum)
        # One (Tally, Outcome) per AGREE count, and the framing bound they give.
        self.lossless_verdicts = lossless_verdicts(self.verdicts)
        self.bound = framing_bound(self.lossless_verdicts)
        # A group's classes, by the tuple of its members' markers.
        classify = partial(_classify, profiles, self.bound)
        self.classify = lru_cache(MEMO_POSITIONS // sc.group_size)(classify)


# A group's classes: its special members, loud spots and RANDOM reporters.
Classes = tuple[
    dict[int, AdversaryProfile], dict[int, tuple[int, int, int] | None], tuple[int, ...]
]


def _classify(
    profiles: dict[int, AdversaryProfile], bound: int, key: tuple[int | None, ...]
) -> Classes:
    """A group's special members, its loud spots and its RANDOM reporters.

    `profiles` is the scenario's adversary map and `bound` its run plan's
    framing bound. `key` holds each member's marker, in group order: the
    member if it is in the run plan's `layout_devices` (a special device or
    a FRAME target), else None, a plain member. The special members map to
    their profiles in group order. While the checkee's answer is honest, a
    checker can dissent only if its fault is not HONEST, it is a FRAME
    reporter targeting the checkee, or it is a RANDOM reporter; up to
    `bound` of them cannot change a TRUSTED outcome. So a checkee position
    is FULL when the checkee is ALWAYS_WRONG or more checkers can dissent
    than that bound. Past that, a Trojan checkee's answer is honest unless
    its trigger fires (TRIGGER), and any other checkee's always is (FREE). A
    Trojan whose EVADE initiator shields it is TRIGGER too:
    choose_adversarial_operands rewrites the operand its trigger reads so
    that a masked trigger misses, so the round ends TRUSTED whether or not
    the honest word fires it, and a mask-0 trigger fires on every word,
    rewritten or not. The loud spots map each position that is not FREE to
    its trigger's (operand_index, mask, match), or to None at a FULL one.
    """
    specials = {d: profiles[d] for d in key if d in profiles and is_special(profiles[d])}

    def spot(checkee):
        dissenters = sum(
            d != checkee
            and (
                p.fault is not FaultKind.HONEST
                or p.reporting is ReportingKind.RANDOM
                or (p.reporting is ReportingKind.FRAME and checkee in p.targets)
            )
            for d, p in specials.items()
        )
        profile = profiles.get(checkee, HONEST_PROFILE)
        if profile.fault is FaultKind.ALWAYS_WRONG or dissenters > bound:
            return None
        if profile.fault is not FaultKind.TROJAN:
            return FREE
        t = profile.trojan
        return t.operand_index, t.mask, t.match

    # Every plain checkee faces the same checkers, so their positions share one spot.
    plain = spot(None)
    spots = {i: s for i, d in enumerate(key) if (s := plain if d is None else spot(d)) != FREE}
    randoms = tuple(d for d, p in specials.items() if p.reporting is ReportingKind.RANDOM)
    return specials, spots, randoms


def _tally_round(
    sc: "Scenario",
    members: tuple[int, ...],
    specials: dict[int, AdversaryProfile],
    streams: dict[int, SplitMix64],
    r: int,
    spec: RoutineSpec,
    seed: int,
) -> tuple[Verdict, tuple[int, ...], int, int, dict[int, Opinion]]:
    """One latency-free round at tally level: the verdict every member reaches.

    `specials` maps the group's special members, in group order, to their
    profiles; every other member is plain. Plain members yield the honest
    output, so only special ones go through protocol.answers and
    protocol.opinion (each RANDOM reporter on its stream in `streams`, as in
    the round walk), and the plain checkers' AGREE votes come as one count, which
    indexes the run plan's lossless verdict entries.

    Returns the verdict with what a trace of the round shows: the
    challenge's operands, the honest output, the checkee's answer and each
    special checker's opinion. A plain checker agrees when the answer is
    the honest output.
    """
    n = len(members)
    checkee = members[r % n]
    ops, honest, outputs = answers(sc.plan, members, specials, r, spec, seed)
    answer = outputs.get(checkee, honest)
    plain_checkers = n - len(specials) - (checkee not in outputs)
    agree = plain_checkers if answer == honest else 0
    opinions: dict[int, Opinion] = {}
    for m, p in specials.items():
        if m != checkee:
            opinions[m] = o = opinion(p, outputs[m], answer, checkee, streams.get(m))
            if o is Opinion.AGREE:
                agree += 1
    tally, outcome = sc.plan.lossless_verdicts[agree]
    return Verdict(checkee, r, outcome, tally), ops, honest, answer, opinions


def _check_run_identities(counters: TrafficCounters, energy: EnergyLedger) -> None:
    """Message conservation and the transmit and receive ledgers, checked at the end of a run."""
    c = counters
    accounted = c.delivered + c.dropped + c.late + c.in_flight
    if c.sent != accounted:
        raise ProtocolViolation(
            f"message conservation: sent {c.sent} != delivered+dropped+late+in_flight {accounted}"
        )
    charged = received = 0
    for u in energy.usage.values():
        charged += u.sent
        received += u.received
    if charged != c.sent:
        raise ProtocolViolation(f"energy ledger: devices charged {charged} sends, counters say {c.sent}")
    expected = c.delivered + c.late - c.purged  # purged deliveries are late, never received
    if received != expected:
        raise ProtocolViolation(
            f"receive ledger: devices charged {received} receptions, counters say {expected}"
        )


def _latencies(words: Iterator[int], count: int, lo: int, span: int, limit: int) -> list[int]:
    """The latencies of `count` unicasts none of which drops, in send order.

    Each takes one word, redrawn while at or above `limit`, and a span of 1
    draws none. The words are drawn in one pass and the rejected ones, rare
    unless span is near 2**63, replaced from the words after them: the
    words a draw unicast by unicast would take.
    """
    if span == 1:
        return [lo] * count
    drawn = list(islice(words, count))
    if max(drawn) >= limit:
        drawn = [z for z in drawn if z < limit]
        drawn += islice(filter(limit.__gt__, words), count - len(drawn))
    return [lo + z % span for z in drawn]


def _peers(members: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Each member's peers, in group order."""
    return {m: tuple(p for p in members if p != m) for m in members}


class _RoundTrace:
    """A run's trace, written one round at a time, each round in one piece at its deadline.

    A round's delivery lines sit in a dict keyed by one int per delivery,
    d * u + j: d is its tick less the round's start, and j its place in the
    round's send order, so sorting the keys sorts the deliveries by (tick,
    seq). _run_rounds fills that dict for its rounds and `round` for a
    latency-free round of the tally kernel; `write_round` writes it.
    """

    def __init__(self, sc: "Scenario", seed: int, sink: TextIO):
        net = sc.network
        self.write = sink.write
        self.words = stream(seed, NETWORK_STREAM).words
        self.lo = net.latency_min
        self.span = net.latency_max - net.latency_min + 1
        # Latency words at or above `limit` are redrawn, so z % span is unbiased.
        self.limit = (1 << 64) - (1 << 64) % self.span
        self.deadline = sc.round_deadline
        self.unicasts = lossless_messages_per_round(sc.group_size)
        self.first_seq = 2 * sc.rounds
        self.members: tuple[int, ...] = ()
        self.group_text = ""
        self.peers: dict[int, tuple[int, ...]] = {}
        self.report_heads: dict[int, str] = {}

    def halt(self, r: int, reason: str) -> None:
        self.write(_halt_line(r * self.deadline, r, reason))

    def join(self, members: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        """Each member's peers, in group order, and the group's text, made once per group."""
        if members is not self.members:
            self.members = members
            self.group_text = ",".join(map(str, members))
            self.peers = _peers(members)
        return self.peers

    def report_head(self, frm: int) -> str:
        heads = self.report_heads
        return heads.get(frm) or heads.setdefault(frm, _report_head(frm))

    def write_round(
        self,
        r: int,
        spec: RoutineSpec,
        lines: dict[int, str],
        pending: list[str],
    ) -> None:
        """Write round r: its start, its deliveries by key, the `pending` VERDICT
        lines and its deadline."""
        members = self.members
        n = len(members)
        t = r * self.deadline
        out = [_round_start_line(t, r, self.group_text, members[r % n], members[(r + 1) % n], spec)]
        out += [lines[k] for k in sorted(lines)]
        out += pending
        out.append(_deadline_line(t + self.deadline, r))
        self.write("".join(out))

    def round(
        self,
        members: tuple[int, ...],
        r: int,
        spec: RoutineSpec,
        v: Verdict,
        ops: tuple[int, ...],
        honest: int,
        answer: int,
        opinions: dict[int, Opinion],
    ) -> None:
        """Write latency-free round r's trace from what _tally_round decided of it.

        Its (n-1)(n+1) unicasts, sent as _run_rounds sends them, all land
        before the deadline, so they take the seqs from 2 * rounds +
        r * (n-1)(n+1) on and one latency word each (_latencies). A checker
        whose own opinion forms after its last incoming report concludes at
        the deadline.
        """
        peers = self.join(members)
        u = self.unicasts
        # The latency of the round's j-th unicast.
        delay = _latencies(self.words, u, self.lo, self.span, self.limit)
        n = len(members)
        t = r * self.deadline
        seq = self.first_seq + r * u
        checkee = members[r % n]
        initiator = members[(r + 1) % n]
        lines: dict[int, str] = {}
        j = 0
        head, tail = _challenge_text(initiator, r, checkee, spec, ops)
        challenged = {}
        for to in peers[initiator]:
            d = delay[j]
            challenged[to] = k = d * u + j
            lines[k] = f"{t + d} {seq + j}{head}{to}{tail}"
            j += 1
        sent = challenged[checkee] // u
        head, tail = _response_text(checkee, r, answer)
        triggers = {}
        for to in peers[checkee]:
            d = sent + delay[j]
            k = d * u + j
            lines[k] = f"{t + d} {seq + j}{head}{to}{tail}"
            c = challenged.get(to, 0)  # 0: the initiator, whose challenge is its own
            triggers[to] = k if k > c else c
            j += 1
        plain = Opinion.AGREE if answer == honest else Opinion.DISAGREE
        agree_tail = _report_tail(r, checkee, Opinion.AGREE)
        disagree_tail = _report_tail(r, checkee, Opinion.DISAGREE)
        heads = self.report_heads
        last = dict.fromkeys(members, 0)  # each member's last incoming report
        for frm in sorted(triggers, key=triggers.__getitem__):
            sent = triggers[frm] // u
            head = heads.get(frm) or heads.setdefault(frm, _report_head(frm))
            tail = agree_tail if opinions.get(frm, plain) is Opinion.AGREE else disagree_tail
            for to in peers[frm]:
                d = sent + delay[j]
                k = d * u + j
                lines[k] = f"{t + d} {seq + j}{head}{to}{tail}"
                if k > last[to]:
                    last[to] = k
                j += 1
        text = _verdict_text(r, checkee, v.tally, v.outcome)
        end = t + self.deadline
        pending = []
        for m in members:
            k = last[m]
            if k < triggers.get(m, 0):
                pending.append(f"{end} {2 * r + 1} VERDICT {m}{text}")
            else:
                d, i = divmod(k, u)
                lines[k] += f"{t + d} {seq + i} VERDICT {m}{text}"
        self.write_round(r, spec, lines, pending)


def _epochs(
    sc: "Scenario", res: RunResult, tracer: _RoundTrace | None
) -> Iterator[tuple[tuple[int, ...], Classes, dict[int, SplitMix64], int, int]]:
    """A run's group epochs in round order, as (members, classes, streams, first, stop).

    A group is drawn with draw_group from the grouping stream at round 0, at
    each multiple of the regroup period, and in the round after one of its
    members is excluded. Its epoch runs from round `first` to `stop`, the
    next multiple or the run's end; a walk that ends it at an exclusion
    leaves res.rounds_executed at the round after, where the next group is
    drawn. When too few devices are eligible, the run halts: res.halt_reason
    is set, a `tracer` writes HALT, and no epoch follows.

    A group's classes are the run plan's cached _classify result for its
    members' markers. `streams` holds the run's report streams: a RANDOM
    reporter's is made at the first epoch it is drawn in.
    """
    seed = res.seed
    plan = sc.plan
    excluded = res.suspicion.excluded_at
    rng_group = stream(seed, GROUPING_STREAM, first=plan.group_words)
    streams: dict[int, SplitMix64] = {}
    period = sc.regroup_period
    rounds = sc.rounds
    r = 0
    while r < rounds:
        try:
            members = draw_group(sc.population, excluded, sc.group_size, rng_group)
        except GroupFormationError as exc:
            res.halt_reason = str(exc)
            if tracer is not None:
                tracer.halt(r, res.halt_reason)
            return
        classes = plan.classify(tuple(map(plan.marker, members)))
        for d in classes[2]:
            if d not in streams:
                streams[d] = report_stream(seed, d)
        yield members, classes, streams, r, min(rounds, (r // period + 1) * period)
        r = res.rounds_executed


def _run_tally(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
    """Latency-free runs: one tally per loud round; traced, every round is loud.

    A spot at position p recurs every n rounds, so an epoch without a
    RANDOM reporter visits only the rounds range(first + (p - first) % n,
    stop, n) of its spots, merged in round order; one with a RANDOM
    reporter visits every round, and a quiet round draws one word per
    RANDOM checker, as the full tally would. Per epoch the quiet rounds are
    folded in one call and the members initiating one round more than the
    others are charged for it. The rest of the closed form is charged once
    per membership streak: an epoch whose group holds every eligible device
    and sees no exclusion leaves its streak open, since the next group has
    the same members, and any other epoch, or the run's last, charges it.
    An exclusion precedes every halt, so no streak is open at one.

    With a `trace` sink every position is a FULL spot, so each round is
    tallied and handed to _RoundTrace; the charges are the untraced ones.
    """
    seed = res.seed
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    excluded = suspicion.excluded_at
    profiles = sc.adversary_map
    routines = sc.routine_order
    n_routines = len(routines)
    n = sc.group_size
    op_prefix = sc.plan.op_prefix
    tracer = None
    if trace is not None:
        tracer = _RoundTrace(sc, seed, trace)
        every = dict.fromkeys(range(n))
    # A group holds every eligible device when this many are excluded.
    everyone_at = sc.population - n
    # The open membership streak: its first round and its epochs' summed
    # `whole` initiations.
    streak_first = streak_whole = 0
    for members, (specials, spots, randoms), streams, first, stop in _epochs(sc, res, tracer):
        everyone = len(excluded) == everyone_at
        if tracer is not None:
            spots = every
        if randoms:
            visit: range | list[int] = range(first, stop)
        elif len(spots) == 1:
            (p,) = spots
            visit = range(first + (p - first) % n, stop, n)
        else:
            # The rounds of each loud spot, merged in round order.
            visit = sorted(chain(*[range(first + (p - first) % n, stop, n) for p in spots]))
        loud = 0
        for r in visit:
            pos = r % n
            checkee = members[pos]
            spec = routines[r % n_routines]
            # None: FULL, loud. FREE: quiet. A trigger: quiet unless its word fires.
            trigger = spots.get(pos, FREE)
            if trigger is not None and (
                not trigger
                or operand_word(seed, r, checkee, spec, trigger[0]) & trigger[1] != trigger[2]
            ):
                for d in randoms:
                    if d != checkee:
                        streams[d].next_u64()
                continue
            v, ops, honest, answer, opinions = _tally_round(
                sc, members, specials, streams, r, spec, seed
            )
            if tracer is not None:
                tracer.round(members, r, spec, v, ops, honest, answer, opinions)
            loud += 1
            # Every member reaches this verdict; devices missing from the
            # sparse `profiles` count as honest.
            stats.fold(v, members, profiles)
            if v.outcome is Outcome.FLAGGED:
                update_suspicion(suspicion, v)
                if v.checkee in excluded:
                    stop = r + 1  # the group is redrawn without it
                    break
        res.rounds_executed = stop
        stats.fold_quiet(members, range(first, stop), loud)
        # The epoch's lossless closed form. Each member initiates `whole`
        # rounds, charged with the streak, and the `part` members from the
        # first round's initiator onward one more: n-1 more sends and one
        # reception fewer.
        whole, part = divmod(stop - first, n)
        streak_whole += whole
        if part:
            for i in range(first + 1, first + 1 + part):
                u = usage[members[i % n]]
                u.sent += n - 1
                u.received -= 1
        # A group that holds every eligible device, none of them excluded
        # since its draw, is drawn again with the same members.
        if everyone and stop < sc.rounds and len(excluded) == everyone_at:
            continue
        # The streak ends here and is charged its closed form. Per round
        # each member runs the round's routine, sends n-1 responses or
        # reports and receives n-1 of them; every member but the initiator
        # receives one challenge, and the initiator sends the n-1 challenges.
        length = stop - streak_first
        phase = streak_first % n_routines
        cycles, rest = divmod(phase + length, n_routines)
        ops = cycles * op_prefix[-1] + op_prefix[rest] - op_prefix[phase]
        sent = (length + streak_whole) * (n - 1)
        received = length * n - streak_whole
        for m in members:
            u = usage[m]
            u.ops += ops
            u.sent += sent
            u.received += received
        streak_first, streak_whole = stop, 0
    messages = lossless_messages_per_round(n) * res.rounds_executed
    res.counters.sent += messages
    res.counters.delivered += messages


def _run_rounds(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
    """Every run that is not latency-free: a walk over the rounds, one call of `play` each.

    A round's sends have a fixed shape: the initiator's challenge fan-out
    at the round's start, the checkee's response fan-out when its challenge
    copy lands in time (none if it drops), and each checker's report
    fan-out at its trigger, the later of its challenge's and its response's
    arrivals (the response's for the initiator), in trigger order. Each
    fan-out goes to the sender's peers in group order, and each unicast
    draws from the network stream's words as it is sent: a drop word unless
    drop_prob is 0, then, unless dropped, a latency word redrawn while at or
    above the rejection limit, unless the latency is fixed. Kept copies
    take seqs from 2 * rounds on, in send order, and keys as in _RoundTrace,
    the previous round's carried copies taking the first places; triggers
    are ordered by their keys.

    A copy that lands at or after the round's end is late: it reaches no
    one and is carried into the next round, whose start counts it late and
    charges its reception. An exclusion purges the round's late copies to
    or from the checkee, counting them late and purged; copies still
    carried when the run ends or halts are in flight. A member's tally is
    its own opinion, if it formed one, and every report copy that reaches
    it in time. Each (agree, disagree) split's verdict is folded once for
    all its members, and the round's first FLAGGED one marks the checkee.

    Untraced, a report fan-out sent before deadline - latency_max cannot
    have a late copy, so it decides drops only: each kept copy's latency
    word is drawn, with its redraws, but never turned into a tick.
    """
    seed = res.seed
    counters = res.counters
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    profiles = sc.adversary_map
    plan = sc.plan
    table = plan.verdicts
    routines = sc.routine_order
    network = sc.network
    words = stream(seed, NETWORK_STREAM).words
    drop_cut = float_cut(network.drop_prob)
    lo = network.latency_min
    span = network.latency_max - lo + 1
    redraw = span > 1
    # Latency words at or above `limit` are redrawn, so z % span is unbiased.
    limit = (1 << 64) - (1 << 64) % span
    deadline = sc.round_deadline
    n = sc.group_size
    # Key stride: a round's copies and the previous round's carried ones.
    u = 2 * lossless_messages_per_round(n)
    tracer = None if trace is None else _RoundTrace(sc, seed, trace)
    AGREE = Opinion.AGREE
    # Late copies as (tick, sender, receiver, trace line or None).
    Late = list[tuple[int, int, int, str | None]]
    carried: Late = []
    next_seq = 2 * sc.rounds

    def fan_out(count: int) -> list[int | None]:
        """The latencies of `count` unicasts in send order, None for a dropped one."""
        if not drop_cut:
            return _latencies(words, count, lo, span, limit)
        out: list[int | None] = []
        for _ in range(count):
            if next(words) < drop_cut:
                out.append(None)
            elif redraw:
                while (z := next(words)) >= limit:
                    pass
                out.append(lo + z % span)
            else:
                out.append(lo)
        return out

    def play(r: int) -> tuple[Late, dict[tuple[int, int], list[int]]]:
        """Round r: its sends and charges, and its trace if traced. Returns the
        round's late copies and its members by (agree, disagree) split, in
        group order."""
        nonlocal next_seq
        t = r * deadline
        spec = routines[r % len(routines)]
        checkee = group[r % n]
        initiator = group[(r + 1) % n]
        ops, honest, outputs = answers(plan, group, specials, r, spec, seed)
        answer = outputs.get(checkee, honest)
        op_count = spec.op_count
        usage[initiator].ops += op_count
        late: Late = []
        lines: dict[int, str] | None = None
        if tracer is not None:
            lines = {(at - t) * u + i: line for i, (at, _, _, line) in enumerate(carried)}
        j = len(carried)
        base = next_seq - j  # the seq of the copy at place j is base + j
        delivered = dropped = 0

        def send(frm: int, sent: int, head: str | None, tail: str | None) -> dict[int, int]:
            # A challenge or response fan-out at tick t + sent: each in-time copy's key by receiver.
            nonlocal j, delivered, dropped
            keys = {}
            counters.sent += n - 1
            usage[frm].sent += n - 1
            for to, d in zip(peers[frm], fan_out(n - 1)):
                if d is None:
                    dropped += 1
                    continue
                d += sent
                k = d * u + j
                line = None if tail is None else f"{t + d} {base + j}{head}{to}{tail}"
                if d < deadline:
                    keys[to] = k
                    usage[to].received += 1
                    delivered += 1
                    if line is not None:
                        lines[k] = line
                else:
                    late.append((t + d, frm, to, line and line[:-1] + " late=1\n"))
                j += 1
            return keys

        texts = lines is not None
        text = _challenge_text(initiator, r, checkee, spec, ops) if texts else (None, None)
        challenged = send(initiator, 0, *text)
        for to in challenged:
            usage[to].ops += op_count
        triggers: dict[int, int] = {}
        if checkee in challenged:
            text = _response_text(checkee, r, answer) if texts else (None, None)
            responded = send(checkee, challenged[checkee] // u, *text)
            challenged[initiator] = 0  # the initiator holds the challenge from the start
            for to, k in responded.items():
                c = challenged.get(to)
                if c is not None:
                    triggers[to] = k if k > c else c
        plain = AGREE if answer == honest else Opinion.DISAGREE
        if texts:
            agree_tail = _report_tail(r, checkee, AGREE)
            disagree_tail = _report_tail(r, checkee, Opinion.DISAGREE)
        early = deadline - network.latency_max
        agree_misses: list[int] = []
        disagree_misses: list[int] = []
        last = dict.fromkeys(group, 0)  # traced: each member's last incoming report
        reports = agrees = reports_late = 0
        for frm in sorted(triggers, key=triggers.__getitem__):
            sent = triggers[frm] // u
            p = specials.get(frm)
            o = plain if p is None else opinion(p, outputs[frm], answer, checkee, streams.get(frm))
            reports += 1
            counters.sent += n - 1
            usage[frm].sent += n - 1
            if o is AGREE:
                agrees += 1
                miss = agree_misses.append
            else:
                miss = disagree_misses.append
            if not texts and sent < early:
                for to in peers[frm]:
                    if drop_cut and next(words) < drop_cut:
                        miss(to)
                    elif redraw:
                        while next(words) >= limit:
                            pass
                continue
            if texts:
                head = tracer.report_head(frm)
                tail = agree_tail if o is AGREE else disagree_tail
            for to in peers[frm]:
                if drop_cut and next(words) < drop_cut:
                    miss(to)
                    continue
                if redraw:
                    while (z := next(words)) >= limit:
                        pass
                    d = sent + lo + z % span
                else:
                    d = sent + lo
                line = None
                if texts:
                    k = d * u + j
                    line = f"{t + d} {base + j}{head}{to}{tail}"
                j += 1
                if d < deadline:
                    if texts:
                        lines[k] = line
                        if k > last[to]:
                            last[to] = k
                else:
                    miss(to)
                    reports_late += 1
                    late.append((t + d, frm, to, line and line[:-1] + " late=1\n"))
        next_seq = base + j
        missed = Counter(agree_misses)
        missed_agree = missed.copy()
        missed.update(disagree_misses)
        # A report's copy is missed when it drops or is late.
        misses = missed.total()
        counters.dropped += dropped + misses - reports_late
        counters.delivered += delivered + reports * (n - 1) - misses
        splits: dict[tuple[int, int], list[int]] = {}
        verdict_texts: dict[tuple[int, int], str] = {}
        end = t + deadline
        pending = []
        for m in group:
            heard = reports - missed[m]
            usage[m].received += heard - (m in triggers)
            a = agrees - missed_agree[m]
            split = a, heard - a
            splits.setdefault(split, []).append(m)
            if texts:
                text = verdict_texts.get(split) or verdict_texts.setdefault(
                    split, _verdict_text(r, checkee, *table[split])
                )
                k = last[m]
                # At the report copy that completes its tally, after its own opinion formed.
                if heard == n - 1 and k > triggers.get(m, 0):
                    d, i = divmod(k, u)
                    lines[k] += f"{t + d} {base + i} VERDICT {m}{text}"
                else:
                    pending.append(f"{end} {2 * r + 1} VERDICT {m}{text}")
        if texts:
            tracer.write_round(r, spec, lines, pending)
        return late, splits

    for group, (specials, _, _), streams, first, stop in _epochs(sc, res, tracer):
        peers = _peers(group) if tracer is None else tracer.join(group)
        for r in range(first, stop):
            # The last round's late copies land during this one.
            counters.late += len(carried)
            for c in carried:
                usage[c[2]].received += 1
            res.rounds_executed = r + 1
            late, splits = play(r)
            carried = late
            # Each split's verdict is folded once for all its members.
            checkee = group[r % n]
            flagged = None
            for split, ids in splits.items():
                tally, outcome = table[split]
                v = Verdict(checkee, r, outcome, tally)
                stats.fold(v, ids, profiles)
                if flagged is None and outcome is Outcome.FLAGGED:
                    flagged = v
            if flagged is not None:
                update_suspicion(suspicion, flagged)
                if suspicion.is_excluded(checkee):
                    carried = [c for c in late if c[1] != checkee and c[2] != checkee]
                    purged = len(late) - len(carried)
                    counters.late += purged
                    counters.purged += purged
                    break  # the group is redrawn without it
    counters.in_flight = len(carried)


def run_simulation(
    scenario: "Scenario", seed: int | None = None, trace: TextIO | None = None
) -> RunResult:
    """One deterministic run of a validated scenario at `seed` (default: its own).

    Latency-free runs take the tally kernel; a `trace` text stream makes it
    render every round. Any other run takes the round walk. Either writes
    each round's trace lines to `trace`, if given, at the round's deadline.
    """
    seed = (scenario.seed if seed is None else seed) & MASK64
    res = RunResult(
        seed=seed,
        rounds_executed=0,
        halt_reason=None,
        stats=DetectionStats(),
        counters=TrafficCounters(),
        energy=EnergyLedger(scenario.energy),
        suspicion=SuspicionLedger(flag_threshold=scenario.flag_threshold),
    )
    if latency_free(scenario):
        _run_tally(scenario, res, trace)
    else:
        _run_rounds(scenario, res, trace)
    _check_run_identities(res.counters, res.energy)
    return res
