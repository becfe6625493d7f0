"""Deterministic discrete-event engine: lossy delivery, round timers, groups.

Virtual time is integer ticks; events are totally ordered by (time, seq):
round r's timers hold seqs 2r and 2r + 1, and messages number from
2 * rounds in send order, so equal-time events resolve in a fixed,
platform-independent order. All randomness comes from named SplitMix64
streams derived from the scenario seed by rng.stream: the network stream
(loss and latency), the grouping stream (ad-hoc membership draws), and one
stream per RANDOM reporter (reporting noise), derived when it first joins
a group. Varying a knob never reshuffles another stream's words, but
within the network stream words are read in send order, so one more drop
shifts the words of every later unicast. The engine's send loops decode
each unicast's loss and latency from the network stream's words, and a
traced kernel run its latency; no other code reads them.

A group is the tuple of its members in draw order, on both paths: the
checkee of round r is member r mod N, the initiator the member after it,
and every verdict is looked up in the scenario's verdict table. Each
message names its round once. A copy is late when it lands at or after the
end of the round it was sent in, so its fate is fixed at send: groups change
only at round starts, and a member sends only to its current peers, so a
copy that lands in time always goes to a member.

Latency-free runs take the kernel; a trace sink makes it render every
round. A run is latency-free when its outcome cannot depend on timing: no
loss, and 3 * latency_max below the round deadline. Every other run takes
the event engine, which, given a trace stream, writes each round's trace
lines there in one piece at its deadline, and tallies each report copy
that lands in time itself: a member concludes when its tally completes or
at the deadline, and the round's verdicts are folded at the deadline, one
per (agree, disagree) split. Untraced, a report triggers no send, so the
engine hands none over and sends the round's reports at its deadline, in
the order they were made, which draws the same words. It records only
who misses each one (a receiver whose copy is dropped or lands at or
after the round's end, and the sender), decodes no latency for a fan-out
too early to have a late copy, and counts late copies of every kind when
the next round starts instead of queueing them. Then one
protocol.settle_round call adds to every member's tally the round's
reports less its misses and concludes the group, one verdict per split.

The tally-level kernel, _run_tally, computes each round's verdict
directly. Both paths read the scenario's RunPlan, what every run derives
from the scenario and no seed changes, built once per scenario and shared
by every repetition. The kernel walks the rounds group epoch by group
epoch, drawing a group only at the regroup period or after an exclusion,
and looks each group up once in the plan's one cache, keyed by its
members' markers. By the paper's framing bound, up to floor((N-1)/2)
dissenting checkers cannot flag a checkee whose answer is honest, so
_classify finds a group's loud spots: the positions whose rounds take the
full tally (FULL) or take it when the checkee's trigger word fires
(TRIGGER). Every other round is quiet: it ends TRUSTED, draws no operands
and is folded in bulk. Messages and energy follow the lossless closed
form. A run derives a report stream only for the RANDOM reporters of the
groups it draws. Traced, the kernel tallies every round and _RoundTrace
writes its trace from its fan-outs' arrival order, drawing the network
stream's latency words as the engine would. The kernel's reports and
traces are byte-identical to the engine's.

Both paths draw groups with draw_group, a sparse Fisher-Yates that makes
the draws of a Fisher-Yates prefix over the list of eligible devices
without listing them, drawing each word with `next` on the grouping
stream's word iterator; both return the members tuple.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from collections.abc import Collection
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import accumulate, chain, islice

from .adversary import (
    HONEST_PROFILE,
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    ReportingKind,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
    is_special,
)
from .errors import ContractError, GroupFormationError, ProtocolViolation
from .metrics import (
    DetectionStats,
    EnergyLedger,
    TrafficCounters,
    lossless_messages_per_round,
)
from .protocol import (
    Challenge,
    ComparisonReport,
    DeviceState,
    Message,
    Response,
    begin_round,
    handle_check_request,
    handle_response,
    on_round_start,
    round_checkee,
    round_initiator,
    settle_round,
    split_verdicts,
)
from .record import Frozen, Record
from .rng import LANES, MASK64, SplitMix64, float_cut, stream
from .routines import RoutineSpec, execute, generate_operands, operand_word
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
    """Per-unicast loss and latency. Latencies are whole ticks in [min, max]."""

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

    The members are those a Fisher-Yates shuffle of the first `size`
    positions of the sorted eligible list picks, in shuffled order (it
    fixes the checkee rotation), from the same draws but without the list:
    a sparse Fisher-Yates shuffles ranks: the positions below `size` are a
    list, and only the swapped positions at or beyond it are kept, in a
    dict. Each chosen rank maps to its device by bisecting the sorted
    exclusions. O(size + len(excluded)) times a log, not O(population).
    Each draw below `bound` rejects a word at or above 2**64 - 2**64 % bound.
    No bound exceeds n, so that limit is above the band 2**64 - n, and it is
    worked out only for a word in the band.
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


def _trace_text(msg: Challenge | Response, frm: int) -> tuple[str, str]:
    """The text of a delivery line of a challenge or response from `frm`, around its receiver.

    A delivery's line is f"{time} {seq}{head}{to}{tail}": `head` holds the
    kind and sender, `tail` the payload and newline. Both are the same for
    every receiver of a fan-out, so they are built once per fan-out. A
    report's come from _report_head and _report_tail, which the trace
    writers call once per sender and once per (round, opinion).
    """
    if type(msg) is Challenge:
        ops = ",".join(map(str, msg.ops))
        return (
            f" CHALLENGE {frm} ",
            f" round={msg.round} checkee={msg.checkee} spec={msg.spec.id}"
            f" ops={ops} cid={msg.round}\n",
        )
    return f" RESPONSE {frm} ", f" cid={msg.round} output={msg.output}\n"


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


def _next_group(
    group: tuple[int, ...] | None,
    r: int,
    sc: "Scenario",
    suspicion: SuspicionLedger,
    rng_group: SplitMix64,
) -> tuple[int, ...]:
    """Round r's group: redrawn on the regroup period or after an exclusion.

    Raises GroupFormationError when too few devices remain eligible.
    """
    excluded = suspicion.excluded_at
    if group is not None and r % sc.regroup_period != 0 and excluded.keys().isdisjoint(group):
        return group
    return draw_group(sc.population, excluded, sc.group_size, rng_group)


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


def _classify(
    profiles: dict[int, AdversaryProfile], bound: int, key: tuple[int | None, ...]
) -> tuple[dict[int, AdversaryProfile], dict[int, tuple[int, int, int] | None], tuple[int, ...]]:
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
    output, so only special ones go through apply_fault and distort_opinion
    (each RANDOM reporter on its stream in `streams`, as in the event
    engine), and the plain checkers' AGREE votes come as one count, which
    indexes the run plan's lossless verdict entries.

    Returns the verdict with what a trace of the round shows: the
    challenge's operands, the honest output, the checkee's answer and each
    special checker's opinion. A plain checker agrees when the answer is
    the honest output.
    """
    n = len(members)
    checkee = members[r % n]
    ops = generate_operands(seed, r, checkee, spec)
    initiator = members[(r + 1) % n]
    if initiator in specials:
        colluders = sc.plan.evader_trojans.get(initiator, {})
        ops = choose_adversarial_operands(specials[initiator], ops, colluders, checkee)
    honest = execute(spec, ops)
    outputs = {m: apply_fault(p, spec, ops, honest) for m, p in specials.items()}
    answer = outputs.get(checkee, honest)
    plain_checkers = n - len(specials) - (checkee not in outputs)
    agree = plain_checkers if answer == honest else 0
    opinions: dict[int, Opinion] = {}
    for m, p in specials.items():
        if m != checkee:
            truth = Opinion.AGREE if outputs[m] == answer else Opinion.DISAGREE
            opinions[m] = opinion = distort_opinion(p, truth, checkee, streams.get(m))
            if opinion is Opinion.AGREE:
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


class _RoundTrace:
    """A latency-free run's trace, written by the tally kernel one round at a time.

    Every round of such a run sends its (n-1)(n+1) unicasts, and each lands
    before the round's deadline, so the event engine numbers round r's
    messages from 2 * rounds + r * (n-1)(n+1) in send order and draws each
    one latency word, redrawn by rejection, in that order. `round` draws
    the round's latencies in one pass and sends as the engine does: the
    challenge fan-out at the round's start, the checkee's response fan-out
    when its challenge lands, then each checker's report fan-out at its
    trigger, in trigger order. A checker's trigger is the later of its
    challenge's and response's arrivals, or its response's for the
    initiator, which holds the challenge from the start. The round's
    deliveries are sorted by arrival (tick, seq), kept as one int key, and
    written with the round's other lines in one piece, as the engine
    writes them at the deadline. A member's VERDICT line follows the report
    copy that completes its tally; a checker whose own opinion forms after
    its last incoming report concludes at the deadline timer instead, with
    every other member still pending, in group order.
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
        self.peers: dict[int, tuple[int, ...]] = {}  # each member's, in group order
        self.report_heads: dict[int, str] = {}

    def halt(self, r: int, reason: str) -> None:
        self.write(_halt_line(r * self.deadline, r, reason))

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
        """Write round r's trace from what _tally_round decided of it."""
        if members is not self.members:
            self.members = members
            self.group_text = ",".join(map(str, members))
            self.peers = {m: tuple(p for p in members if p != m) for m in members}
        peers = self.peers
        u = self.unicasts
        lo = self.lo
        span = self.span
        # The latency of the round's j-th unicast.
        if span == 1:
            delay = [lo] * u
        else:
            words = list(islice(self.words, u))
            limit = self.limit
            if max(words) >= limit:  # a word to redraw: rare unless span is near 2**63
                words = [z for z in words if z < limit]
                words += islice(filter(limit.__gt__, self.words), u - len(words))
            delay = [lo + z % span for z in words]
        n = len(members)
        t = r * self.deadline
        seq = self.first_seq + r * u
        checkee = members[r % n]
        initiator = members[(r + 1) % n]
        # A delivery's key: its tick less t, times u, plus its seq less `seq`.
        lines: dict[int, str] = {}
        j = 0
        head, tail = _trace_text(Challenge(r, initiator, checkee, spec, ops, honest), initiator)
        challenged = {}
        for to in peers[initiator]:
            d = delay[j]
            challenged[to] = k = d * u + j
            lines[k] = f"{t + d} {seq + j}{head}{to}{tail}"
            j += 1
        sent = challenged[checkee] // u
        head, tail = _trace_text(Response(r, checkee, answer), checkee)
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
        pending = []
        for m in members:
            k = last[m]
            if k < triggers.get(m, 0):
                pending.append(m)
            else:
                d, i = divmod(k, u)
                lines[k] += f"{t + d} {seq + i} VERDICT {m}{text}"
        end = t + self.deadline
        out = [_round_start_line(t, r, self.group_text, checkee, initiator, spec)]
        out += [lines[k] for k in sorted(lines)]
        out += [f"{end} {2 * r + 1} VERDICT {m}{text}" for m in pending]
        out.append(_deadline_line(end, r))
        self.write("".join(out))


def _run_tally(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
    """Latency-free runs: one tally per loud round, no events; traced, every round is loud.

    Rounds are walked group epoch by group epoch: a group is drawn at the
    regroup period and after an exclusion. Each epoch looks its group up
    once in the run plan's cache of _classify results, keyed by the tuple
    of its members' markers: its special members, its loud spots and its
    RANDOM reporters, whose report streams a run makes at the first epoch
    each is drawn in. A spot at position p recurs every n rounds, so a
    group without a RANDOM reporter visits only the rounds
    range(first + (p - first) % n, stop, n) of its spots, merged in round
    order; one with a RANDOM reporter visits every round, to draw its
    words. A FULL spot's round takes the full tally, and a TRIGGER spot's
    takes it only when the operand word its trigger reads fires. Any other
    round is quiet and draws one word per RANDOM checker, as the full
    tally would. Per epoch the quiet rounds are folded in one call and
    the members initiating one round more than the others are charged for
    it. The rest of the closed form is charged once per membership streak:
    an epoch whose group holds every eligible device and sees no exclusion
    leaves its streak open, since the next group has the same members, and
    any other epoch, or the run's last, charges it. An exclusion precedes
    every halt, so no streak is open at one.

    With a `trace` sink every position of every group is a FULL spot, so
    each round is tallied, folded and handed to _RoundTrace, which writes
    it; a halt writes its HALT line. The group walk, halts and closed-form
    charges are the untraced ones.
    """
    seed = res.seed
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    excluded = suspicion.excluded_at
    rng_group = stream(seed, GROUPING_STREAM, first=sc.plan.group_words)
    profiles = sc.adversary_map
    routines = sc.routine_order
    n_routines = len(routines)
    period = sc.regroup_period
    rounds = sc.rounds
    n = sc.group_size
    plan = sc.plan
    marker = plan.marker
    classify = plan.classify
    op_prefix = plan.op_prefix
    streams: dict[int, SplitMix64] = {}
    tracer = None
    if trace is not None:
        # Traced, every position is a FULL spot, so every round is tallied and written.
        tracer = _RoundTrace(sc, seed, trace)
        every = dict.fromkeys(range(n))

        def classify(key, _classify=classify):
            specials, _, randoms = _classify(key)
            return specials, every, randoms

    # A group holds every eligible device when this many are excluded.
    everyone_at = sc.population - n
    # The open membership streak: its first round and its epochs' summed
    # `whole` initiations.
    streak_first = streak_whole = 0
    r = 0
    while r < rounds:
        try:
            members = draw_group(sc.population, excluded, n, rng_group)
        except GroupFormationError as exc:
            res.halt_reason = str(exc)
            if tracer is not None:
                tracer.halt(r, res.halt_reason)
            break
        everyone = len(excluded) == everyone_at
        specials, spots, randoms = classify(tuple(map(marker, members)))
        for d in randoms:
            if d not in streams:
                streams[d] = report_stream(seed, d)
        first = r
        stop = min(rounds, (first // period + 1) * period)
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
        r = stop
        # A group that holds every eligible device, none of them excluded
        # since its draw, is drawn again with the same members.
        if everyone and r < rounds and len(excluded) == everyone_at:
            continue
        # The streak ends here and is charged its closed form. Per round
        # each member runs the round's routine, sends n-1 responses or
        # reports and receives n-1 of them; every member but the initiator
        # receives one challenge, and the initiator sends the n-1 challenges.
        length = r - streak_first
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
        streak_first, streak_whole = r, 0
    res.rounds_executed = r
    messages = lossless_messages_per_round(n) * r
    res.counters.sent += messages
    res.counters.delivered += messages


def _run_events(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
    """Every unicast through per-tick delivery buckets, with loss, latency and trace.

    A handler returns at most one message; dispatch_sends sends it to each
    of the sender's peers, drawing each unicast's fate from the network
    stream's words as it goes: a drop word unless drop_prob is 0, then,
    unless dropped, a latency word redrawn by rejection unless the latency
    is fixed. This loop charges every op, send and reception: a challenge's
    ops as it is built and as it is handled on time. Events run in (tick,
    seq) order. Round timers are computed, not queued: round r starts at
    r * deadline with seq 2r and ends at (r + 1) * deadline with seq
    2r + 1, so at any tick the timers fire before its deliveries, which
    number from 2 * rounds in send order (a drop takes none). Each tick's
    deliveries sit in one list in seq order; a heap holds only the ticks
    that have one. A copy is late exactly when it lands at or after
    (current_round + 1) * deadline, so its sender decides it: traced, a
    late copy's entry carries no message (None), and at delivery it is
    only counted and charged. A tick's deliveries are counted once, less
    its late copies. A delivery's trace line, ` late=1` included, is fixed
    when its message is sent, from text built once per fan-out (a report's
    head once per sender and its tail once per round and opinion; ` late=1`
    only for a late copy), and waits in its bucket entry (None when
    untraced). Trace lines collect in a list that is written in one
    piece at each round's deadline, and at a halt or an error. Traced, a
    report copy that lands in time is tallied in the delivery loop, which
    concludes its receiver once it has heard every checker, and the
    deadline concludes every member still pending, in group order. A
    member concludes by writing its VERDICT line, from its split's text
    for the round, and joining its split's issuers; the deadline takes each split's
    verdict from split_verdicts. With no trace, the queue holds only
    challenges and responses that land in time, and it is empty at every
    deadline. A late copy is held as its entry instead: latency_max is
    below the deadline, so it lands during the next round, whose start
    counts it late and charges its reception; the deadline's purge covers
    held copies too, and those still held when the run ends or halts are
    in flight. A report triggers no send, so it is only noted as (sender,
    send tick, AGREE or not). At the deadline the round's reports are sent
    in that order: a round's challenge fan-out comes first, its one
    response fan-out second, and then only reports until the next round,
    so each unicast draws the words it would have drawn at its send tick.
    A report is tallied by its misses: the sender and each receiver whose
    copy is dropped or late miss it. A fan-out sent before deadline -
    latency_max cannot have a late copy, so it decides drops only: each
    kept copy's latency word is drawn, and redrawn while at or above the
    rejection limit, but never turned into a tick. settle_round then
    tallies and concludes the whole group, and each member is charged the
    receptions of the reports it did not miss. On both paths each verdict
    is folded once for all its issuers, and the round's first FLAGGED one
    marks its checkee.
    """
    seed = res.seed
    counters = res.counters
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    profiles = sc.adversary_map
    routine_order = sc.routine_order
    # A device's state is made when it first joins a group; devices that
    # never do have none.
    states: dict[int, DeviceState] = {}
    rng_group = stream(seed, GROUPING_STREAM, first=sc.plan.group_words)
    network = sc.network
    words = stream(seed, NETWORK_STREAM).words
    drop_cut = float_cut(network.drop_prob)
    lo = network.latency_min
    span = network.latency_max - lo + 1
    # Latency words at or above `limit` are redrawn, so z % span is unbiased.
    limit = (1 << 64) - (1 << 64) % span
    deadline = sc.round_deadline
    last_round = sc.rounds - 1
    # tick -> its deliveries as (seq, message or None if late, sender,
    # receiver, trace line or None)
    buckets: dict[int, list[tuple[int, Message | None, int, int, str | None]]] = {}
    ticks: list[int] = []
    next_seq = 2 * sc.rounds

    # Traced runs: the current round's trace lines, written at its deadline.
    lines: list[str] | None = None if trace is None else []
    emit = None if lines is None else lines.append
    table = sc.plan.verdicts
    # Traced runs: the text the round's VERDICT lines end in, by split; the
    # round's issuers by split; and the text of the group's members, of a
    # sender's report and of the round's report of each opinion.
    verdict_texts: dict[tuple[int, int], str] = {}
    issuers: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    group_text = ""
    report_heads: dict[int, str] = {}
    report_tails: dict[bool, str] = {}
    flagged: Verdict | None = None  # the current round's first FLAGGED verdict
    # Untraced: the round's reports as (sender, send tick, AGREE or not),
    # sent at its deadline, and its late copies, held as queue entries
    # until the next round starts: each lands during that round.
    noted: list[tuple[int, int, bool]] = []
    held: list[tuple[int, None, int, int, None]] = []
    redraw = span > 1
    group: tuple[int, ...] | None = None
    group_states: tuple[DeviceState, ...] = ()
    current_round = -1
    AGREE = Opinion.AGREE

    def dispatch_sends(frm: int, msg: Message, now: int) -> None:
        nonlocal next_seq
        if type(msg) is ComparisonReport:
            if emit is None:
                # Untraced, a report triggers nothing: it goes out at the deadline.
                noted.append((frm, now, msg.opinion is AGREE))
                return
            head = report_heads.get(frm)
            if head is None:
                head = report_heads[frm] = _report_head(frm)
            # Keyed by a bool: an Opinion's hash runs in Python.
            agree = msg.opinion is AGREE
            tail = report_tails.get(agree)
            if tail is None:
                tail = report_tails[agree] = _report_tail(msg.round, msg.checkee, msg.opinion)
        elif emit is None:
            head = tail = None
        else:
            head, tail = _trace_text(msg, frm)
        peers = states[frm].peers
        n = len(peers)
        # Transmissions are charged even when the channel drops them.
        counters.sent += n
        usage[frm].sent += n
        seq = next_seq
        # A copy landing at or after the round's end is late: traced, it is
        # queued without its message and its trace line says late=1;
        # untraced, it is held.
        late_at = (current_round + 1) * deadline
        soonest = now + lo
        for to in peers:
            if drop_cut and next(words) < drop_cut:
                continue
            if span == 1:
                at = soonest
            else:
                while (z := next(words)) >= limit:
                    pass
                at = soonest + z % span
            if at < late_at:
                body, text = msg, tail
            elif tail is None:
                held.append((seq, None, frm, to, None))
                seq += 1
                continue
            else:
                body, text = None, tail[:-1] + " late=1\n"
            bucket = buckets.get(at)
            if bucket is None:
                bucket = buckets[at] = []
                heappush(ticks, at)
            line = None if text is None else f"{at} {seq}{head}{to}{text}"
            bucket.append((seq, body, frm, to, line))
            seq += 1
        counters.dropped += n - (seq - next_seq)  # a drop takes no seq
        next_seq = seq

    def conclude(state: DeviceState, t: int, seq: int) -> None:
        # Traced runs: the member concludes from its tally as it stands. Its
        # VERDICT line is written now, and its split folded at the deadline.
        state.verdict_emitted = True
        split = state.agree, state.heard - state.agree
        text = verdict_texts.get(split)
        if text is None:
            text = verdict_texts[split] = _verdict_text(state.round, state.checkee, *table[split])
        emit(f"{t} {seq} VERDICT {state.id}{text}")
        issuers[split].append(state.id)

    def flush() -> None:
        text = "".join(lines)
        lines.clear()
        trace.write(text)

    timer = 0  # seq of the next round timer
    try:
        while True:
            timer_at = ((timer + 1) >> 1) * deadline
            if ticks and ticks[0] < timer_at:
                t = heappop(ticks)
                # A zero-latency send appends to this very bucket; the loop
                # reaches it, since list iteration runs to the current end.
                bucket = buckets[t]
                late = 0
                for seq, msg, frm, to, line in bucket:
                    usage[to].received += 1
                    if line is not None:
                        emit(line)
                    if msg is None:
                        late += 1
                        continue
                    state = states[to]
                    kind = type(msg)
                    if kind is ComparisonReport:
                        # Only traced runs queue a report copy that lands in time.
                        state.heard += 1
                        state.agree += msg.opinion is AGREE
                        if state.heard == state.n_checkers:
                            conclude(state, t, seq)
                    elif kind is Challenge:
                        usage[to].ops += msg.spec.op_count
                        if (out := handle_check_request(state, msg)) is not None:
                            dispatch_sends(to, out, t)
                    elif (out := handle_response(state, msg)) is not None:
                        dispatch_sends(to, out, t)
                counters.late += late
                counters.delivered += len(bucket) - late
                del buckets[t]
                continue

            t, seq, r = timer_at, timer, timer >> 1
            timer += 1
            if not seq & 1:  # round r starts
                try:
                    new_group = _next_group(group, r, sc, suspicion, rng_group)
                except GroupFormationError as exc:
                    res.halt_reason = str(exc)
                    if emit is not None:
                        emit(_halt_line(t, r, res.halt_reason))
                    break
                # Untraced, the last round's late copies land during this one.
                counters.late += len(held)
                for e in held:
                    usage[e[3]].received += 1
                held.clear()
                if new_group is not group:
                    group = new_group
                    for m in group:
                        state = states.get(m)
                        if state is None:
                            profile = profiles.get(m, HONEST_PROFILE)
                            random = profile.reporting is ReportingKind.RANDOM
                            state = states[m] = DeviceState(
                                device_id=m,
                                profile=profile,
                                routine_order=routine_order,
                                rng=report_stream(seed, m) if random else None,
                                verdicts=sc.plan.verdicts,
                                colluder_trojans=sc.plan.evader_trojans.get(m),
                            )
                        state.join(group)
                    group_states = tuple(states[m] for m in group)
                    if emit is not None:
                        group_text = ",".join(map(str, group))
                current_round = r
                flagged = None
                begin_round(group_states, r)
                initiator = round_initiator(group, r)
                if emit is not None:
                    spec = routine_order[r % len(routine_order)]
                    checkee = round_checkee(group, r)
                    emit(_round_start_line(t, r, group_text, checkee, initiator, spec))
                    verdict_texts.clear()
                    report_tails.clear()
                ch = on_round_start(states[initiator], r, seed)
                usage[initiator].ops += ch.spec.op_count
                dispatch_sends(initiator, ch, t)
                res.rounds_executed = r + 1
                continue

            # Round r's deadline.
            if emit is None:
                # The round's reports go out now, in the order they were
                # made, drawing the words they would have drawn when made.
                # A fan-out sent before `early` cannot have a late copy, so
                # it only decides its drops.
                reports = len(noted)
                agrees = 0
                agree_misses: list[int] = []
                disagree_misses: list[int] = []
                early = t - network.latency_max
                held_before = len(held)
                for frm, now, agree in noted:
                    peers = states[frm].peers
                    n = len(peers)
                    counters.sent += n
                    usage[frm].sent += n
                    # The sender misses its own report: handle_response counted it.
                    if agree:
                        agrees += 1
                        miss = agree_misses.append
                    else:
                        miss = disagree_misses.append
                    miss(frm)
                    if now < early:
                        for to in peers:
                            if drop_cut and next(words) < drop_cut:
                                miss(to)
                            elif redraw:
                                while next(words) >= limit:
                                    pass
                        continue
                    soonest = now + lo
                    for to in peers:
                        if drop_cut and next(words) < drop_cut:
                            miss(to)
                            continue
                        if span == 1:
                            at = soonest
                        else:
                            while (z := next(words)) >= limit:
                                pass
                            at = soonest + z % span
                        if at >= t:
                            miss(to)
                            held.append((0, None, frm, to, None))  # a report takes no seq
                noted.clear()
                missed = Counter(agree_misses)
                missed_agree = missed.copy()
                missed.update(disagree_misses)
                settled = settle_round(group_states, r, reports, agrees, missed, missed_agree)
                # Each member received in time every report it did not miss.
                for m in group:
                    if heard := reports - missed.get(m, 0):
                        usage[m].received += heard
                # A miss is the sender's own copy, a drop or a late copy.
                misses = missed.total()
                counters.delivered += reports * len(group) - misses
                counters.dropped += misses - reports - (len(held) - held_before)
            else:
                # Every member still pending concludes, in group order.
                for state in group_states:
                    if not state.verdict_emitted:
                        conclude(state, t, seq)
                settled = split_verdicts(group_states[0], issuers)
                issuers.clear()
            # Each split's verdict is folded once for all its issuers.
            for v, ids in settled:
                stats.fold(v, ids, profiles)
                if flagged is None and v.outcome is Outcome.FLAGGED:
                    flagged = v
            if flagged is not None:
                # One suspicion update per round: any device's FLAGGED
                # verdict marks the round against the checkee.
                update_suspicion(suspicion, flagged)
                checkee = flagged.checkee
                if suspicion.is_excluded(checkee):
                    # Untraced, the queue is empty here: only held copies remain.
                    for bucket in (*buckets.values(), held):
                        keep = [e for e in bucket if e[2] != checkee and e[3] != checkee]
                        purged = len(bucket) - len(keep)
                        counters.late += purged
                        counters.purged += purged
                        bucket[:] = keep
            if emit is not None:
                emit(_deadline_line(t, r))
                flush()
            if r == last_round:
                break
    finally:
        if lines:
            flush()

    counters.in_flight = sum(len(b) for b in buckets.values()) + len(held)


def run_simulation(
    scenario: "Scenario", seed: int | None = None, trace: TextIO | None = None
) -> RunResult:
    """One deterministic run of a validated scenario at `seed` (default: its own).

    Latency-free runs take the tally kernel; a `trace` text stream makes it
    render every round. Any other run takes the event engine. Either writes
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
        _run_events(scenario, res, trace)
    _check_run_identities(res.counters, res.energy)
    return res
