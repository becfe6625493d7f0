"""Deterministic discrete-event engine: lossy delivery, round timers, groups.

Virtual time is integer ticks; events are totally ordered by (time, seq):
round r's timers hold seqs 2r and 2r + 1, and messages number from
2 * rounds in send order, so equal-time events resolve in a fixed,
platform-independent order. All randomness comes from named SplitMix64
streams derived from the scenario seed by rng.stream: the network stream
(loss and latency), the grouping stream (ad-hoc membership draws), and one
stream per RANDOM reporter (reporting noise), derived when it first joins
a group. Varying one knob never reshuffles the others.

A group is the tuple of its members in draw order, on both paths: the
checkee of round r is member r mod N, the initiator the member after it,
and every verdict is looked up in the scenario's verdict table. Each
message names its round once; a delivery is late when that round is over
or the receiver has left the group.

A run given a trace stream goes through the event engine, which writes
each trace line there as its event happens. Untraced, the engine settles a
report that lands before its round's deadline when it is sent, as a report
triggers no send; handlers still see every delivered message exactly once.
Runs with no trace sink whose outcome cannot depend on timing (no loss,
and 3 * latency_max below the round deadline) skip the engine: a tally-
level kernel computes each round's verdict directly. It reads the
scenario's run plan, built once per scenario and shared by every
repetition: the routine table and its op-count prefix sums, the sparse
adversary map with the EVADE devices' colluders, the devices whose place
in a group matters (special ones: a fault, a non-HONEST reporting policy
or an EVADE initiator; and FRAME targets), the verdict table's lossless
entries (one (Tally, Outcome) per possible AGREE count) and a bounded memo
of classified group layouts. The kernel walks the rounds group epoch by
group epoch, drawing a group only at the regroup period or after an
exclusion. A run derives a report stream only for the RANDOM reporters of
the groups it draws.

By the paper's framing bound, up to floor((N-1)/2) dissenting checkers
cannot flag a checkee whose answer is honest. So each checkee position of
a group gets one of three classes, found once per special layout (where
the group's special members and FRAME targets sit) by _classify:
FULL when the checkee is ALWAYS_WRONG, is a colluder of the EVADE device
initiating its round, or has more checkers that can dissent (a fault, a
FRAME reporter targeting it, a RANDOM reporter) than the bound; TRIGGER when the
checkee is a Trojan, whose round is quiet unless the one operand word its
trigger reads fires it; FREE otherwise. A quiet round draws no operands and
builds no Verdict; it ends TRUSTED, and each epoch's quiet rounds are
folded in one DetectionStats.fold_quiet call. A group with no RANDOM
reporter never visits its FREE rounds; with one, each round draws one word
per RANDOM checker, as the engine does. In a loud round plain members take
the honest output and their AGREE votes come as one count, so only special
members go through apply_fault and distort_opinion, and the count indexes
the verdict table. Messages and energy follow the lossless closed form,
charged once per group epoch. Its reports are byte-identical to the
engine's.

Both paths draw groups with draw_group, a sparse Fisher-Yates that makes
the draws of a Fisher-Yates prefix over the list of eligible devices
without listing them; both return the members tuple.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .adversary import (
    HONEST_PROFILE,
    AdversaryProfile,
    FaultKind,
    Opinion,
    ReportingKind,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
    is_special,
)
from .errors import ContractError, GroupFormationError, ProtocolViolation
from .metrics import (
    DetectionStats,
    DeviceUsage,
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
    handle_report,
    handle_response,
    on_round_start,
    on_timeout,
    round_checkee,
    round_initiator,
)
from .rng import MASK64, SplitMix64, stream
from .routines import RoutineSpec, execute, generate_operands, operand_word
from .verdict import Outcome, SuspicionLedger, Verdict, framing_bound, update_suspicion

if TYPE_CHECKING:
    from .scenario import Scenario

# Stream-name tags for deriving independent substreams from one seed.
NETWORK_STREAM = 0x6E657477  # "netw"
GROUPING_STREAM = 0x67727570  # "grup"
REPORT_STREAM = 0x72707274  # "rprt"


@dataclass(frozen=True)
class NetworkModel:
    """Per-unicast loss and latency. Latencies are whole ticks in [min, max]."""

    latency_min: int = 1
    latency_max: int = 3
    drop_prob: float = 0.0
    seed: int | None = None  # explicit network stream seed; None derives from run seed

    def __post_init__(self):
        if not 0 <= self.latency_min <= self.latency_max:
            raise ContractError(
                f"need 0 <= latency_min <= latency_max, got [{self.latency_min}, {self.latency_max}]"
            )
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ContractError(f"drop_prob must be in [0, 1], got {self.drop_prob}")


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
    a sparse Fisher-Yates shuffles ranks, keeping only the swapped
    positions, and each chosen rank maps to its device by bisecting the
    sorted exclusions. O(size + len(excluded)) times a log, not O(population).
    """
    skip = sorted(excluded)
    n = population - len(skip)
    if size > n:
        raise GroupFormationError(f"need {size} devices but only {n} are eligible")
    swapped: dict[int, int] = {}
    ranks = []
    for i in range(size):
        j = i + rng.below(n - i)
        ranks.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return tuple(_nth_eligible(skip, k) for k in ranks) if skip else tuple(ranks)


def _nth_eligible(skip: list[int], rank: int) -> int:
    """The device of this rank (from 0) among those not in the sorted list `skip`.

    It is the least d with d = rank + |skip <= d|; iterating that map from
    d = rank climbs to it without passing it.
    """
    d = rank
    while (nxt := rank + bisect_right(skip, d)) != d:
        d = nxt
    return d


@dataclass
class RunResult:
    """Everything a single run produces; report assembly reads from here."""

    seed: int
    rounds_executed: int
    halt_reason: str | None
    stats: DetectionStats
    counters: TrafficCounters
    energy: EnergyLedger
    suspicion: SuspicionLedger


def _trace_deliver(t: int, seq: int, msg: Message, frm: int, to: int, late: bool) -> str:
    end = " late=1\n" if late else "\n"
    if type(msg) is Challenge:
        ops = ",".join(str(v) for v in msg.ops)
        return (
            f"{t} {seq} CHALLENGE {frm} {to} round={msg.round} checkee={msg.checkee}"
            f" spec={msg.spec.id} ops={ops} cid={msg.round}{end}"
        )
    if type(msg) is Response:
        return f"{t} {seq} RESPONSE {frm} {to} cid={msg.round} output={msg.output}{end}"
    return (
        f"{t} {seq} REPORT {frm} {to} cid={msg.round} checkee={msg.checkee}"
        f" opinion={msg.opinion.value}{end}"
    )


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


class PositionClass(Enum):
    """What the tally kernel computes for the rounds at one checkee position."""

    FREE = "FREE"  # nothing: the round ends TRUSTED
    TRIGGER = "TRIGGER"  # the checkee's trigger word; the full tally only if it fires
    FULL = "FULL"  # the full tally


class _Position(NamedTuple):
    kind: PositionClass
    trigger: TrojanModel | None  # the checkee's, at a TRIGGER position
    randoms: tuple[int, ...]  # the RANDOM reporters among the checkers


class _GroupClasses(NamedTuple):
    """The classes of a group's checkee positions, found from its special layout."""

    specials: dict[int, AdversaryProfile]  # the special members, in group order
    positions: tuple[_Position, ...]
    loud: tuple[int, ...]  # the positions that are not FREE
    randoms: tuple[int, ...]  # the RANDOM reporters among the members


# How many special layouts the memo in a scenario's run plan keeps classified.
LAYOUT_MEMO = 4096


def _classify(sc: "Scenario", layout: tuple[tuple[int, int], ...]) -> _GroupClasses:
    """Give each checkee position of a group with this layout its class.

    `layout` holds the (position, device) pairs of the group's members in
    `sc.layout_devices`: its special members and the devices a FRAME
    reporter targets. Every other member is plain. While the checkee's
    answer is honest, a checker can dissent only if its fault is not HONEST,
    it is a FRAME reporter targeting the checkee, or it is a RANDOM
    reporter; up to framing_bound of them cannot change a TRUSTED outcome.
    A position is FULL when the checkee is ALWAYS_WRONG, when its initiator
    is an EVADE device and the checkee one of its colluders, or when more
    checkers can dissent than that bound. Past that, a Trojan checkee's
    answer is honest unless its trigger fires (TRIGGER), and any other
    checkee's always is (FREE).
    """
    n = sc.group_size
    bound = framing_bound(sc.lossless_verdicts)
    profiles = sc.adversary_map
    at = dict(layout)
    specials = {d: profiles[d] for _, d in layout if d in profiles and is_special(profiles[d])}
    positions = []
    for pos in range(n):
        checkee = at.get(pos, -1)
        profile = profiles.get(checkee, HONEST_PROFILE)
        colluders = sc.evader_trojans.get(at.get((pos + 1) % n, -1), {})
        dissenters = 0
        randoms = []
        for d, p in specials.items():
            if d == checkee:
                continue
            if p.reporting is ReportingKind.RANDOM:
                randoms.append(d)
            if (
                p.fault is not FaultKind.HONEST
                or p.reporting is ReportingKind.RANDOM
                or (p.reporting is ReportingKind.FRAME and checkee in p.targets)
            ):
                dissenters += 1
        if profile.fault is FaultKind.ALWAYS_WRONG or checkee in colluders or dissenters > bound:
            kind = PositionClass.FULL
        elif profile.fault is FaultKind.TROJAN:
            kind = PositionClass.TRIGGER
        else:
            kind = PositionClass.FREE
        trigger = profile.trojan if kind is PositionClass.TRIGGER else None
        positions.append(_Position(kind, trigger, tuple(randoms)))
    return _GroupClasses(
        specials=specials,
        positions=tuple(positions),
        loud=tuple(i for i, p in enumerate(positions) if p.kind is not PositionClass.FREE),
        randoms=tuple(d for d, p in specials.items() if p.reporting is ReportingKind.RANDOM),
    )


def _ops_before(op_prefix: tuple[int, ...], r: int) -> int:
    """The summed op counts of the routines of rounds 0 .. r - 1."""
    cycles, rest = divmod(r, len(op_prefix) - 1)
    return cycles * op_prefix[-1] + op_prefix[rest]


def _quiet_round(
    position: _Position,
    seed: int,
    r: int,
    checkee: int,
    spec: RoutineSpec,
    streams: dict[int, SplitMix64],
) -> bool:
    """Whether round r, at a checkee position of this class, ends TRUSTED by the framing bound.

    A TRIGGER round derives the one operand word the checkee's trigger
    reads. A quiet round draws one word from each RANDOM checker's stream
    in `streams`, as the full tally would; a loud round draws nothing, for
    _tally_round to draw.
    """
    kind = position.kind
    if kind is PositionClass.FULL:
        return False
    t = position.trigger
    if kind is PositionClass.TRIGGER and (
        operand_word(seed, r, checkee, spec, t.operand_index) & t.mask == t.match
    ):
        return False
    for d in position.randoms:
        streams[d].next_u64()
    return True


def _tally_round(
    sc: "Scenario",
    members: tuple[int, ...],
    specials: dict[int, AdversaryProfile],
    streams: dict[int, SplitMix64],
    r: int,
    spec: RoutineSpec,
    seed: int,
) -> Verdict:
    """One latency-free round at tally level: the verdict every member reaches.

    `specials` maps the group's special members, in group order, to their
    profiles; every other member is plain. Plain members yield the honest
    output, so only special ones go through apply_fault and distort_opinion
    (each RANDOM reporter on its stream in `streams`, as in the event
    engine), and the plain checkers' AGREE votes come as one count, which
    indexes the scenario's lossless verdict table.
    """
    n = len(members)
    checkee = members[r % n]
    ops = generate_operands(seed, r, checkee, spec)
    initiator = members[(r + 1) % n]
    if initiator in specials:
        colluders = sc.evader_trojans.get(initiator, {})
        ops = choose_adversarial_operands(specials[initiator], ops, colluders, checkee)
    honest = execute(spec, ops)
    outputs = {m: apply_fault(p, spec, ops, honest) for m, p in specials.items()}
    answer = outputs.get(checkee, honest)
    plain_checkers = n - len(specials) - (checkee not in outputs)
    agree = plain_checkers if answer == honest else 0
    for m, p in specials.items():
        if m != checkee:
            truth = Opinion.AGREE if outputs[m] == answer else Opinion.DISAGREE
            if distort_opinion(p, truth, checkee, streams.get(m)) is Opinion.AGREE:
                agree += 1
    tally, outcome = sc.lossless_verdicts[agree]
    return Verdict(checkee=checkee, round=r, outcome=outcome, tally=tally)


def _charge_epoch(
    usage: dict[int, DeviceUsage], members: tuple[int, ...], first: int, rounds: int, ops: int
) -> None:
    """Charge one group's lossless rounds first .. first + rounds - 1 to its members.

    Per round each member sends n-1 responses or reports and receives n-1 of
    them; every member but the initiator receives one challenge, and the
    initiator sends the n-1 challenges. Member i initiates the rounds r with
    (r + 1) % n == i. `ops` is the routines' summed op_count.
    """
    n = len(members)
    whole, part = divmod(rounds, n)
    for i, m in enumerate(members):
        initiated = whole + ((i - first - 1) % n < part)
        u = usage[m]
        u.ops += ops
        u.sent += (rounds + initiated) * (n - 1)
        u.received += rounds * n - initiated


def _check_run_identities(counters: TrafficCounters, energy: EnergyLedger) -> None:
    """Message conservation and the transmit and receive ledgers, checked at the end of a run."""
    c = counters
    accounted = c.delivered + c.dropped + c.late + c.in_flight
    if c.sent != accounted:
        raise ProtocolViolation(
            f"message conservation: sent {c.sent} != delivered+dropped+late+in_flight {accounted}"
        )
    charged = sum(u.sent for u in energy.usage.values())
    if charged != c.sent:
        raise ProtocolViolation(f"energy ledger: devices charged {charged} sends, counters say {c.sent}")
    received = sum(u.received for u in energy.usage.values())
    expected = c.delivered + c.late - c.purged  # purged deliveries are late, never received
    if received != expected:
        raise ProtocolViolation(
            f"receive ledger: devices charged {received} receptions, counters say {expected}"
        )


def _run_tally(sc: "Scenario", res: RunResult) -> None:
    """Latency-free runs: one tally per loud round, no events, no network draws.

    The scenario's run plan gives the routine table and its op-count prefix
    sums, the sparse adversary map, the lossless verdict table and the memo
    of classified layouts; a run adds only the report streams of the RANDOM
    reporters in the groups it draws, each made at the first epoch it is
    drawn in. Rounds are walked group epoch by group epoch: a group is drawn
    at the regroup period and after an exclusion.
    A group without a RANDOM reporter visits only the rounds at its
    positions that are not FREE; with one, every round, to draw its words.
    Per epoch the quiet rounds are folded in one call and energy is charged
    once.
    """
    seed = res.seed
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    excluded = suspicion.excluded_at
    rng_group = stream(seed, GROUPING_STREAM)
    profiles = sc.adversary_map
    routines = sc.routine_order
    n_routines = len(routines)
    op_prefix = sc.op_prefix
    period = sc.regroup_period
    rounds = sc.rounds
    n = sc.group_size
    marked = sc.layout_devices
    memo = sc.layout_classes
    streams: dict[int, SplitMix64] = {}
    r = 0
    while r < rounds:
        try:
            members = draw_group(sc.population, excluded, n, rng_group)
        except GroupFormationError as exc:
            res.halt_reason = str(exc)
            break
        layout = tuple([(i, m) for i, m in enumerate(members) if m in marked])
        classes = memo.get(layout)
        if classes is None:
            classes = _classify(sc, layout)
            if len(memo) < LAYOUT_MEMO:
                memo[layout] = classes
        for d in classes.randoms:
            if d not in streams:
                streams[d] = report_stream(seed, d)
        first = r
        stop = min(rounds, (first // period + 1) * period)
        if classes.randoms:
            visit: range | list[int] = range(first, stop)
        else:
            visit = [
                b + p
                for b in range(first - first % n, stop, n)
                for p in classes.loud
                if first <= b + p < stop
            ]
        loud = 0
        for r in visit:
            pos = r % n
            spec = routines[r % n_routines]
            if _quiet_round(classes.positions[pos], seed, r, members[pos], spec, streams):
                continue
            v = _tally_round(sc, members, classes.specials, streams, r, spec, seed)
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
        ops = _ops_before(op_prefix, stop) - _ops_before(op_prefix, first)
        _charge_epoch(usage, members, first, stop - first, ops)
        r = stop
    res.rounds_executed = r
    messages = lossless_messages_per_round(n) * r
    res.counters.sent += messages
    res.counters.delivered += messages


def _run_events(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
    """Every unicast through per-tick delivery buckets, with loss, latency and trace.

    Events run in (tick, seq) order. Round timers are computed, not
    queued: round r starts at r * deadline with seq 2r and ends at
    (r + 1) * deadline with seq 2r + 1, so at any tick the timers fire
    before its deliveries, which number from 2 * rounds in send order.
    Each tick's deliveries sit in one list in seq order; a heap holds
    only the ticks that have one. Each trace line goes to `trace` as its
    event happens. With no trace, a report that lands before its round's
    deadline is handed to handle_report when it is sent; it still takes
    its seq, so the queued deliveries keep theirs.
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
    rng_group = stream(seed, GROUPING_STREAM)
    network = sc.network
    # An explicit network seed pins the network stream across run seeds.
    net = stream(seed, NETWORK_STREAM) if network.seed is None else SplitMix64(network.seed)
    fates = net.fates
    drop_prob = network.drop_prob
    lo = network.latency_min
    span = network.latency_max - lo + 1
    deadline = sc.round_deadline
    last_round = sc.rounds - 1
    buckets: dict[int, list[tuple[int, Message, int, int]]] = {}
    ticks: list[int] = []
    next_seq = 2 * sc.rounds

    write = None if trace is None else trace.write
    flagged: Verdict | None = None  # the current round's first FLAGGED verdict
    group: tuple[int, ...] | None = None
    member_set: frozenset[int] = frozenset()
    current_round = -1

    def dispatch_sends(frm: int, outgoing: list[tuple[int, Message]], now: int) -> None:
        nonlocal next_seq
        # Transmissions are charged even when the channel drops them.
        n = len(outgoing)
        counters.sent += n
        usage[frm].sent += n
        seq = next_seq
        settle_by = -1 if write is not None else (current_round + 1) * deadline
        for (to, msg), latency in zip(outgoing, fates(n, drop_prob, lo, span)):
            if to == frm:
                raise ContractError(f"device {frm} cannot send to itself")
            if latency is None:
                counters.dropped += 1
                continue
            at = now + latency
            if at < settle_by and type(msg) is ComparisonReport:
                usage[to].received += 1
                counters.delivered += 1
                maybe = handle_report(states[to], msg)
                if maybe is not None:
                    record_verdict(to, maybe, at, seq)
            else:
                bucket = buckets.get(at)
                if bucket is None:
                    bucket = buckets[at] = []
                    heappush(ticks, at)
                bucket.append((seq, msg, frm, to))
            seq += 1
        next_seq = seq

    def record_verdict(issuer: int, v: Verdict, t: int, seq: int) -> None:
        nonlocal flagged
        stats.fold(v, (issuer,), profiles)
        if flagged is None and v.outcome is Outcome.FLAGGED:
            flagged = v
        if write is not None:
            ta = v.tally
            write(
                f"{t} {seq} VERDICT {issuer} - round={v.round} checkee={v.checkee}"
                f" outcome={v.outcome.value} agree={ta.agree} disagree={ta.disagree}"
                f" missing={ta.missing}\n"
            )

    timer = 0  # seq of the next round timer
    while True:
        timer_at = ((timer + 1) >> 1) * deadline
        if ticks and ticks[0] < timer_at:
            t = heappop(ticks)
            # A zero-latency send appends to this very bucket; the loop
            # reaches it, since list iteration runs to the current end.
            for seq, msg, frm, to in buckets[t]:
                usage[to].received += 1
                late = msg.round != current_round or to not in member_set
                if write is not None:
                    write(_trace_deliver(t, seq, msg, frm, to, late))
                if late:
                    counters.late += 1
                    continue
                counters.delivered += 1
                state = states[to]
                kind = type(msg)
                if kind is ComparisonReport:
                    maybe = handle_report(state, msg)
                    if maybe is not None:
                        record_verdict(to, maybe, t, seq)
                elif kind is Challenge:
                    dispatch_sends(to, handle_check_request(state, msg), t)
                else:
                    dispatch_sends(to, handle_response(state, msg), t)
            del buckets[t]
            continue

        t, seq, r = timer_at, timer, timer >> 1
        timer += 1
        if not seq & 1:  # round r starts
            try:
                new_group = _next_group(group, r, sc, suspicion, rng_group)
            except GroupFormationError as exc:
                res.halt_reason = str(exc)
                if write is not None:
                    write(f"{t} {seq} HALT - - reason={res.halt_reason!r}\n")
                break
            if new_group is not group:
                group = new_group
                member_set = frozenset(group)
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
                            usage=usage[m],
                            verdicts=sc.verdicts,
                            colluder_trojans=sc.evader_trojans.get(m),
                        )
                    state.join(group)
            current_round = r
            flagged = None
            for m in group:
                begin_round(states[m], r)
            initiator = round_initiator(group, r)
            if write is not None:
                members = ",".join(str(m) for m in group)
                spec = routine_order[r % len(routine_order)]
                write(
                    f"{t} {seq} ROUND_START - - round={r} group={members}"
                    f" checkee={round_checkee(group, r)} initiator={initiator}"
                    f" routine={spec.id}\n"
                )
            dispatch_sends(initiator, on_round_start(states[initiator], r, seed), t)
            res.rounds_executed = r + 1
            continue

        # Round r's deadline.
        for m in group:
            state = states[m]
            if not state.verdict_emitted:
                record_verdict(m, on_timeout(state, r), t, seq)
        if flagged is not None:
            # One suspicion update per round: any device's FLAGGED
            # verdict marks the round against the checkee.
            update_suspicion(suspicion, flagged)
            checkee = flagged.checkee
            if suspicion.is_excluded(checkee):
                for at, bucket in buckets.items():
                    keep = [e for e in bucket if e[2] != checkee and e[3] != checkee]
                    purged = len(bucket) - len(keep)
                    counters.late += purged
                    counters.purged += purged
                    buckets[at] = keep
        if write is not None:
            write(f"{t} {seq} ROUND_DEADLINE - - round={r}\n")
        if r == last_round:
            break

    counters.in_flight = sum(len(b) for b in buckets.values())


def run_simulation(
    scenario: "Scenario", seed: int | None = None, trace: TextIO | None = None
) -> RunResult:
    """One deterministic run of a validated scenario at `seed` (default: its own).

    With a `trace` text stream the run goes through the event engine, which
    writes each trace line there as its event happens. Without one, a
    latency-free run takes the tally kernel and any other the engine.
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
    if trace is None and latency_free(scenario):
        _run_tally(scenario, res)
    else:
        _run_events(scenario, res, trace)
    _check_run_identities(res.counters, res.energy)
    return res
