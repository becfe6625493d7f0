"""Deterministic discrete-event engine: lossy delivery, round timers, groups.

Virtual time is integer ticks; events are totally ordered by (time, seq):
round r's timers hold seqs 2r and 2r + 1, and messages number from
2 * rounds in send order, so equal-time events resolve in a fixed,
platform-independent order. All randomness comes from named SplitMix64
streams derived from the scenario seed: the network stream (loss and
latency), the grouping stream (ad-hoc membership draws), and one stream per
device (reporting noise). Varying one knob never reshuffles the others.

A run given a trace stream goes through the event engine, which writes
each trace line there as its event happens. Runs with no trace sink whose
outcome cannot depend on timing (no loss, and 3 * latency_max below the
round deadline) skip the engine: a tally-level kernel computes each round's
verdict directly. It finds the special devices (a fault, a non-HONEST
reporting policy or an EVADE initiator) once per run; plain members take the
honest output and their AGREE votes come as one count, so only special
members go through apply_fault and distort_opinion. Messages and energy
follow the lossless closed form, charged once per group epoch. Its reports
are byte-identical to the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    ReportingKind,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
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
from .rng import MASK64, SplitMix64, mix_words
from .routines import RoutineSpec, execute, generate_operands
from .verdict import Outcome, SuspicionLedger, Tally, Verdict, compute_verdict, update_suspicion

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


@dataclass(frozen=True)
class GroupConfig:
    members: tuple[int, ...]
    quorum: int
    round_deadline: int
    # Derived from members, for O(1) membership tests on the delivery path.
    member_set: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.members))
        if len(self.member_set) != len(self.members):
            raise ContractError("group members must be distinct")
        if len(self.members) < 3:
            raise ContractError(f"group needs at least 3 members, got {len(self.members)}")
        if not 1 <= self.quorum <= len(self.members) - 1:
            raise ContractError(
                f"quorum {self.quorum} out of range [1, {len(self.members) - 1}]"
            )
        if self.round_deadline < 1:
            raise ContractError("round deadline must be at least 1 tick")


def form_group(
    eligible: list[int],
    size: int,
    rng: SplitMix64,
    quorum: int,
    round_deadline: int,
) -> GroupConfig:
    """Draw an ad-hoc group: a uniform subset via a seeded Fisher-Yates prefix.

    Member order is the shuffled order (it fixes the checkee rotation).
    The caller filters out excluded devices before calling.
    """
    if size > len(eligible):
        raise GroupFormationError(
            f"need {size} devices but only {len(eligible)} are eligible"
        )
    pool = list(eligible)
    rng.shuffle_prefix(pool, size)
    return GroupConfig(members=tuple(pool[:size]), quorum=quorum, round_deadline=round_deadline)


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
        ops = ",".join(str(v) for v in msg.ops.values)
        return (
            f"{t} {seq} CHALLENGE {frm} {to} round={msg.round} checkee={msg.checkee}"
            f" spec={msg.spec_id} ops={ops} cid={msg.challenge_id}{end}"
        )
    if type(msg) is Response:
        return f"{t} {seq} RESPONSE {frm} {to} cid={msg.challenge_id} output={msg.output}{end}"
    return (
        f"{t} {seq} REPORT {frm} {to} cid={msg.challenge_id} checkee={msg.checkee}"
        f" opinion={msg.opinion.value}{end}"
    )


def report_stream(seed: int, device: int) -> SplitMix64:
    """Device `device`'s reporting-noise stream for the run at `seed`.

    Hashing (seed, tag, device) keeps the streams of distinct devices and of
    consecutive repetition seeds independent; XOR-ing seed and device would
    make device d at seed s replay device d' at seed s^d^d'.
    """
    return SplitMix64(mix_words(seed, REPORT_STREAM, device))


def latency_free(scenario: "Scenario") -> bool:
    """Whether no report or verdict of the run can depend on message timing.

    Without loss every message is delivered, and with 3 * latency_max below
    the round deadline the challenge -> response -> report chain of each
    round lands before its deadline.
    """
    net = scenario.network
    return net.drop_prob == 0.0 and 3 * net.latency_max < scenario.round_deadline


def _next_group(
    group: GroupConfig | None,
    r: int,
    sc: "Scenario",
    suspicion: SuspicionLedger,
    rng_group: SplitMix64,
) -> GroupConfig:
    """Round r's group: redrawn on the regroup period or after an exclusion.

    Raises GroupFormationError when too few devices remain eligible.
    """
    if (
        group is not None
        and r % sc.regroup_period != 0
        and group.member_set.isdisjoint(suspicion.excluded_at)
    ):
        return group
    eligible = suspicion.eligible(range(sc.population))
    return form_group(eligible, sc.group_size, rng_group, sc.quorum, sc.round_deadline)


def _is_special(profile: AdversaryProfile) -> bool:
    """Whether a device can make a round differ from an all-honest one.

    A fault changes its outputs, a reporting policy its opinions, and an
    EVADE initiator the operands. Every other device computes the honest
    output and reports the plain comparison.
    """
    return (
        profile.fault is not FaultKind.HONEST
        or profile.reporting is not ReportingKind.HONEST
        or profile.initiator_policy is InitiatorKind.EVADE
    )


class _Special(NamedTuple):
    """What the tally kernel keeps of one special device."""

    profile: AdversaryProfile
    rng: SplitMix64  # its reporting-noise stream
    colluder_trojans: dict[int, TrojanModel]


def _tally_round(
    group: GroupConfig,
    specials: dict[int, _Special],
    n_plain: int,
    r: int,
    spec: RoutineSpec,
    seed: int,
) -> Verdict:
    """One latency-free round at tally level: the verdict every member reaches.

    `specials` holds the group's special members in group order and n_plain
    counts the rest. Plain members yield the honest output, so only special
    ones go through apply_fault and distort_opinion (each RANDOM reporter on
    its own stream, as in the event engine), and the plain checkers' AGREE
    votes come as one count.
    """
    n = len(group.members)
    checkee = round_checkee(group, r)
    ops = generate_operands(seed, r, checkee, spec)
    evader = specials.get(round_initiator(group, r))
    if evader is not None:
        ops = choose_adversarial_operands(evader.profile, ops, evader.colluder_trojans, checkee)
    honest = execute(spec, ops)
    outputs = {m: apply_fault(s.profile, spec, ops, honest).value for m, s in specials.items()}
    answer = outputs.get(checkee, honest.value)
    plain_checkers = n_plain - 1 if checkee not in outputs else n_plain
    agree = plain_checkers if answer == honest.value else 0
    for m, s in specials.items():
        if m != checkee:
            truth = Opinion.AGREE if outputs[m] == answer else Opinion.DISAGREE
            if distort_opinion(s.profile, truth, checkee, s.rng) is Opinion.AGREE:
                agree += 1
    tally = Tally(agree=agree, disagree=n - 1 - agree, missing=0, n_checkers=n - 1)
    return Verdict(
        checkee=checkee, round=r, outcome=compute_verdict(tally, group.quorum), tally=tally
    )


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
    """Message conservation and the transmit ledger, checked at the end of a run."""
    c = counters
    accounted = c.delivered + c.dropped + c.late + c.in_flight
    if c.sent != accounted:
        raise ProtocolViolation(
            f"message conservation: sent {c.sent} != delivered+dropped+late+in_flight {accounted}"
        )
    charged = sum(u.sent for u in energy.usage.values())
    if charged != c.sent:
        raise ProtocolViolation(f"energy ledger: devices charged {charged} sends, counters say {c.sent}")


def _run_tally(sc: "Scenario", res: RunResult) -> None:
    """Latency-free runs: one tally per round, no events, no network draws.

    The routine table and the special devices are found once per run,
    the group's special members once per group, and energy is charged
    once per group epoch (when the group changes and when the run ends).
    """
    seed = res.seed
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    rng_group = SplitMix64(mix_words(seed, GROUPING_STREAM))
    profiles = sc.profile_map()
    routines = [(spec, spec.op_count) for spec in sc.routine_table()]
    special: dict[int, _Special] = {
        d: _Special(p, report_stream(seed, d), sc.colluder_trojans(d))
        for d, p in profiles.items()
        if _is_special(p)
    }
    group: GroupConfig | None = None
    specials: dict[int, _Special] = {}
    n_plain = epoch_start = epoch_ops = rounds_executed = 0
    for r in range(sc.rounds):
        try:
            new_group = _next_group(group, r, sc, suspicion, rng_group)
        except GroupFormationError as exc:
            res.halt_reason = str(exc)
            break
        if new_group is not group:
            if group is not None:
                _charge_epoch(usage, group.members, epoch_start, r - epoch_start, epoch_ops)
            group = new_group
            specials = {m: special[m] for m in group.members if m in special}
            n_plain = len(group.members) - len(specials)
            epoch_start, epoch_ops = r, 0
        rounds_executed = r + 1
        spec, op_count = routines[r % len(routines)]
        epoch_ops += op_count
        v = _tally_round(group, specials, n_plain, r, spec, seed)
        # Every member reaches this verdict.
        stats.fold(v, group.members, profiles)
        if v.outcome is Outcome.FLAGGED:
            update_suspicion(suspicion, v)
    if group is not None:
        _charge_epoch(usage, group.members, epoch_start, rounds_executed - epoch_start, epoch_ops)
    res.rounds_executed = rounds_executed
    messages = lossless_messages_per_round(sc.group_size) * rounds_executed
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
    event happens.
    """
    seed = res.seed
    counters = res.counters
    usage = res.energy.usage
    stats = res.stats
    suspicion = res.suspicion
    profiles = sc.profile_map()
    routine_order = sc.routine_table()
    states = {
        d: DeviceState(
            device_id=d,
            profile=profiles[d],
            routine_order=routine_order,
            rng=report_stream(seed, d),
            usage=usage[d],
            colluder_trojans=sc.colluder_trojans(d),
        )
        for d in range(sc.population)
    }
    rng_group = SplitMix64(mix_words(seed, GROUPING_STREAM))
    network = sc.network
    net_seed = network.seed if network.seed is not None else mix_words(seed, NETWORK_STREAM)
    fates = SplitMix64(net_seed).fates
    drop_prob = network.drop_prob
    lo = network.latency_min
    span = network.latency_max - lo + 1
    deadline = sc.round_deadline
    last_round = sc.rounds - 1
    buckets: dict[int, list[tuple[int, Message, int, int]]] = {}
    ticks: list[int] = []
    next_seq = 2 * sc.rounds

    write = None if trace is None else trace.write
    round_verdicts: list[Verdict] = []
    group: GroupConfig | None = None
    current_round = -1

    def dispatch_sends(frm: int, outgoing: list[tuple[int, Message]], now: int) -> None:
        nonlocal next_seq
        # Transmissions are charged even when the channel drops them.
        n = len(outgoing)
        counters.sent += n
        usage[frm].sent += n
        seq = next_seq
        for (to, msg), latency in zip(outgoing, fates(n, drop_prob, lo, span)):
            if to == frm:
                raise ContractError(f"device {frm} cannot send to itself")
            if latency is None:
                counters.dropped += 1
                continue
            at = now + latency
            bucket = buckets.get(at)
            if bucket is None:
                bucket = buckets[at] = []
                heappush(ticks, at)
            bucket.append((seq, msg, frm, to))
            seq += 1
        next_seq = seq

    def record_verdict(issuer: int, v: Verdict, t: int, seq: int) -> None:
        stats.fold(v, (issuer,), profiles)
        round_verdicts.append(v)
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
                # Every message kind carries challenge_id, which equals the round.
                late = msg.challenge_id != current_round or to not in group.member_set
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
                for m in group.members:
                    states[m].group = group
            current_round = r
            round_verdicts = []
            for m in group.members:
                begin_round(states[m], r)
            initiator = round_initiator(group, r)
            if write is not None:
                members = ",".join(str(m) for m in group.members)
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
        for m in group.members:
            state = states[m]
            if not state.verdict_emitted:
                record_verdict(m, on_timeout(state, r), t, seq)
        flagged = [v for v in round_verdicts if v.outcome is Outcome.FLAGGED]
        if flagged:
            # One suspicion update per round: any device's FLAGGED
            # verdict marks the round against the checkee.
            update_suspicion(suspicion, flagged[0])
            checkee = flagged[0].checkee
            if suspicion.is_excluded(checkee):
                for at, bucket in buckets.items():
                    keep = [e for e in bucket if e[2] != checkee and e[3] != checkee]
                    counters.late += len(bucket) - len(keep)
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
        energy=EnergyLedger(scenario.energy, range(scenario.population)),
        suspicion=SuspicionLedger(flag_threshold=scenario.flag_threshold),
    )
    if trace is None and latency_free(scenario):
        _run_tally(scenario, res)
    else:
        _run_events(scenario, res, trace)
    _check_run_identities(res.counters, res.energy)
    return res
