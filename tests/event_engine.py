"""The event engine that lossy runs took before the round walk: a reference.

`run_events` is the former `simnet._run_events`, with the per-device state
machine (`DeviceState` and its handlers) it drove and the message records it
passed, kept unchanged. It is a second implementation of a lossy run, one
delivery at a time through per-tick buckets and a heap of ticks, so tests
compare `simnet`'s round walk against it byte for byte: trace, JSON and CSV,
traced and untraced. `installed()` makes `simnet.run_simulation` run it in
place of the round walk while it is open; `tests/reference_cli.py` is the
same for the command line. Its name does not start with `test_`, so pytest
does not collect it.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from heapq import heappop, heappush

import pytest

import collabtrust.simnet as simnet
from collabtrust.adversary import (
    HONEST_PROFILE,
    AdversaryProfile,
    Opinion,
    ReportingKind,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
)
from collabtrust.errors import GroupFormationError, ProtocolViolation
from collabtrust.rng import SplitMix64, float_cut
from collabtrust.routines import RoutineSpec, execute, generate_operands
from collabtrust.simnet import (
    GROUPING_STREAM,
    NETWORK_STREAM,
    _deadline_line,
    _halt_line,
    _report_head,
    _report_tail,
    _round_start_line,
    _verdict_text,
    draw_group,
    report_stream,
    stream,
)
from collabtrust.verdict import Outcome, Verdict, VerdictTable, update_suspicion

# A challenge carries its RoutineSpec, its operand tuple and `honest`,
# execute(spec, ops), run once by the initiator and not in the trace; a
# report carries an Opinion.
Challenge = namedtuple("Challenge", "round initiator checkee spec ops honest")
Response = namedtuple("Response", "round responder output")
ComparisonReport = namedtuple("ComparisonReport", "round reporter checkee opinion")


Message = Challenge | Response | ComparisonReport


class DeviceState:
    """Everything one device knows but its energy; confined to the event loop that owns it."""

    __slots__ = (
        "id",
        "profile",
        "routine_order",
        "colluder_trojans",
        "rng",
        "verdicts",
        "members",
        "peers",
        "n_checkers",
        "round",
        "checkee",
        "challenge",
        "reference",
        "pending_response",
        "heard",
        "agree",
        "verdict_emitted",
    )

    def __init__(
        self,
        device_id: int,
        profile: AdversaryProfile,
        routine_order: Sequence[RoutineSpec],
        rng: SplitMix64 | None,  # a RANDOM reporter's report stream
        verdicts: VerdictTable,
        colluder_trojans: dict[int, TrojanModel] | None = None,
    ):
        self.id = device_id
        self.profile = profile
        self.routine_order = routine_order
        self.colluder_trojans = colluder_trojans or {}
        self.rng = rng
        self.verdicts = verdicts
        self.join(())  # the device's group, set when it joins one
        self.round: int | None = None
        self.checkee: int | None = None
        self.challenge: Challenge | None = None
        self.reference: int | None = None
        self.pending_response: Response | None = None
        self.heard = self.agree = 0  # opinions tallied this round, and the AGREE ones
        self.verdict_emitted = False

    def join(self, members: tuple[int, ...]) -> None:
        """Make `members` the device's group; its peers and checker count follow once, here."""
        self.members = members
        try:
            i = members.index(self.id)
        except ValueError:
            self.peers = members
        else:
            self.peers = members[:i] + members[i + 1 :]
        self.n_checkers = len(members) - 1


def regroups(
    group: tuple[int, ...] | None, round_no: int, period: int, excluded: Mapping[int, int]
) -> bool:
    """Whether round `round_no` draws a new group, by the README's rule: a
    group is drawn at round 0, every `period` rounds, and in the round after
    one of its members is excluded."""
    return round_no % period == 0 or any(m in excluded for m in group)


def round_checkee(members: tuple[int, ...], round_no: int) -> int:
    """Round-robin schedule: position round mod size. Common knowledge."""
    return members[round_no % len(members)]


def round_initiator(members: tuple[int, ...], round_no: int) -> int:
    """The member after the checkee in group order."""
    return members[(round_no + 1) % len(members)]


def begin_round(states: Sequence[DeviceState], round_no: int) -> None:
    """Advance the local round clock of one group's members and clear their per-round state.

    Rounds are synchronous: every group member knows the round number and
    therefore the scheduled checkee, even if it never sees the challenge.
    """
    checkee = round_checkee(states[0].members, round_no)
    for state in states:
        state.round = round_no
        state.checkee = checkee
        state.challenge = None
        state.reference = None
        state.pending_response = None
        state.heard = state.agree = 0
        state.verdict_emitted = False


def make_challenge(state: DeviceState, round_no: int, shared_seed: int) -> Challenge:
    """The round's challenge as built by its initiator `state`.

    The routine rotates through the catalog; operands come from the shared
    seed, then pass through the initiator's evasion policy if it is corrupt.
    The routine runs once, here, on the final operands.
    """
    checkee = round_checkee(state.members, round_no)
    spec = state.routine_order[round_no % len(state.routine_order)]
    ops = generate_operands(shared_seed, round_no, checkee, spec)
    ops = choose_adversarial_operands(state.profile, ops, state.colluder_trojans, checkee)
    return Challenge(round_no, state.id, checkee, spec, ops, execute(spec, ops))


def on_round_start(state: DeviceState, round_no: int, shared_seed: int) -> Challenge:
    """Initiator duty: build the round's challenge, for the group's other members."""
    if not state.members or state.round != round_no or state.challenge is not None:
        raise ProtocolViolation(
            f"device {state.id}: round {round_no} start out of turn (device round {state.round})"
        )
    if round_initiator(state.members, round_no) != state.id:
        raise ProtocolViolation(f"device {state.id} is not round {round_no}'s initiator")
    ch = make_challenge(state, round_no, shared_seed)
    # The initiator is a checker too; it processes the challenge locally
    # (never answering, since initiator != checkee).
    handle_check_request(state, ch)
    return ch


def handle_check_request(state: DeviceState, ch: Challenge) -> Response | ComparisonReport | None:
    """Accept a challenge: pass its honest output through the local fault model and cache it.

    The routine is pure, so the initiator's one run of it stands for every
    receiver's; only the fault model is the receiver's own. The checkee
    answers with its Response; a checker stays silent and keeps its output
    as the private comparison reference, unless the response already
    arrived: then it compares and returns its report.
    """
    out = apply_fault(state.profile, ch.spec, ch.ops, ch.honest)
    state.challenge = ch
    state.reference = out
    if state.id == ch.checkee:
        # The checkee's "reference" is the output it must defend.
        return Response(ch.round, state.id, out)
    if state.pending_response is not None:
        # The checkee's answer overtook our challenge; compare it now.
        parked, state.pending_response = state.pending_response, None
        return handle_response(state, parked)
    return None


def handle_response(state: DeviceState, r: Response) -> ComparisonReport | None:
    """Compare the checkee's output to the local reference and return the report.

    A response that beats this checker's own challenge copy through the
    network is parked (None) and replayed once the challenge arrives, so
    random latencies never cost a checker its opinion.
    """
    if state.challenge is None:
        state.pending_response = r
        return None
    true_opinion = Opinion.AGREE if r.output == state.reference else Opinion.DISAGREE
    opinion = distort_opinion(state.profile, true_opinion, state.checkee, state.rng)
    # Own opinion enters the local tally once, as broadcast; a tally it
    # completes still waits for the round deadline, not this handler.
    state.heard += 1
    state.agree += opinion is Opinion.AGREE
    return ComparisonReport(r.round, state.id, state.checkee, opinion)


def settle_round(
    states: Sequence[DeviceState],
    round_no: int,
    reports: int,
    agrees: int,
    missed: Mapping[int, int],
    missed_agree: Mapping[int, int],
) -> list[tuple[Verdict, list[int]]]:
    """Round deadline of one group's members when no report was handed over.

    The round sent `reports` reports, `agrees` of them AGREE. Each member
    heard all of them in time but the `missed[id]` it did not, of which
    `missed_agree[id]` were AGREE: the dropped ones, those landing at or
    after the deadline, and its own, whose opinion handle_response counted.
    Every member's tally gets the rest, and every member concludes from it,
    missing opinions abstaining. Returns each distinct verdict once, with
    the ids of the members that reached it in `states` order, through
    split_verdicts.
    """
    issuers: dict[tuple[int, int], list[int]] = {}
    for state in states:
        if state.round != round_no or state.verdict_emitted:
            raise ProtocolViolation(
                f"device {state.id}: timeout for round {round_no} with no pending verdict"
            )
        d = state.id
        state.heard += reports - missed.get(d, 0)
        state.agree += agrees - missed_agree.get(d, 0)
        state.verdict_emitted = True
        issuers.setdefault((state.agree, state.heard - state.agree), []).append(d)
    return split_verdicts(states[0], issuers)


def split_verdicts(
    state: DeviceState, issuers: Mapping[tuple[int, int], list[int]]
) -> list[tuple[Verdict, list[int]]]:
    """Each (agree, disagree) split of `issuers` with its verdict, looked up once.

    `issuers` maps a split to the ids of the members of `state`'s group
    that concluded with that tally this round; they share its checkee,
    round and verdict table. Returns each split's verdict with its ids.
    """
    checkee, round_no, table = state.checkee, state.round, state.verdicts
    verdicts = []
    for split, ids in issuers.items():
        tally, outcome = table[split]
        verdicts.append((Verdict(checkee, round_no, outcome, tally), ids))
    return verdicts


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


def run_events(sc: "Scenario", res: RunResult, trace: TextIO | None) -> None:
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
                new_group = group
                if regroups(group, r, sc.regroup_period, suspicion.excluded_at):
                    try:
                        new_group = draw_group(
                            sc.population, suspicion.excluded_at, sc.group_size, rng_group
                        )
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


@contextmanager
def installed():
    """While open, `simnet.run_simulation` runs lossy runs through `run_events`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "_run_rounds", run_events)
        yield
