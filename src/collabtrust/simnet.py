"""Deterministic discrete-event engine: lossy delivery, round timers, groups.

Virtual time is integer ticks; events are totally ordered by (time, seq)
where seq is the scheduling order, so equal-time events resolve in a fixed,
platform-independent order. All randomness comes from named SplitMix64
streams derived from the scenario seed: the network stream (loss and
latency), the grouping stream (ad-hoc membership draws), and one stream per
device (reporting noise). Varying one knob never reshuffles the others.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractError, GroupFormationError
from .metrics import EnergyLedger, TrafficCounters
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
from .verdict import Outcome, SuspicionLedger, Verdict, update_suspicion

if TYPE_CHECKING:
    from .scenario import Scenario

# Stream-name tags for deriving independent substreams from one seed.
NETWORK_STREAM = 0x6E657477  # "netw"
GROUPING_STREAM = 0x67727570  # "grup"


@dataclass(frozen=True)
class RoundStart:
    round: int


@dataclass(frozen=True)
class RoundDeadline:
    round: int


class Deliver(NamedTuple):
    msg: Message
    frm: int
    to: int


Payload = RoundStart | RoundDeadline | Deliver


class EventQueue:
    """Min-heap of (time, seq, payload); seq breaks ties in scheduling order."""

    def __init__(self):
        self._heap: list[tuple[int, int, Payload]] = []
        self._next_seq = 0

    def schedule(self, time: int, payload: Payload) -> int:
        if time < 0:
            raise ContractError(f"cannot schedule at negative time {time}")
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (time, seq, payload))
        return seq

    def pop(self) -> tuple[int, int, Payload] | None:
        """Next event, or None once the simulation is complete."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def pending_deliveries(self) -> int:
        return sum(1 for _, _, p in self._heap if isinstance(p, Deliver))

    def purge_deliveries(self, involved: set[int]) -> int:
        """Drop queued deliveries touching any of the given devices."""
        keep = [
            e
            for e in self._heap
            if not (isinstance(e[2], Deliver) and (e[2].frm in involved or e[2].to in involved))
        ]
        removed = len(self._heap) - len(keep)
        if removed:
            heapq.heapify(keep)
            self._heap = keep
        return removed


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


def send(
    msg: Message,
    frm: int,
    to: int,
    model: NetworkModel,
    rng: SplitMix64,
    now: int,
) -> tuple[int, Deliver] | None:
    """One unicast: None if the channel drops it, else (delivery time, event).

    The drop decision is drawn first (skipped entirely when drop_prob is 0);
    dropped messages consume no latency draw.
    """
    if frm == to:
        raise ContractError(f"device {frm} cannot send to itself")
    if model.drop_prob > 0.0 and rng.next_float() < model.drop_prob:
        return None
    latency = model.latency_min + rng.below(model.latency_max - model.latency_min + 1)
    return now + latency, Deliver(msg, frm, to)


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
    trace: list[str] | None
    verdicts: list[tuple[int, Verdict]]
    counters: TrafficCounters
    energy: EnergyLedger
    suspicion: SuspicionLedger
    rounds_total: int


def _trace_deliver(t: int, seq: int, ev: Deliver, late: bool) -> str:
    msg = ev.msg
    suffix = " late=1" if late else ""
    if type(msg) is Challenge:
        ops = ",".join(str(v) for v in msg.ops.values)
        return (
            f"{t} {seq} CHALLENGE {ev.frm} {ev.to} round={msg.round} checkee={msg.checkee}"
            f" spec={msg.spec_id} ops={ops} cid={msg.challenge_id}{suffix}"
        )
    if type(msg) is Response:
        return f"{t} {seq} RESPONSE {ev.frm} {ev.to} cid={msg.challenge_id} output={msg.output}{suffix}"
    return (
        f"{t} {seq} REPORT {ev.frm} {ev.to} cid={msg.challenge_id} checkee={msg.checkee}"
        f" opinion={msg.opinion.value}{suffix}"
    )


class Simulation:
    """One deterministic run of a validated scenario."""

    def __init__(self, scenario: "Scenario", seed: int | None = None, collect_trace: bool = True):
        self.scenario = scenario
        self.seed = (scenario.seed if seed is None else seed) & MASK64
        self.collect_trace = collect_trace

    def run(self) -> RunResult:
        sc = self.scenario
        seed = self.seed
        net_seed = sc.network.seed if sc.network.seed is not None else mix_words(seed, NETWORK_STREAM)
        rng_net = SplitMix64(net_seed)
        rng_group = SplitMix64(mix_words(seed, GROUPING_STREAM))

        suspicion = SuspicionLedger(flag_threshold=sc.flag_threshold)
        energy = EnergyLedger(sc.energy, range(sc.population))
        counters = TrafficCounters()
        routine_order = sc.routine_table()
        profiles = sc.profile_map()
        states = {
            d: DeviceState(
                device_id=d,
                profile=profiles[d],
                routine_order=routine_order,
                rng=SplitMix64(seed ^ d),
                suspicion=suspicion,
                counters=counters,
                energy=energy,
                colluder_trojans=sc.colluder_trojans(d),
            )
            for d in range(sc.population)
        }

        queue = EventQueue()
        deadline = sc.round_deadline
        for r in range(sc.rounds):
            queue.schedule(r * deadline, RoundStart(r))
            queue.schedule((r + 1) * deadline, RoundDeadline(r))

        trace: list[str] | None = [] if self.collect_trace else None
        verdicts: list[tuple[int, Verdict]] = []
        round_verdicts: list[Verdict] = []
        group: GroupConfig | None = None
        current_round = -1
        rounds_executed = 0
        halt_reason: str | None = None
        network = sc.network

        def dispatch_sends(frm: int, outgoing: list[tuple[int, Message]], now: int) -> None:
            # Transmissions are charged even when the channel drops them.
            counters.sent += len(outgoing)
            energy.usage[frm].sent += len(outgoing)
            for to, msg in outgoing:
                routed = send(msg, frm, to, network, rng_net, now)
                if routed is None:
                    counters.dropped += 1
                else:
                    queue.schedule(routed[0], routed[1])

        def record_verdict(issuer: int, v: Verdict, t: int, seq: int) -> None:
            verdicts.append((issuer, v))
            round_verdicts.append(v)
            if trace is not None:
                ta = v.tally
                trace.append(
                    f"{t} {seq} VERDICT {issuer} - round={v.round} checkee={v.checkee}"
                    f" outcome={v.outcome.value} agree={ta.agree} disagree={ta.disagree}"
                    f" missing={ta.missing}"
                )

        while True:
            item = queue.pop()
            if item is None:
                break
            t, seq, ev = item

            if type(ev) is Deliver:
                msg, _, to = ev
                energy.usage[to].received += 1
                # Every message kind carries challenge_id, which equals the round.
                late = (
                    group is None
                    or msg.challenge_id != current_round
                    or to not in group.member_set
                )
                if trace is not None:
                    trace.append(_trace_deliver(t, seq, ev, late))
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
                continue

            if type(ev) is RoundStart:
                r = ev.round
                needs_group = (
                    group is None
                    or (r % sc.regroup_period == 0)
                    or any(suspicion.is_excluded(m) for m in group.members)
                )
                if needs_group:
                    eligible = suspicion.eligible(range(sc.population))
                    try:
                        group = form_group(
                            eligible, sc.group_size, rng_group, sc.quorum, deadline
                        )
                    except GroupFormationError as exc:
                        halt_reason = str(exc)
                        if trace is not None:
                            trace.append(f"{t} {seq} HALT - - reason={halt_reason!r}")
                        break
                    for m in group.members:
                        states[m].group = group
                current_round = r
                round_verdicts = []
                for m in group.members:
                    begin_round(states[m], r)
                initiator = round_initiator(group, r)
                if trace is not None:
                    members = ",".join(str(m) for m in group.members)
                    spec = routine_order[r % len(routine_order)]
                    trace.append(
                        f"{t} {seq} ROUND_START - - round={r} group={members}"
                        f" checkee={round_checkee(group, r)} initiator={initiator}"
                        f" routine={spec.id}"
                    )
                dispatch_sends(initiator, on_round_start(states[initiator], r, seed), t)
                rounds_executed = r + 1
                continue

            # RoundDeadline
            r = ev.round
            if group is not None and r == current_round:
                for m in group.members:
                    state = states[m]
                    if not state.verdict_emitted:
                        record_verdict(m, on_timeout(state, r), t, seq)
                flagged = [v for v in round_verdicts if v.outcome is Outcome.FLAGGED]
                if flagged:
                    # One suspicion update per round: any device's FLAGGED
                    # verdict marks the round against the checkee.
                    update_suspicion(suspicion, flagged[0])
                    if suspicion.is_excluded(flagged[0].checkee):
                        counters.late += queue.purge_deliveries({flagged[0].checkee})
                if trace is not None:
                    trace.append(f"{t} {seq} ROUND_DEADLINE - - round={r}")
            if r == sc.rounds - 1:
                break

        counters.in_flight = queue.pending_deliveries()
        return RunResult(
            seed=seed,
            rounds_executed=rounds_executed,
            halt_reason=halt_reason,
            trace=trace,
            verdicts=verdicts,
            counters=counters,
            energy=energy,
            suspicion=suspicion,
            rounds_total=sc.rounds,
        )


def run_simulation(
    scenario: "Scenario", seed: int | None = None, collect_trace: bool = True
) -> RunResult:
    return Simulation(scenario, seed=seed, collect_trace=collect_trace).run()
