"""Per-device state machine for one checking round.

A round has one checkee and one challenge. The initiator derives operands
from the shared seed, runs the routine on them once and sends the challenge,
with that honest output, to the rest of the group. The routine is pure, so
its honest output is the same for every receiver; each receiver passes it
through its own fault model, and is charged the routine's ops as if it ran
it. The checkee broadcasts its output; each checker compares that output
against its own reference and broadcasts an AGREE/DISAGREE report; every
device (checkee included) counts the opinions it hears, and the AGREE ones,
and concludes a verdict when that tally is complete or at the deadline.

Messages and verdicts are named tuples: immutable, equal and hashed by
value, and built positionally on the engine's per-event path.

A group is its members tuple: the checkee of round r is member r mod N,
the initiator the member after it, and every device looks its verdicts up
in the scenario's one table. Each message names its round once, in `round`.

Handlers are plain transitions (state, message) -> (state, message or None):
a device sends each message to its whole group, and the event loop fans it
out to the sender's peers, charges all energy and alone decides each
message's fate. It drops, delays and counts as late every copy that lands
after its round, fixed at send: a copy that lands in time goes to a current
group member, since groups change only at round starts. So handlers see
only on-round messages between current group members, each exactly once.
No report is handed to a handler. Traced, the event loop adds each report
that lands in time to its receiver's two counts, concludes the receiver
once the tally is complete and the other members at the deadline, and
split_verdicts gives the round's verdict of each (agree, disagree) split.
Untraced, a report triggers nothing, so the event loop keeps only its
sender, send tick and opinion and sends the round's reports at the
deadline, in the order they were made, noting who misses each; then one
settle_round call adds to every member's tally the round's reports less
the ones it missed, and concludes the whole group the same way. The one
ordering the handlers handle is a response that overtakes its challenge:
it is parked until the challenge arrives.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence

from .adversary import (
    AdversaryProfile,
    Opinion,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
)
from .errors import ProtocolViolation
from .routines import RoutineSpec, execute, generate_operands
from .rng import SplitMix64
from .verdict import Verdict, VerdictTable


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
