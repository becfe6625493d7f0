"""One round's challenge, answers and opinions, on both execution paths.

`answers` gives the challenge and each special member's output, `opinion`
a special checker's report. Plain members, with no fault and no policy,
give the honest output and the plain comparison, so only special members
go through here: from simnet._tally_round and simnet._run_rounds.
"""

from __future__ import annotations

from .adversary import (
    AdversaryProfile,
    Opinion,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
)
from .rng import SplitMix64
from .routines import RoutineSpec, execute, generate_operands

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .simnet import RunPlan


def answers(
    plan: "RunPlan",
    members: tuple[int, ...],
    specials: dict[int, AdversaryProfile],
    r: int,
    spec: RoutineSpec,
    seed: int,
) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """Round r's challenge operands, its honest output and each special member's output.

    The checkee is member r mod n and the initiator the member after it;
    `specials` maps the group's special members to their profiles. The
    initiator derives the operands from the seed (an EVADE initiator then
    rewrites them for its colluders) and runs the routine once: it is pure,
    so each member passes that honest output through its own fault model.
    """
    n = len(members)
    checkee = members[r % n]
    ops = generate_operands(seed, r, checkee, spec)
    initiator = members[(r + 1) % n]
    if initiator in specials:
        colluders = plan.evader_trojans.get(initiator, {})
        ops = choose_adversarial_operands(specials[initiator], ops, colluders, checkee)
    honest = execute(spec, ops)
    return ops, honest, {m: apply_fault(p, spec, ops, honest) for m, p in specials.items()}


def opinion(
    profile: AdversaryProfile, output: int, answer: int, checkee: int, rng: SplitMix64 | None
) -> Opinion:
    """A special checker's report: its output compared with the checkee's answer, as its
    policy states it (a RANDOM reporter draws one word from its stream `rng`)."""
    truth = Opinion.AGREE if output == answer else Opinion.DISAGREE
    return distort_opinion(profile, truth, checkee, rng)
