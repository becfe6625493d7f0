"""One checking round's challenge, answers and opinions, on both execution paths.

A round has one checkee and one challenge. The initiator derives operands
from the shared seed (an EVADE initiator rewrites them for a colluding
Trojan), runs the routine on them once and sends the challenge, with that
honest output, to the rest of the group. The routine is pure, so its honest
output is the same for every receiver; each receiver passes it through its
own fault model. The checkee answers with its output; a checker compares
that answer with its own output and reports AGREE or DISAGREE, through its
reporting policy. Plain members, with no fault and no policy, give the
honest output and the plain comparison, so only the special members of a
group go through these functions.

Both `simnet._tally_round` (the kernel's full tally) and `simnet._run_rounds`
(the round walk of every other run, which decides which checkers hear
enough to form an opinion) form a round's outputs and opinions here.
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
    `specials` maps the group's special members to their profiles.
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
