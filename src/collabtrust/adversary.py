"""Compromised-device models: functional faults, lying reporters, evading initiators.

A hardware fault (Trojan or always-wrong) lives in the device and applies to
every routine execution it performs, whether it is being checked or doing the
checking. Reporting and initiator policies are independent knobs on the same
profile, so one device can both compute wrong outputs and lie about others.
"""

from __future__ import annotations

from enum import Enum

from .errors import ContractError
from .record import Frozen
from .routines import RoutineSpec
from .rng import SplitMix64

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class Opinion(Enum):
    AGREE = "AGREE"
    DISAGREE = "DISAGREE"

    def flipped(self) -> "Opinion":
        return Opinion.DISAGREE if self is Opinion.AGREE else Opinion.AGREE


class FaultKind(Enum):
    HONEST = "HONEST"
    ALWAYS_WRONG = "ALWAYS_WRONG"
    TROJAN = "TROJAN"


class PayloadKind(Enum):
    XOR = "XOR"
    CONST = "CONST"
    COMPLEMENT = "COMPLEMENT"


class ReportingKind(Enum):
    HONEST = "HONEST"
    FRAME = "FRAME"
    SHIELD = "SHIELD"
    RANDOM = "RANDOM"


class InitiatorKind(Enum):
    HONEST = "HONEST"
    EVADE = "EVADE"


class TrojanModel(Frozen):
    """Trigger predicate on one operand plus a payload transform of the output.

    The trigger fires when the inspected operand's bits under `mask` equal
    `match`; the chance of that under uniform operands is 2^-popcount(mask).
    """

    def __init__(
        self,
        operand_index: int,
        mask: int,
        match: int,
        payload: PayloadKind,
        payload_value: int = 0,
    ):
        if operand_index < 0:
            raise ContractError(f"trigger index must be >= 0, got {operand_index}")
        if mask < 0 or match < 0:
            raise ContractError("trigger mask and match must be non-negative")
        if match & ~mask:
            raise ContractError(f"trigger match {match:#x} has bits outside mask {mask:#x}")
        if payload in (PayloadKind.XOR, PayloadKind.CONST) and payload_value < 0:
            raise ContractError("payload value must be non-negative")
        self.operand_index = operand_index
        self.mask = mask
        self.match = match
        self.payload = payload
        self.payload_value = payload_value

    def triggers(self, ops: tuple[int, ...]) -> bool:
        return (ops[self.operand_index] & self.mask) == self.match


class AdversaryProfile(Frozen):
    """What one device is allowed to do wrong.

    `targets` is the device's colluder/victim set, shared by whichever of the
    FRAME / SHIELD / EVADE policies are active. It never contains the device
    itself (enforced at scenario load, where the owner id is known).
    """

    def __init__(
        self,
        fault: FaultKind = FaultKind.HONEST,
        trojan: TrojanModel | None = None,
        reporting: ReportingKind = ReportingKind.HONEST,
        targets: frozenset[int] = frozenset(),
        flip_probability: float = 0.0,
        initiator_policy: InitiatorKind = InitiatorKind.HONEST,
    ):
        if fault is FaultKind.TROJAN and trojan is None:
            raise ContractError("TROJAN fault needs a TrojanModel")
        if not 0.0 <= flip_probability <= 1.0:
            raise ContractError(f"flip probability must be in [0, 1], got {flip_probability}")
        self.fault = fault
        self.trojan = trojan
        self.reporting = reporting
        self.targets = targets
        self.flip_probability = flip_probability
        self.initiator_policy = initiator_policy


# The profile of every device a scenario does not list.
HONEST_PROFILE = AdversaryProfile()


def is_special(profile: AdversaryProfile) -> bool:
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


def apply_fault(
    profile: AdversaryProfile,
    spec: RoutineSpec,
    ops: tuple[int, ...],
    honest: int,
) -> int:
    """Pass an honest routine output through the device's hardware fault.

    ALWAYS_WRONG complements every bit; a Trojan corrupts the output only
    when its trigger matches the inspected operand.
    """
    if profile.fault is FaultKind.HONEST:
        return honest
    mask = (1 << spec.width) - 1
    if profile.fault is FaultKind.ALWAYS_WRONG:
        return honest ^ mask
    model = profile.trojan
    assert model is not None
    if not model.triggers(ops):
        return honest
    if model.payload is PayloadKind.XOR:
        return (honest ^ model.payload_value) & mask
    if model.payload is PayloadKind.CONST:
        return model.payload_value & mask
    return honest ^ mask  # COMPLEMENT


def trigger_probability(model: TrojanModel, spec: RoutineSpec) -> Fraction:
    """Exact chance a uniform operand fires the trigger: 2^-popcount(mask)."""
    # Imported here, so that importing the package (and every CLI command)
    # does not load fractions, decimal and numbers.
    from fractions import Fraction

    width_mask = (1 << spec.width) - 1
    if model.operand_index >= spec.arity:
        raise ContractError(
            f"trigger operand index {model.operand_index} out of range for arity {spec.arity}"
        )
    if model.mask & ~width_mask:
        raise ContractError(
            f"trigger mask {model.mask:#x} wider than routine width {spec.width}"
        )
    return Fraction(1, 1 << (model.mask & width_mask).bit_count())


def distort_opinion(
    profile: AdversaryProfile,
    true_opinion: Opinion,
    checkee: int,
    rng: SplitMix64 | None,
) -> Opinion:
    """What the device reports instead of its honestly computed opinion.

    Only a RANDOM reporter draws, from its own stream `rng`.
    """
    if profile.reporting is ReportingKind.HONEST:
        return true_opinion
    if profile.reporting is ReportingKind.FRAME:
        return Opinion.DISAGREE if checkee in profile.targets else true_opinion
    if profile.reporting is ReportingKind.SHIELD:
        return Opinion.AGREE if checkee in profile.targets else true_opinion
    # RANDOM: flip with probability p from the device's own stream.
    if rng.next_float() < profile.flip_probability:
        return true_opinion.flipped()
    return true_opinion


def choose_adversarial_operands(
    profile: AdversaryProfile,
    honest_ops: tuple[int, ...],
    colluder_trojans: dict[int, TrojanModel],
    checkee: int,
) -> tuple[int, ...]:
    """An EVADE initiator rewrites the challenge so a colluder's Trojan stays quiet.

    The inspected operand's masked bits are set to `match` with the lowest
    mask bit flipped, which is guaranteed not to equal `match`. A mask of 0
    (trigger always fires) cannot be evaded and the operands pass unchanged.
    """
    if profile.initiator_policy is not InitiatorKind.EVADE or checkee not in profile.targets:
        return honest_ops
    model = colluder_trojans.get(checkee)
    if model is None or model.mask == 0:
        return honest_ops
    lowest_bit = model.mask & -model.mask
    safe_bits = model.match ^ lowest_bit
    values = list(honest_ops)
    values[model.operand_index] = (values[model.operand_index] & ~model.mask) | safe_bits
    return tuple(values)
