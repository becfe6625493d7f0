"""Test routines: the deterministic functions whose outputs devices cross-check.

All arithmetic is fixed-width modular unsigned, so every device computes
bit-identical results. Comparison returns 1 when the first operand is >= the
second. Composite routines left-fold their steps over the operand list.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import ContractError
from .record import Frozen
from .rng import GOLDEN_GAMMA, MASK64, MIX_MUL_1, MIX_MUL_2, mix_words


class Kind(Enum):
    ADD = "ADD"
    MUL = "MUL"
    CMP = "CMP"
    COMPOSITE = "COMPOSITE"


ATOMIC_KINDS = (Kind.ADD, Kind.MUL, Kind.CMP)
VALID_WIDTHS = (8, 16, 32)


class RoutineSpec(Frozen):
    """One routine: an atomic operation or a left-fold of atomic steps.

    `arity` and `op_count` are derived once: 2 operands and 1 primitive step
    for atomic kinds, len(steps) + 1 operands and len(steps) primitive steps
    for composites. `op_count` feeds energy accounting.
    """

    def __init__(self, id: int, kind: Kind, width: int = 8, steps: tuple[Kind, ...] = ()):
        if id < 0:
            raise ContractError(f"routine id must be >= 0, got {id}")
        if width not in VALID_WIDTHS:
            raise ContractError(f"width must be one of {VALID_WIDTHS}, got {width}")
        if kind is Kind.COMPOSITE:
            if not steps:
                raise ContractError("COMPOSITE routine needs at least one step")
            bad = [s for s in steps if s not in ATOMIC_KINDS]
            if bad:
                raise ContractError(f"composite steps must be atomic, got {bad[0].value}")
        elif steps:
            raise ContractError(f"{kind.value} routine must not carry steps")
        self.id = id
        self.kind = kind
        self.width = width
        self.steps = steps
        self.op_count = len(steps) or 1
        self.arity = self.op_count + 1


def execute(spec: RoutineSpec, ops: tuple[int, ...]) -> int:
    """Run a routine over its operand words with honest semantics.

    Pure and deterministic; raises ContractError on an arity mismatch or an
    operand outside [0, 2^width). An atomic routine is a fold of its one
    step over two operands.
    """
    if len(ops) != spec.arity:
        raise ContractError(f"routine {spec.id} needs {spec.arity} operands, got {len(ops)}")
    width = spec.width
    mask = (1 << width) - 1
    for v in ops:
        if not 0 <= v <= mask:
            raise ContractError(f"operand {v} outside [0, 2^{width})")
    acc = ops[0]
    for step, operand in zip(spec.steps or (spec.kind,), ops[1:]):
        if step is Kind.ADD:
            acc = (acc + operand) & mask
        elif step is Kind.MUL:
            acc = (acc * operand) & mask
        elif step is Kind.CMP:
            acc = 1 if acc >= operand else 0
        else:
            raise ContractError(f"not an atomic step: {step.value}")
    return acc


def compose(steps: list[Kind] | tuple[Kind, ...], width: int, spec_id: int = 0) -> RoutineSpec:
    """Build a COMPOSITE routine from atomic steps (left fold, arity len+1)."""
    if not steps:
        raise ContractError("compose() needs at least one step")
    return RoutineSpec(id=spec_id, kind=Kind.COMPOSITE, width=width, steps=tuple(steps))


def routine_catalog() -> list[RoutineSpec]:
    """The built-in suite; ids are stable and equal to list position."""
    return [
        RoutineSpec(id=0, kind=Kind.ADD, width=8),
        RoutineSpec(id=1, kind=Kind.MUL, width=8),
        RoutineSpec(id=2, kind=Kind.CMP, width=8),
        compose([Kind.ADD, Kind.MUL], width=8, spec_id=3),
        compose([Kind.MUL, Kind.ADD, Kind.CMP], width=8, spec_id=4),
    ]


# How many (round, checkee, routine id) stream keys the operand memo keeps.
OPERAND_KEY_CACHE = 4096


@lru_cache(maxsize=OPERAND_KEY_CACHE)
def _operand_key(round_no: int, checkee: int, routine_id: int) -> int:
    """mix_words(round, checkee, routine id): the seed-independent part of a
    challenge's stream seed, which every repetition of a scenario asks for again."""
    return mix_words(round_no, checkee, routine_id)


def challenge_seed(seed: int, round_no: int, checkee: int, routine_id: int) -> int:
    """The stream seed of a challenge's operands: `seed XOR mix(round, checkee, routine id)`.

    The one derivation of that stream: generate_operands and operand_word
    both start from it.
    """
    return seed ^ _operand_key(round_no, checkee, routine_id)


def generate_operands(seed: int, round_no: int, checkee: int, spec: RoutineSpec) -> tuple[int, ...]:
    """Derive the round's challenge operands from the shared seed.

    Any party knowing the shared seed reproduces the exact operands from
    challenge_seed, and distinct rounds/checkees/routines get
    independent-looking draws. Each operand is the next SplitMix64 word of
    that stream masked to the routine's width.
    """
    # SplitMix64.next_u64 inlined, with no generator object: every challenge
    # of every run draws here.
    s = challenge_seed(seed, round_no, checkee, spec.id)
    mask = (1 << spec.width) - 1
    values = []
    for _ in range(spec.arity):
        s = (s + GOLDEN_GAMMA) & MASK64
        z = ((s ^ (s >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        values.append((z ^ (z >> 31)) & mask)
    return tuple(values)


def operand_word(seed: int, round_no: int, checkee: int, spec: RoutineSpec, index: int) -> int:
    """generate_operands(seed, round_no, checkee, spec)[index], drawing no other word.

    Word i of a SplitMix64 stream seeded s is mix64(s + (i + 1) * gamma).
    """
    # mix64 inlined, as in generate_operands: every TRIGGER round draws here.
    z = (challenge_seed(seed, round_no, checkee, spec.id) + (index + 1) * GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
    return (z ^ (z >> 31)) & ((1 << spec.width) - 1)
