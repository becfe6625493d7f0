"""Test routines: the deterministic functions whose outputs devices cross-check.

All arithmetic is fixed-width modular unsigned, so every device computes
bit-identical results. Comparison returns 1 when the first operand is >= the
second. Composite routines left-fold their steps over the operand list.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ContractError
from .rng import GOLDEN_GAMMA, MASK64, MIX_MUL_1, MIX_MUL_2, mix_words


class Kind(Enum):
    ADD = "ADD"
    MUL = "MUL"
    CMP = "CMP"
    COMPOSITE = "COMPOSITE"


ATOMIC_KINDS = (Kind.ADD, Kind.MUL, Kind.CMP)
VALID_WIDTHS = (8, 16, 32)


@dataclass(frozen=True)
class RoutineSpec:
    """One routine: an atomic operation or a left-fold of atomic steps.

    `arity` is derived: 2 for atomic kinds, len(steps) + 1 for composites.
    """

    id: int
    kind: Kind
    width: int
    steps: tuple[Kind, ...] = ()

    def __post_init__(self):
        if self.id < 0:
            raise ContractError(f"routine id must be >= 0, got {self.id}")
        if self.width not in VALID_WIDTHS:
            raise ContractError(f"width must be one of {VALID_WIDTHS}, got {self.width}")
        if self.kind is Kind.COMPOSITE:
            if not self.steps:
                raise ContractError("COMPOSITE routine needs at least one step")
            bad = [s for s in self.steps if s not in ATOMIC_KINDS]
            if bad:
                raise ContractError(f"composite steps must be atomic, got {bad[0].value}")
        elif self.steps:
            raise ContractError(f"{self.kind.value} routine must not carry steps")

    @property
    def arity(self) -> int:
        if self.kind is Kind.COMPOSITE:
            return len(self.steps) + 1
        return 2

    @property
    def op_count(self) -> int:
        """Primitive steps executed per run, for energy accounting."""
        if self.kind is Kind.COMPOSITE:
            return len(self.steps)
        return 1


@dataclass(frozen=True)
class OperandVector:
    values: tuple[int, ...]
    width: int

    def __post_init__(self):
        if self.width not in VALID_WIDTHS:
            raise ContractError(f"width must be one of {VALID_WIDTHS}, got {self.width}")
        bound = 1 << self.width
        for v in self.values:
            if not 0 <= v < bound:
                raise ContractError(f"operand {v} outside [0, 2^{self.width})")


@dataclass(frozen=True)
class RoutineOutput:
    value: int
    op_count: int


def _apply_step(kind: Kind, a: int, b: int, mask: int) -> int:
    if kind is Kind.ADD:
        return (a + b) & mask
    if kind is Kind.MUL:
        return (a * b) & mask
    if kind is Kind.CMP:
        return 1 if a >= b else 0
    raise ContractError(f"not an atomic step: {kind.value}")


def execute(spec: RoutineSpec, ops: OperandVector) -> RoutineOutput:
    """Run a routine over an operand vector with honest semantics.

    Pure and deterministic; raises ContractError on arity or width mismatch.
    """
    if ops.width != spec.width:
        raise ContractError(
            f"operand width {ops.width} does not match routine width {spec.width}"
        )
    if len(ops.values) != spec.arity:
        raise ContractError(
            f"routine {spec.id} needs {spec.arity} operands, got {len(ops.values)}"
        )
    mask = (1 << spec.width) - 1
    if spec.kind is not Kind.COMPOSITE:
        value = _apply_step(spec.kind, ops.values[0], ops.values[1], mask)
        return RoutineOutput(value=value, op_count=1)
    acc = ops.values[0]
    for step, operand in zip(spec.steps, ops.values[1:]):
        acc = _apply_step(step, acc, operand, mask)
    return RoutineOutput(value=acc, op_count=len(spec.steps))


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


def generate_operands(seed: int, round_no: int, checkee: int, spec: RoutineSpec) -> OperandVector:
    """Derive the round's challenge operands from the shared seed.

    The stream seed is `seed XOR mix(round, checkee, routine id)`, so any
    party knowing the shared seed reproduces the exact vector, and distinct
    rounds/checkees/routines get independent-looking draws. Each operand is
    the next SplitMix64 word of that stream masked to the routine's width.
    """
    # SplitMix64.next_u64 inlined, with no generator object: every challenge
    # of every run draws here.
    s = seed ^ mix_words(round_no, checkee, spec.id)
    width = spec.width
    mask = (1 << width) - 1
    values = []
    for _ in range(spec.arity):
        s = (s + GOLDEN_GAMMA) & MASK64
        z = ((s ^ (s >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        values.append((z ^ (z >> 31)) & mask)
    # Every value is masked to a width validated when the spec was built, so
    # OperandVector's per-value range check cannot fail here and is skipped.
    ops = object.__new__(OperandVector)
    object.__setattr__(ops, "values", tuple(values))
    object.__setattr__(ops, "width", width)
    return ops
