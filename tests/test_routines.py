"""Routine engine tests: semantics, composition oracle, catalog, operand derivation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabtrust.errors import ContractError
from collabtrust.rng import SplitMix64, mix_words
from collabtrust.routines import (
    ATOMIC_KINDS,
    VALID_WIDTHS,
    Kind,
    RoutineSpec,
    challenge_seed,
    compose,
    execute,
    generate_operands,
    operand_word,
    routine_catalog,
)
from reference_impl import next_bits


def test_add_wraps_modulo_width():
    assert execute(RoutineSpec(id=0, kind=Kind.ADD, width=8), (200, 100)) == 44  # 300 mod 256


def test_cmp_is_geq():
    spec = RoutineSpec(id=2, kind=Kind.CMP, width=8)
    assert execute(spec, (5, 9)) == 0
    assert execute(spec, (9, 5)) == 1
    assert execute(spec, (9, 9)) == 1


def test_composite_left_fold():
    spec = compose([Kind.ADD, Kind.MUL], width=8)
    assert execute(spec, (3, 4, 2)) == 14  # (3+4)*2
    assert spec.op_count == 2


def test_mul_wraps():
    assert execute(RoutineSpec(id=1, kind=Kind.MUL, width=8), (16, 17)) == (16 * 17) % 256


def test_single_step_compose_equals_atomic():
    composite = compose([Kind.ADD], width=8)
    atomic = RoutineSpec(id=0, kind=Kind.ADD, width=8)
    assert composite.arity == 2
    rng = SplitMix64(1)
    for _ in range(200):
        ops = (next_bits(rng, 8), next_bits(rng, 8))
        assert execute(composite, ops) == execute(atomic, ops)


def test_three_step_compose_shape():
    spec = compose([Kind.ADD, Kind.MUL, Kind.CMP], width=8)
    assert spec.arity == 4
    assert spec.op_count == 3


def test_compose_fold_identity_against_manual_composition():
    # Oracle: direct two-call composition of the atomic routines.
    spec = compose([Kind.MUL, Kind.ADD], width=8)
    rng = SplitMix64(2024)
    for _ in range(1000):
        a, b, c = (next_bits(rng, 8) for _ in range(3))
        expected = ((a * b) % 256 + c) % 256
        assert execute(spec, (a, b, c)) == expected


def test_fold_identity_all_two_step_composites():
    atomic = {
        Kind.ADD: RoutineSpec(id=0, kind=Kind.ADD, width=8),
        Kind.MUL: RoutineSpec(id=1, kind=Kind.MUL, width=8),
        Kind.CMP: RoutineSpec(id=2, kind=Kind.CMP, width=8),
    }
    rng = SplitMix64(77)
    for first in atomic:
        for second in atomic:
            spec = compose([first, second], width=8)
            for _ in range(1200):  # > 10^4 vectors across the 9 combinations
                a, b, c = (next_bits(rng, 8) for _ in range(3))
                step1 = execute(atomic[first], (a, b))
                expected = execute(atomic[second], (step1, c))
                assert execute(spec, (a, b, c)) == expected


def test_outputs_closed_in_width():
    rng = SplitMix64(5)
    for width in (8, 16, 32):
        specs = [
            RoutineSpec(id=0, kind=Kind.ADD, width=width),
            RoutineSpec(id=1, kind=Kind.MUL, width=width),
            compose([Kind.MUL, Kind.ADD], width=width),
        ]
        for spec in specs:
            for _ in range(300):
                ops = tuple(next_bits(rng, width) for _ in range(spec.arity))
                assert 0 <= execute(spec, ops) < (1 << width)


def test_execute_is_pure():
    spec = compose([Kind.ADD, Kind.MUL], width=8)
    ops = (3, 4, 2)
    assert execute(spec, ops) == execute(spec, ops)


def test_catalog_contents():
    catalog = routine_catalog()
    assert len(catalog) == 5
    assert [spec.id for spec in catalog] == [0, 1, 2, 3, 4]
    assert catalog[0].kind is Kind.ADD
    assert catalog[0].width == 8
    assert catalog[0].arity == 2
    assert catalog[3].steps == (Kind.ADD, Kind.MUL)
    assert catalog[4].steps == (Kind.MUL, Kind.ADD, Kind.CMP)


def test_contract_errors():
    spec = RoutineSpec(id=0, kind=Kind.ADD, width=8)
    with pytest.raises(ContractError):
        execute(spec, (1, 2, 3))  # arity mismatch
    with pytest.raises(ContractError):
        compose([], width=8)
    with pytest.raises(ContractError):
        compose([Kind.COMPOSITE], width=8)
    with pytest.raises(ContractError):
        RoutineSpec(id=0, kind=Kind.ADD, width=8, steps=(Kind.ADD,))
    with pytest.raises(ContractError):
        RoutineSpec(id=0, kind=Kind.ADD, width=12)
    with pytest.raises(ContractError, match="outside"):
        execute(spec, (256, 0))
    with pytest.raises(ContractError, match="outside"):
        execute(spec, (0, -1))


def test_generate_operands_deterministic_and_masked():
    spec = routine_catalog()[0]
    a = generate_operands(99, 4, 2, spec)
    b = generate_operands(99, 4, 2, spec)
    assert a == b
    assert len(a) == spec.arity
    assert all(0 <= v < 256 for v in a)
    # any input change changes the operands
    assert generate_operands(100, 4, 2, spec) != a
    assert generate_operands(99, 5, 2, spec) != a
    assert generate_operands(99, 4, 3, spec) != a
    assert generate_operands(99, 4, 2, routine_catalog()[1]) != a


@st.composite
def routine_specs(draw) -> RoutineSpec:
    width = draw(st.sampled_from(VALID_WIDTHS))
    spec_id = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return RoutineSpec(id=spec_id, kind=draw(st.sampled_from(ATOMIC_KINDS)), width=width)
    steps = draw(st.lists(st.sampled_from(ATOMIC_KINDS), min_size=1, max_size=4))
    return compose(steps, width=width, spec_id=spec_id)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    round_no=st.integers(0, 2**32),
    checkee=st.integers(0, 2**16),
    spec=routine_specs(),
)
def test_operands_match_reference_stream(seed, round_no, checkee, spec):
    # The reference: a SplitMix64 generator seeded with seed ^ mix(round,
    # checkee, id), one word per operand, masked to the routine's width.
    rng = SplitMix64(seed ^ mix_words(round_no, checkee, spec.id))
    mask = (1 << spec.width) - 1
    expected = tuple(rng.next_u64() & mask for _ in range(spec.arity))
    assert generate_operands(seed, round_no, checkee, spec) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    round_no=st.integers(0, 2**32),
    checkee=st.integers(0, 2**16),
    spec=routine_specs(),
)
def test_operand_word_is_that_operand_alone(seed, round_no, checkee, spec):
    ops = generate_operands(seed, round_no, checkee, spec)
    assert [operand_word(seed, round_no, checkee, spec, i) for i in range(spec.arity)] == list(ops)
    assert challenge_seed(seed, round_no, checkee, spec.id) == seed ^ mix_words(
        round_no, checkee, spec.id
    )


def _birthday_mean_sd(n: int, m: int) -> tuple[float, float]:
    """Mean and sd of the collision count for n uniform draws from m values.

    Collisions = n - (number of distinct values drawn). Uses the exact
    occupancy moments: E[D] = m(1-q1), Var[D] = m q1(1-q1) + m(m-1)(q2-q1^2)
    with q1 = (1-1/m)^n, q2 = (1-2/m)^n.
    """
    q1 = (1 - 1 / m) ** n
    q2 = (1 - 2 / m) ** n
    mean_distinct = m * (1 - q1)
    var_distinct = m * q1 * (1 - q1) + m * (m - 1) * (q2 - q1 * q1)
    return n - mean_distinct, math.sqrt(var_distinct)


def test_operand_collisions_match_birthday_statistics():
    # 10,000 distinct (round, checkee) pairs at W=8 arity 2: the pair of
    # bytes is one point in a 16-bit space and should collide like uniform
    # random draws do.
    spec = routine_catalog()[0]
    n, m = 10_000, 1 << 16
    points = []
    for round_no in range(2000):
        for checkee in range(5):
            ops = generate_operands(0xC0FFEE, round_no, checkee, spec)
            points.append((ops[0] << 8) | ops[1])
    assert len(points) == n
    collisions = n - len(set(points))
    mean, sd = _birthday_mean_sd(n, m)
    assert abs(collisions - mean) <= 3 * sd, (collisions, mean, sd)


def _left_fold(spec: RoutineSpec, values: list[int]) -> int:
    """Reference semantics: fold the steps over the operands, modulo 2^width."""
    modulus = 1 << spec.width
    steps = spec.steps if spec.kind is Kind.COMPOSITE else (spec.kind,)
    acc = values[0]
    for step, operand in zip(steps, values[1:]):
        if step is Kind.ADD:
            acc = (acc + operand) % modulus
        elif step is Kind.MUL:
            acc = (acc * operand) % modulus
        else:
            acc = int(acc >= operand)
    return acc


@st.composite
def specs_with_operands(draw) -> tuple[RoutineSpec, list[int]]:
    width = draw(st.sampled_from(VALID_WIDTHS))
    arity = draw(st.integers(2, 5))
    spec_id = draw(st.integers(0, 2**16))
    if arity == 2 and draw(st.booleans()):
        spec = RoutineSpec(id=spec_id, kind=draw(st.sampled_from(ATOMIC_KINDS)), width=width)
    else:
        n_steps = arity - 1
        steps = draw(st.lists(st.sampled_from(ATOMIC_KINDS), min_size=n_steps, max_size=n_steps))
        spec = compose(steps, width=width, spec_id=spec_id)
    values = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=arity, max_size=arity))
    return spec, values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=specs_with_operands())
def test_execute_equals_reference_left_fold(case):
    spec, values = case
    assert spec.arity == len(values)
    assert execute(spec, tuple(values)) == _left_fold(spec, values)
    assert spec.op_count == len(values) - 1
    with pytest.raises(ContractError, match="operands"):
        execute(spec, (*values, 0))
    with pytest.raises(ContractError, match="operands"):
        execute(spec, tuple(values[:-1]))
    with pytest.raises(ContractError, match="outside"):
        execute(spec, (*values[:-1], 1 << spec.width))
