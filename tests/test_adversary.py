"""Adversary model tests: fault transforms, trigger statistics, lying policies."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from collabtrust.adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    PayloadKind,
    ReportingKind,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
    trigger_probability,
)
from collabtrust.errors import ContractError
from collabtrust.rng import SplitMix64
from collabtrust.routines import Kind, RoutineSpec, execute
from reference_impl import next_bits

ADD8 = RoutineSpec(id=0, kind=Kind.ADD, width=8)


def run_with_fault(profile, spec, ops):
    return apply_fault(profile, spec, ops, execute(spec, ops))


def test_honest_fault_is_identity():
    ops = (200, 100)
    honest = execute(ADD8, ops)
    assert apply_fault(AdversaryProfile(), ADD8, ops, honest) == honest


def test_always_wrong_complements():
    profile = AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)
    ops = (3, 2)
    honest = execute(ADD8, ops)  # 5
    assert apply_fault(profile, ADD8, ops, honest) == 250


def test_always_wrong_never_equals_honest_exhaustive():
    profile = AdversaryProfile(fault=FaultKind.ALWAYS_WRONG)
    for a in range(256):
        ops = (a, 1)
        honest = execute(ADD8, ops)
        assert apply_fault(profile, ADD8, ops, honest) != honest


def test_trojan_trigger_and_payload():
    model = TrojanModel(
        operand_index=0, mask=0xFF, match=0xA5, payload=PayloadKind.XOR, payload_value=0x01
    )
    profile = AdversaryProfile(fault=FaultKind.TROJAN, trojan=model)
    fired = run_with_fault(profile, ADD8, (0xA5, 1))
    assert fired == 0xA7  # honest 0xA6 ^ 0x01
    quiet = run_with_fault(profile, ADD8, (0x13, 1))
    assert quiet == execute(ADD8, (0x13, 1))


def test_trojan_payload_kinds():
    ops = (0x05, 7)
    honest = execute(ADD8, ops)  # 12
    base = dict(operand_index=0, mask=0x0F, match=0x05)
    const = TrojanModel(payload=PayloadKind.CONST, payload_value=0xEE, **base)
    comp = TrojanModel(payload=PayloadKind.COMPLEMENT, **base)
    assert apply_fault(
        AdversaryProfile(fault=FaultKind.TROJAN, trojan=const), ADD8, ops, honest
    ) == 0xEE
    assert apply_fault(
        AdversaryProfile(fault=FaultKind.TROJAN, trojan=comp), ADD8, ops, honest
    ) == honest ^ 0xFF


def test_non_trigger_transparency_exhaustive():
    # For every operand pair that does not match the trigger, the output is
    # untouched bit for bit (all 2^16 pairs at W=8).
    model = TrojanModel(
        operand_index=0, mask=0xFF, match=0xA5, payload=PayloadKind.XOR, payload_value=0x01
    )
    profile = AdversaryProfile(fault=FaultKind.TROJAN, trojan=model)
    for a in range(256):
        for b in range(256):
            ops = (a, b)
            honest = execute(ADD8, ops)
            faulted = apply_fault(profile, ADD8, ops, honest)
            if a == 0xA5:
                assert faulted != honest
            else:
                assert faulted == honest


def count_triggering_pairs(model: TrojanModel) -> int:
    hits = 0
    for a in range(256):
        for b in range(256):
            if model.triggers((a, b)):
                hits += 1
    return hits


def test_trigger_probability_against_enumeration():
    full = TrojanModel(operand_index=0, mask=0xFF, match=0xA5, payload=PayloadKind.COMPLEMENT)
    nibble = TrojanModel(operand_index=0, mask=0x0F, match=0x05, payload=PayloadKind.COMPLEMENT)
    assert trigger_probability(full, ADD8) == Fraction(1, 256)
    assert trigger_probability(nibble, ADD8) == Fraction(1, 16)
    # oracle: enumerate all 2^16 operand pairs and count the triggering ones
    assert Fraction(count_triggering_pairs(full), 1 << 16) == Fraction(1, 256)
    assert Fraction(count_triggering_pairs(nibble), 1 << 16) == Fraction(1, 16)


def test_trigger_probability_empty_mask_matches_everything():
    model = TrojanModel(operand_index=0, mask=0x00, match=0x00, payload=PayloadKind.COMPLEMENT)
    assert trigger_probability(model, ADD8) == 1


def test_importing_the_cli_loads_no_fractions():
    # trigger_probability imports Fraction when it is called, so no command
    # pays for fractions, decimal and numbers at start-up.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, collabtrust.cli; print('fractions' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"
    model = TrojanModel(operand_index=0, mask=0x0F, match=0x05, payload=PayloadKind.COMPLEMENT)
    assert type(trigger_probability(model, ADD8)) is Fraction


def test_trigger_probability_validates_model():
    model = TrojanModel(operand_index=5, mask=0x0F, match=0x05, payload=PayloadKind.COMPLEMENT)
    with pytest.raises(ContractError):
        trigger_probability(model, ADD8)


def test_empirical_trigger_rate_within_3_sigma():
    model = TrojanModel(operand_index=0, mask=0x0F, match=0x05, payload=PayloadKind.COMPLEMENT)
    p = float(trigger_probability(model, ADD8))
    rng = SplitMix64(314159)
    n = 1_000_000
    fired = sum(1 for _ in range(n) if (next_bits(rng, 8) & 0x0F) == 0x05)
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(fired / n - p) <= 3 * sigma


def test_trojan_trigger_invariant():
    with pytest.raises(ContractError):
        TrojanModel(operand_index=0, mask=0x0F, match=0x15, payload=PayloadKind.COMPLEMENT)


def test_distort_opinion_policies():
    rng = SplitMix64(1)
    honest = AdversaryProfile()
    for opinion in Opinion:
        for checkee in range(5):
            assert distort_opinion(honest, opinion, checkee, rng) is opinion

    framer = AdversaryProfile(reporting=ReportingKind.FRAME, targets=frozenset({3}))
    assert distort_opinion(framer, Opinion.AGREE, 3, rng) is Opinion.DISAGREE
    assert distort_opinion(framer, Opinion.AGREE, 2, rng) is Opinion.AGREE

    shielder = AdversaryProfile(reporting=ReportingKind.SHIELD, targets=frozenset({1}))
    assert distort_opinion(shielder, Opinion.DISAGREE, 1, rng) is Opinion.AGREE
    assert distort_opinion(shielder, Opinion.DISAGREE, 0, rng) is Opinion.DISAGREE


def test_distort_opinion_random_extremes():
    always = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=1.0)
    never = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=0.0)
    rng = SplitMix64(2)
    for _ in range(100):
        assert distort_opinion(always, Opinion.AGREE, 0, rng) is Opinion.DISAGREE
        assert distort_opinion(never, Opinion.AGREE, 0, rng) is Opinion.AGREE


def test_distort_opinion_random_rate():
    profile = AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=0.25)
    rng = SplitMix64(3)
    n = 20_000
    flips = sum(
        1 for _ in range(n) if distort_opinion(profile, Opinion.AGREE, 0, rng) is Opinion.DISAGREE
    )
    sigma = (0.25 * 0.75 / n) ** 0.5
    assert abs(flips / n - 0.25) <= 3 * sigma


def test_evasion_forces_non_trigger():
    model = TrojanModel(
        operand_index=0, mask=0xFF, match=0xA5, payload=PayloadKind.XOR, payload_value=0x01
    )
    evader = AdversaryProfile(
        initiator_policy=InitiatorKind.EVADE, targets=frozenset({2})
    )
    trojans = {2: model}
    hot = (0xA5, 1)
    out = choose_adversarial_operands(evader, hot, trojans, checkee=2)
    assert (out[0] & 0xFF) != 0xA5
    assert not model.triggers(out)
    # devices outside the colluder set get the honest operands
    assert choose_adversarial_operands(evader, hot, trojans, checkee=4) is hot


def test_evasion_exhaustive_over_operand_values():
    for mask, match in ((0xFF, 0xA5), (0x0F, 0x05), (0xF0, 0xA0)):
        model = TrojanModel(
            operand_index=0, mask=mask, match=match, payload=PayloadKind.COMPLEMENT
        )
        evader = AdversaryProfile(
            initiator_policy=InitiatorKind.EVADE, targets=frozenset({1})
        )
        for a in range(256):
            out = choose_adversarial_operands(evader, (a, 0), {1: model}, checkee=1)
            assert not model.triggers(out)
            # in width, and untouched outside the mask
            assert 0 <= out[0] <= 0xFF
            assert out[0] & ~mask == a & ~mask
            assert out[1] == 0


def test_evasion_noop_cases():
    honest_initiator = AdversaryProfile()
    ops = (0xA5, 1)
    assert choose_adversarial_operands(honest_initiator, ops, {}, checkee=2) is ops
    # colluder without a trojan, and an un-evadable always-on trigger
    evader = AdversaryProfile(initiator_policy=InitiatorKind.EVADE, targets=frozenset({2}))
    assert choose_adversarial_operands(evader, ops, {}, checkee=2) is ops
    always_on = TrojanModel(operand_index=0, mask=0, match=0, payload=PayloadKind.COMPLEMENT)
    assert choose_adversarial_operands(evader, ops, {2: always_on}, checkee=2) is ops


def test_profile_validation():
    with pytest.raises(ContractError):
        AdversaryProfile(fault=FaultKind.TROJAN)  # missing model
    with pytest.raises(ContractError):
        AdversaryProfile(reporting=ReportingKind.RANDOM, flip_probability=1.5)
