"""SplitMix64 stream tests: reference vectors, uniformity plumbing, mixing."""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collabtrust.rng as rng
from collabtrust.rng import (
    GOLDEN_GAMMA,
    LANES,
    MASK64,
    SplitMix64,
    block,
    float_cut,
    mix64,
    mix_words,
    words,
)
from reference_impl import below, next_bits, shuffle_prefix, state_before, unmix64

# Published reference outputs for the canonical SplitMix64 with seed 0.
SEED0_VECTORS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _reference_next(state: int) -> tuple[int, int]:
    # Independent re-statement of the algorithm, kept deliberately verbose.
    state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    z = z ^ (z >> 31)
    return state, z


def test_seed_zero_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_VECTORS


def test_stream_matches_reference_reimplementation():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK64):
        rng = SplitMix64(seed)
        state = seed
        for _ in range(1000):
            state, expected = _reference_next(state)
            assert rng.next_u64() == expected


def test_determinism_same_seed():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_next_bits_masks_to_width():
    rng = SplitMix64(7)
    for width in (8, 16, 32):
        for _ in range(200):
            assert 0 <= next_bits(rng, width) < (1 << width)


def test_next_float_in_unit_interval():
    rng = SplitMix64(99)
    values = [rng.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity sanity: the mean of 10k uniforms is ~0.5 +- 3*sd
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 3 * (1 / 12) ** 0.5 / 100


# The words on both sides of the cut, for probabilities that are and are not
# a whole number of 2**-53 steps.
@given(st.floats(0.0, 1.0), st.integers(0, MASK64))
@example(0.0, 0)
@example(1.0, MASK64)
@example(0.1, 0)
@example(0.5, 1 << 63)
def test_float_cut_is_the_word_bound_of_next_float(p, z):
    cut = float_cut(p)
    for word in (z, cut - 1, cut):
        if 0 <= word <= MASK64:
            assert (word < cut) == (SplitMix64(state_before(word)).next_float() < p)


def test_below_bounds_and_coverage():
    rng = SplitMix64(5)
    seen = set()
    for _ in range(500):
        v = below(rng, 7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_one_consumes_no_draw():
    rng = SplitMix64(11)
    first = SplitMix64(11).next_u64()
    assert below(rng, 1) == 0
    assert rng.next_u64() == first


# A state just below 2**64 wraps the counter of the pass's first lane.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(state=st.one_of(
    st.integers(0, MASK64),
    st.integers(0, 2**16).map(lambda d: MASK64 - d),
))
@example(state=0)
@example(state=MASK64)
def test_block_is_the_next_words_at_the_state(state):
    expected = []
    rng = SplitMix64(state)
    for _ in range(LANES):
        expected.append(rng.next_u64())
    for k in range(1, LANES + 1):
        assert block(state, k) == tuple(expected[:k])
    # The state after j words is j golden gammas on, as a batched draw sets it.
    for j in range(LANES):
        skipped = SplitMix64((state + j * GOLDEN_GAMMA) & MASK64)
        assert skipped.next_u64() == expected[j]


# A state just below 2**64 wraps the first counter; a seed outside 64 bits
# is taken modulo 2**64. The first pass holds `first` words: one, the 44 a
# run plan sizes for the manifestation Monte-Carlo's grouping stream (11
# epochs of 4 draws), or LANES, the default (whose cases keep the state
# alone as their id).
@pytest.mark.parametrize(
    ("state", "first"),
    [
        pytest.param(state, first, id=str(state) if first == LANES else f"{state}-first{first}")
        for first in (1, 44, LANES)
        for state in (0, 1, MASK64, MASK64 - 3, -(2**63))
    ],
)
def test_words_are_the_stream_across_every_pass(state, first, monkeypatch):
    passes = []

    def counting(s, k):
        passes.append(k)
        return block(s, k)

    monkeypatch.setattr(rng, "block", counting)
    stream = SplitMix64(state, first)
    assert passes == []  # a stream never drawn from computes nothing
    assert stream.next_u64() == mix64(state + GOLDEN_GAMMA)
    assert passes == [first]
    drawn = [stream.next_u64()] + list(islice(stream.words, 298)) + [stream.next_float()]
    # Word i of the stream, across the pass boundaries first, first + 64, ...
    assert drawn[:-1] == [mix64(state + (i + 1) * GOLDEN_GAMMA) for i in range(1, 300)]
    assert drawn[-1] == (mix64(state + 301 * GOLDEN_GAMMA) >> 11) * 2.0**-53
    # 301 words: the first pass, then as many LANES passes as the rest needs.
    assert passes == [first] + [LANES] * -(-(301 - first) // LANES)
    expected = [mix64(state + i * GOLDEN_GAMMA) for i in range(1, 301)]
    assert list(islice(words(state, first), 300)) == expected


def test_block_computes_at_most_lanes_words_in_one_pass():
    with pytest.raises(ValueError, match="block"):
        block(1, LANES + 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word=st.integers(0, MASK64))
@example(word=MASK64)
def test_unmix64_inverts_mix64(word):
    assert unmix64(mix64(word)) == word
    assert mix64(unmix64(word)) == word
    assert SplitMix64(state_before(word)).next_u64() == word


def test_shuffle_prefix_is_permutation():
    rng = SplitMix64(21)
    for k in (0, 1, 5, 10):
        items = list(range(10))
        shuffle_prefix(rng, items, k)
        assert sorted(items) == list(range(10))


def test_mix_words_sensitivity():
    # Distinct argument tuples land on distinct hashes (no collisions among
    # the small integers the simulator actually feeds in).
    seen = set()
    for a in range(20):
        for b in range(20):
            for c in range(5):
                h = mix_words(a, b, c)
                assert h == mix_words(a, b, c)
                seen.add(h)
    assert len(seen) == 20 * 20 * 5


def test_mix64_avalanche_smoke():
    # Flipping one input bit flips roughly half the output bits on average.
    total = 0
    for i in range(64):
        total += (mix64(0) ^ mix64(1 << i)).bit_count()
    assert 24 * 64 < total < 40 * 64


def test_golden_gamma_constant():
    assert GOLDEN_GAMMA == 0x9E3779B97F4A7C15
