"""SplitMix64 stream tests: reference vectors, uniformity plumbing, mixing."""

from __future__ import annotations

from collabtrust.rng import GOLDEN_GAMMA, MASK64, SplitMix64, mix64, mix_words
from reference_impl import next_bits, shuffle_prefix

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


def test_below_bounds_and_coverage():
    rng = SplitMix64(5)
    seen = set()
    for _ in range(500):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_one_consumes_no_draw():
    rng = SplitMix64(11)
    first = SplitMix64(11).next_u64()
    assert rng.below(1) == 0
    assert rng.next_u64() == first


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
