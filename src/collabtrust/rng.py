"""Bit-exact SplitMix64 randomness for all simulation streams.

Every random draw in the simulator comes from one of these streams, so two
runs with the same seed produce identical results on any platform. Python's
own `random` module is deliberately not used anywhere in the package.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1

# Weyl-sequence increment ("golden gamma") from the reference SplitMix64.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Finalizer multipliers; routines.generate_operands inlines the draw too.
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer: avalanche a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def mix_words(*words: int) -> int:
    """Fold integers into one 64-bit hash by iterating the finalizer.

    Used to derive independent stream seeds (per round/device/routine,
    per named subsystem, through `stream`) from a single scenario seed.
    """
    h = 0
    for w in words:
        # mix64 inlined: every challenge derives its operand stream here.
        z = (h + GOLDEN_GAMMA + (w & MASK64)) & MASK64
        z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        h = z ^ (z >> 31)
    return h


class SplitMix64:
    """The reference SplitMix64 generator.

    State advances by the golden gamma; each output is the finalized state.
    Matches the published test vectors (seed 0 -> 0xE220A8397B1DCDAF, ...).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        # mix64 inlined: this is the simulator's most frequent call.
        z = self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n). Consumes no draw when n == 1."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        if n == 1:
            return 0
        # Rejection sampling keeps the distribution exactly uniform.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def fates(self, count: int, drop_prob: float, lo: int, span: int) -> list[int | None]:
        """`count` unicast fates: None if dropped, else a latency in [lo, lo + span).

        Per message this draws exactly what `next_float() < drop_prob` (skipped
        when drop_prob is 0) and then, unless dropped, `lo + below(span)`
        would draw, so batching a fan-out changes no drawn word.
        """
        if span <= 0:
            raise ValueError(f"fates() needs span >= 1, got {span}")
        # x * 2**-53 < p  <=>  x < ceil(p * 2**53) for an integer x; scaling
        # by a power of two is exact.
        threshold = math.ceil(drop_prob * 2.0**53)
        limit = (1 << 64) - ((1 << 64) % span)
        s = self._state
        out: list[int | None] = []
        for _ in range(count):
            if threshold:
                z = s = (s + GOLDEN_GAMMA) & MASK64
                z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
                z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
                if (z ^ (z >> 31)) >> 11 < threshold:
                    out.append(None)
                    continue
            if span == 1:
                out.append(lo)
                continue
            while True:
                z = s = (s + GOLDEN_GAMMA) & MASK64
                z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
                z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
                z ^= z >> 31
                if z < limit:
                    out.append(lo + z % span)
                    break
        self._state = s
        return out


def stream(seed: int, tag: int, *words: int) -> SplitMix64:
    """The substream named `tag` (and, per device, `words`) of the run at `seed`.

    Hashing the seed with the name keeps the streams of distinct names,
    devices and consecutive seeds independent.
    """
    return SplitMix64(mix_words(seed, tag, *words))
