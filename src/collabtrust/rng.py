"""Bit-exact SplitMix64 randomness for all simulation streams.

Every random draw in the simulator comes from one of these streams, so two
runs with the same seed produce identical results on any platform. Python's
own `random` module is deliberately not used anywhere in the package.

SplitMix64 is counter-based: word i (from 0) of the stream at state s is
`mix64(s + (i + 1) * GOLDEN_GAMMA)`. So `block` computes the next k words
of a stream at once: it places the k counters in the 128-bit lanes of one
Python int, and each finalizer step is then one big-int operation over
every lane. A stream is a lazy iterator over its words (`words`), chained
from `block` passes: a first pass of a size its maker chooses (LANES by
default), then passes of LANES words each, so a stream whose maker knows
about how many words it will draw, as a run plan does for the grouping
stream, computes only those in its first pass. Every draw, a
fan-out's unicast fates and a group draw included, is a `next` on that
iterator, so every drawn word is the one a word-by-word draw would see.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from itertools import chain, count, repeat
from math import ceil

MASK64 = (1 << 64) - 1

# Weyl-sequence increment ("golden gamma") from the reference SplitMix64.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Finalizer multipliers; routines.generate_operands and operand_word inline the draw too.
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB

# Most words one `block` pass computes.
LANES = 64

# _PLANS[k] is the plan of a k-word pass, built on first use (see _plan).
_PLANS: list[tuple | None] = [None] * (LANES + 1)


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


def _plan(k: int) -> tuple:
    """The constants of a k-word `block` pass, kept in _PLANS.

    Lane i (bits 128i .. 128i + 127) of `s * lanes + counters` holds
    s + (i + 1) * GOLDEN_GAMMA, at most 2^65, and `mask` keeps the low 64
    bits of every lane. A product of two 64-bit words is below 2^128, so a
    masked lane times a multiplier never carries into the next lane.
    """
    if not 0 <= k <= LANES:
        raise ValueError(f"block() computes 0 to {LANES} words in one pass, got {k}")
    lanes = counters = mask = 0
    for i in range(k):
        lanes |= 1 << (128 * i)
        counters |= (((i + 1) * GOLDEN_GAMMA) & MASK64) << (128 * i)
        mask |= MASK64 << (128 * i)
    # Each lane's low 64 bits, read little-endian on every platform.
    unpack = struct.Struct("<" + "Q8x" * k).unpack
    plan = _PLANS[k] = (lanes, counters, mask, unpack, 16 * k)
    return plan


def block(state: int, k: int) -> tuple[int, ...]:
    """The next `k` words (at most LANES) of the stream at `state`.

    Word for word what k `next_u64` calls from that state return.
    """
    try:
        lanes, counters, mask, unpack, size = _PLANS[k]
    except (IndexError, TypeError):
        lanes, counters, mask, unpack, size = _plan(k)
    z = (state * lanes + counters) & mask
    z = ((z ^ z >> 30) & mask) * MIX_MUL_1 & mask
    z = ((z ^ z >> 27) & mask) * MIX_MUL_2 & mask
    # Bits above 64 in a lane are never read.
    return unpack((z ^ z >> 31).to_bytes(size, "little"))


def words(state: int, first: int = LANES) -> Iterator[int]:
    """The words of the stream at `state`: a `block` pass of `first` words, then LANES at a time.

    The pass after the first starts at state + first * GOLDEN_GAMMA, and
    each later one LANES * GOLDEN_GAMMA on, kept to 64 bits. Nothing is
    computed until the first word is drawn, and then one pass at a time.
    """
    starts = map(MASK64.__and__, count(state + first * GOLDEN_GAMMA, LANES * GOLDEN_GAMMA))
    sizes = chain((first,), repeat(LANES))
    return chain.from_iterable(map(block, chain((state & MASK64,), starts), sizes))


class SplitMix64:
    """The reference SplitMix64 generator.

    State advances by the golden gamma; each output is the finalized state.
    Matches the published test vectors (seed 0 -> 0xE220A8397B1DCDAF, ...).
    `words` is the stream's word iterator, public for the draws that take
    many words in one loop with `next`; `first` sizes its first pass.
    """

    __slots__ = ("words",)

    def __init__(self, seed: int, first: int = LANES):
        self.words = words(seed, first)

    def next_u64(self) -> int:
        return next(self.words)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of resolution."""
        return (next(self.words) >> 11) * (2.0 ** -53)


def float_cut(p: float) -> int:
    """The word bound for `next_float() < p`: a word z draws below p iff z < float_cut(p)."""
    return ceil(p * 2.0**53) << 11


def stream(seed: int, tag: int, *words: int, first: int = LANES) -> SplitMix64:
    """The substream named `tag` (and, per device, `words`) of the run at `seed`.

    Hashing the seed with the name keeps the streams of distinct names,
    devices and consecutive seeds independent. `first` sizes the stream's
    first `block` pass; it changes no word.
    """
    return SplitMix64(mix_words(seed, tag, *words), first)
