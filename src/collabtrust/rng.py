"""Bit-exact SplitMix64 randomness for all simulation streams.

Every random draw in the simulator comes from one of these streams, so two
runs with the same seed produce identical results on any platform. Python's
own `random` module is deliberately not used anywhere in the package.

SplitMix64 is counter-based: word i (from 0) of the stream at state s is
`mix64(s + (i + 1) * GOLDEN_GAMMA)`. So `block` computes the next k words
of a stream at once, without advancing it: it places the k counters in the
128-bit lanes of one Python int, and each finalizer step is then one big-int
operation over every lane. Fan-outs (`SplitMix64.fates`) and group draws
(`simnet.draw_group`) read the stream's `state`, call `block` at it for
every word they need if none is rejected (at most LANES; a rejection or a
longer draw computes another pass), and then set the state once, past the
words they consumed. So every drawn word is the one a word-by-word draw
would see.
"""

from __future__ import annotations

import math
import struct

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
    """The next `k` words (at most LANES) of the stream at `state`, which stays as it is.

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


class SplitMix64:
    """The reference SplitMix64 generator.

    State advances by the golden gamma; each output is the finalized state.
    Matches the published test vectors (seed 0 -> 0xE220A8397B1DCDAF, ...).
    `state` is public for the batched draws that read words with `block`
    and then step it past them.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        # mix64 inlined: this is the simulator's most frequent call.
        z = self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def fates(self, count: int, drop_prob: float, lo: int, span: int) -> list[int | None]:
        """`count` unicast fates: None if dropped, else a latency in [lo, lo + span).

        Per message this consumes exactly the words that `next_float() <
        drop_prob` (skipped when drop_prob is 0) and then, unless dropped, an
        unbiased draw in [0, span) by rejection would, so batching a fan-out
        changes no drawn word. The words come from `block` passes (word i
        from state s is mix64(s + (i + 1) * GOLDEN_GAMMA), one per 128-bit
        lane): each pass is sized for the rest of the fan-out without
        rejections, up to LANES words, and a rejection or a longer fan-out
        computes another. The stream advances by the words consumed; the
        words a pass computes past them are never seen.
        """
        if span <= 0:
            raise ValueError(f"fates() needs span >= 1, got {span}")
        # next_float() < p  <=>  (z >> 11) < ceil(p * 2**53)  <=>  z < ceil(p * 2**53) << 11.
        drop_cut = math.ceil(drop_prob * 2.0**53) << 11
        limit = (1 << 64) - ((1 << 64) % span)
        drop_word = drops = drop_cut != 0  # whether the next word decides a drop
        # Words per unicast when nothing is rejected.
        per = drops + (span != 1)
        if not per:
            return [lo] * count
        s = self.state
        out: list[int | None] = []
        append = out.append
        left = count
        while left:
            for used, z in enumerate(block(s, min(LANES, per * left)), 1):
                if drop_word:
                    if z < drop_cut:
                        append(None)
                    elif span == 1:
                        append(lo)
                    else:
                        drop_word = False
                        continue
                elif z < limit:
                    append(lo + z % span)
                    drop_word = drops
                else:
                    continue
                left -= 1
                if not left:
                    break
            s = (s + used * GOLDEN_GAMMA) & MASK64
        self.state = s
        return out


def stream(seed: int, tag: int, *words: int) -> SplitMix64:
    """The substream named `tag` (and, per device, `words`) of the run at `seed`.

    Hashing the seed with the name keeps the streams of distinct names,
    devices and consecutive seeds independent.
    """
    return SplitMix64(mix_words(seed, tag, *words))
