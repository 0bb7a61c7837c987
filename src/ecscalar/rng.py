"""Deterministic, platform-independent randomness for reproducible runs.

The generator is SplitMix64: a 64-bit Weyl counter (increment
0x9E3779B97F4A7C15) pushed through a murmur-style avalanche finalizer.  It is
trivially seedable, has no forbidden states, and its output for a given seed
is identical on every platform — which is what makes optimizer runs and
benchmarks byte-for-byte reproducible.

Every consumer gets its own substream derived statelessly from
``(seed, generation, index)``, so work items can be evaluated in any order
(or in parallel) without changing results.  Test vectors and the exact draw
conventions are documented in docs/rng.md.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "MASK64",
    "SplitMix64",
    "bernoulli_threshold",
    "mix64",
    "substream",
    "substream_seed",
]

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer: a 64-bit bijective avalanche mix."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator with a settable raw state.

    ``state`` holds only the Weyl counter, so a stream can be handed to the
    crossover kernel (which advances it ``width`` draws at once) and resumed
    afterwards.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        """Unbiased draw from [0, bound) by masked rejection on u64 draws."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if bound == 1:
            self.next_u64()  # keep one draw per request for stream stability
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < bound:
                return v

    def next_bits(self, width: int) -> int:
        """Uniform draw from [0, 2**width).

        Consumes ceil(width/64) u64 words, least-significant word first, then
        masks the assembled value down to ``width`` bits.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        words = (width + 63) // 64
        value = 0
        for i in range(words):
            value |= self.next_u64() << (64 * i)
        return value & ((1 << width) - 1)


def substream_seed(seed: int, generation: int, index: int) -> int:
    """Stateless 64-bit substream seed for work item (generation, index).

    Chained construction: each coordinate is absorbed with a golden-ratio
    Weyl step and re-avalanched, so distinct (generation, index) pairs map to
    unrelated seeds regardless of evaluation order.
    """
    h = mix64((seed + GOLDEN_GAMMA) & MASK64)
    h = mix64((h + (generation + 1) * GOLDEN_GAMMA) & MASK64)
    return mix64((h + (index + 1) * GOLDEN_GAMMA) & MASK64)


def substream(seed: int, generation: int, index: int) -> SplitMix64:
    """Fresh generator for work item (generation, index) under ``seed``."""
    return SplitMix64(substream_seed(seed, generation, index))


@lru_cache(maxsize=64)
def bernoulli_threshold(rate: float | Fraction) -> int:
    """Map a probability to an inclusive-exclusive u64 threshold in [0, 2^64].

    A draw ``u`` succeeds iff ``u < threshold``, so rate 0.0 never fires and
    rate 1.0 always does.  The rate is scaled exactly (via Fraction), making
    the threshold — and hence every run — independent of the platform's
    float rounding.  Memoized: the optimizer asks once per trial with the
    same rate, and rates that compare equal are the same exact number.
    """
    frac = Fraction(rate)
    if not 0 <= frac <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return min(1 << 64, round(frac * (1 << 64)))
