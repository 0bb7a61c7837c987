"""The crossover hot loop: a SplitMix64 Bernoulli mask, word-parallel.

One SplitMix64 output is consumed per bit position, in MSB-first order,
with no short-circuiting.  SplitMix64 is counter-based: draw j (0-based)
from state s is mix64(s + (j+1)*gamma).  So instead of one interpreter pass
per bit, all ``width`` draws are computed at once inside one Python int,
SWAR style (SIMD within a register): draw j lives in 128-bit lane j, its
value in the lane's low 64 bits.  The upper 64 bits are headroom: a
64x64-bit product fits in a lane, so no carry ever crosses into the next
one, and lanes are re-masked to 64 bits before each multiply.  The
comparison draw <= thr becomes a guard-bit subtraction, and the guard bits
are gathered MSB-first into the mask with one bytes slice and one base-2
parse.  benchmarks/kernel_bench.py times it and checks it against a
per-bit SplitMix64 loop.
"""

from __future__ import annotations

from functools import lru_cache

from ecscalar.rng import _MIX_MUL_1, _MIX_MUL_2, GOLDEN_GAMMA, MASK64

__all__ = ["crossover_fill"]

# Byte 0/1 (a gathered guard bit) -> ASCII "0"/"1", for int(..., 2).
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=16)
def _lanes(width: int) -> tuple[int, int, int, int]:
    """Per-width lane constants (ones, gamma ramp, low, guard).

    ones has 1 in every lane, the ramp holds (j+1)*gamma mod 2^64 in lane j,
    low masks every lane to its 64 value bits and guard sets bit 64 of every
    lane.  Built from bytes, so the cost is linear in ``width``.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * width, "little")
    ramp = int.from_bytes(
        b"".join(
            ((j * GOLDEN_GAMMA) & MASK64).to_bytes(16, "little")
            for j in range(1, width + 1)
        ),
        "little",
    )
    return ones, ramp, ones * MASK64, ones << 64


@lru_cache(maxsize=16)
def _bound(width: int, thr_inclusive: int) -> int:
    """Guard bit over ``thr_inclusive`` in every lane; one per run's rate."""
    ones, _, _, guard = _lanes(width)
    return guard | thr_inclusive * ones


def crossover_fill(
    state: int, width: int, threshold: int, j_rand: int
) -> tuple[int, int]:
    """Generate a width-bit crossover mask from a SplitMix64 stream.

    ``threshold`` is the inclusive-exclusive u64 acceptance bound in
    [0, 2^64] (see rng.bernoulli_threshold): mask bit j (MSB first) is set
    iff the j-th draw is below it, or j == ``j_rand``.  Returns
    (mask, new_state); exactly ``width`` draws are consumed.
    """
    if not 0 <= j_rand < width:
        raise ValueError(f"j_rand {j_rand} out of range for width {width}")
    if not 0 <= threshold <= (1 << 64):
        raise ValueError(f"threshold {threshold} outside [0, 2^64]")
    state &= MASK64
    new_state = (state + width * GOLDEN_GAMMA) & MASK64
    mask = 0
    if threshold:
        ones, ramp, low, guard = _lanes(width)
        z = (state * ones + ramp) & low
        z = ((z ^ (z >> 30)) & low) * _MIX_MUL_1 & low
        z = ((z ^ (z >> 27)) & low) * _MIX_MUL_2 & low
        z = (z ^ (z >> 31)) & low
        # Lane holds 2^64 + (threshold - 1) - z, which keeps its guard bit
        # iff z < threshold; the guard bit is bit 0 of byte 8 of the lane.
        taken = (_bound(width, threshold - 1) - z) & guard
        digits = taken.to_bytes(16 * width, "little")[8::16]
        mask = int(digits.translate(_TO_DIGITS), 2)
    return mask | (1 << (width - 1 - j_rand)), new_state
