"""The two SplitMix64 hot loops, word-parallel: the crossover mask and the
initial population's first draws.

SplitMix64 is counter-based: draw j (0-based) from state s is
mix64(s + (j+1)*gamma).  So instead of one interpreter pass per draw, many
draws are computed at once inside one Python int, SWAR style (SIMD within
a register): each draw lives in its own 128-bit lane, its value in the
lane's low 64 bits.  The upper 64 bits are headroom: a 64x64-bit product
fits in a lane, so no carry ever crosses into the next one, and lanes are
re-masked to 64 bits before each multiply.  Results leave the lanes through
one bytes slice per byte kept.  benchmarks/kernel_bench.py times both loops
and checks them against stand-alone per-draw SplitMix64 loops.

* ``crossover_fill`` consumes one draw per bit position, in MSB-first
  order, with no short-circuiting.  Draw j lives in lane j; the comparison
  draw <= thr becomes a guard-bit subtraction, and the guard bits are
  gathered MSB-first into the mask with one base-2 parse.
* ``_first_draws`` gives the first ``next_bits(bits)`` draw of a run of
  consecutive substreams of one generation, in two passes over one lane per
  word of every draw: the first mixes substream i's seed
  mix64(prefix + (i+1)*gamma) out of the generation's shared prefix into
  each of its draw's lanes, the second every u64 word of every first draw.
"""

from __future__ import annotations

from functools import lru_cache

from ecscalar.rng import (
    _MIX_MUL_1,
    _MIX_MUL_2,
    GOLDEN_GAMMA,
    MASK64,
    _substream_prefix,
)

__all__ = ["crossover_fill"]

# Byte 0/1 (a gathered guard bit) -> ASCII "0"/"1", for int(..., 2).
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _step(k: int) -> bytes:
    """One 128-bit lane holding k*gamma mod 2^64."""
    return ((k * GOLDEN_GAMMA) & MASK64).to_bytes(16, "little")


@lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int, int]:
    """Constants for ``count`` lanes (ones, gamma ramp, low, guard).

    ones has 1 in every lane, the ramp holds (j+1)*gamma mod 2^64 in lane j,
    low masks every lane to its 64 value bits and guard sets bit 64 of every
    lane.  Built from bytes, so the cost is linear in ``count``.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    ramp = int.from_bytes(
        b"".join(_step(j) for j in range(1, count + 1)), "little"
    )
    return ones, ramp, ones * MASK64, ones << 64


@lru_cache(maxsize=16)
def _bound(width: int, thr_inclusive: int) -> int:
    """Guard bit over ``thr_inclusive`` in every lane; one per run's rate."""
    ones, _, _, guard = _lanes(width)
    return guard | thr_inclusive * ones


@lru_cache(maxsize=16)
def _draw_ramps(count: int, words: int) -> tuple[int, int]:
    """Ramps for ``count`` substreams of ``words`` words each, where lane
    i*words + j is word j of substream i: (i+1)*gamma, then (j+1)*gamma."""
    seed_ramp = b"".join(_step(i) * words for i in range(1, count + 1))
    word_ramp = b"".join(_step(j) for j in range(1, words + 1)) * count
    return int.from_bytes(seed_ramp, "little"), int.from_bytes(word_ramp, "little")


def _mix_lanes(z: int, low: int) -> int:
    """mix64 of the low 64 bits of every 128-bit lane of ``z``."""
    z &= low
    z = ((z ^ (z >> 30)) & low) * _MIX_MUL_1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX_MUL_2 & low
    return (z ^ (z >> 31)) & low


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
        z = _mix_lanes(state * ones + ramp, low)
        # Lane holds 2^64 + (threshold - 1) - z, which keeps its guard bit
        # iff z < threshold; the guard bit is bit 0 of byte 8 of the lane.
        taken = (_bound(width, threshold - 1) - z) & guard
        digits = taken.to_bytes(16 * width, "little")[8::16]
        mask = int(digits.translate(_TO_DIGITS), 2)
    return mask | (1 << (width - 1 - j_rand)), new_state


def _first_draws(
    seed: int, generation: int, count: int, bits: int, start: int = 0
) -> list[int]:
    """``substream(seed, generation, i).next_bits(bits)`` for i in
    [``start``, ``start + count``).

    Each value is the first draw of its substream, whether or not a caller
    then rejects it; a caller that needs more draws of substream i derives
    that substream itself.
    """
    words = (bits + 63) // 64
    ones, _, low, _ = _lanes(count * words)
    seed_ramp, word_ramp = _draw_ramps(count, words)
    # Substream start+i's seed is mix64(prefix + (start+i+1)*gamma): that of
    # substream i under a prefix start*gamma further on.
    prefix = (_substream_prefix(seed, generation) + start * GOLDEN_GAMMA) & MASK64
    seeds = _mix_lanes(prefix * ones + seed_ramp, low)
    raw = _mix_lanes(seeds + word_ramp, low).to_bytes(16 * count * words, "little")
    # Keep the 8 value bytes of every lane: substream i's words, least
    # significant first, become bytes [8*words*i, 8*words*(i+1)).
    packed = bytearray(8 * count * words)
    for b in range(8):
        packed[b::8] = raw[b::16]
    size = 8 * words
    keep = (1 << bits) - 1
    return [
        int.from_bytes(packed[size * i : size * (i + 1)], "little") & keep
        for i in range(count)
    ]
