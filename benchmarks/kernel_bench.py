#!/usr/bin/env python3
"""Time the two word-parallel loops and check them against per-draw references.

Prints microseconds per call of ``kernels.crossover_fill`` at the three
production widths, microseconds per ``de_opt.initialize`` of the default 50
slots on each built-in curve, and milliseconds for one 30-generation
``--no-early-stop`` optimizer run on P-256.  Every timed mask, and the
stream state after it, is compared with a stand-alone SplitMix64 loop that
draws one u64 per bit; every timed initial population is compared with a
stand-alone loop that derives each slot's substream and draws from it until
a scalar falls in [1, n-1].  Both references are written here from
docs/rng.md and share no code with ``ecscalar``.  Any difference is a bug,
and the script exits non-zero.

Run from the repository root:

    PYTHONPATH=src python benchmarks/kernel_bench.py
"""

import time

from ecscalar import DEConfig, kernels, optimize
from ecscalar.de_opt import initialize
from ecscalar.registry import builtin_names, load_builtin
from ecscalar.rng import bernoulli_threshold

WIDTHS = (192, 224, 256)
KERNEL_CALLS = 5_000
INIT_CALLS = 1_000
THRESHOLD = bernoulli_threshold(0.9)
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    """The SplitMix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_crossover_fill(state, width, threshold, j_rand):
    """One SplitMix64 draw per bit, MSB first: bit j is set iff draw j is
    below ``threshold`` or j == j_rand.  Returns (mask, new_state)."""
    mask = 0
    for j in range(width):
        state = (state + GAMMA) & MASK64
        mask = (mask << 1) | (j == j_rand or reference_mix(state) < threshold)
    return mask, state


def reference_initialize(seed, size, n):
    """Slot i: substream (seed, 0, i), then bit_length(n)-bit draws (words
    least significant first) until one falls in [1, n-1]."""
    bits = n.bit_length()
    scalars = []
    for i in range(size):
        h = reference_mix(reference_mix(seed + GAMMA) + GAMMA)
        state = reference_mix(h + (i + 1) * GAMMA)
        value = 0
        while not 1 <= value <= n - 1:
            value = 0
            for word in range((bits + 63) // 64):
                state = (state + GAMMA) & MASK64
                value |= reference_mix(state) << (64 * word)
            value &= (1 << bits) - 1
        scalars.append(value)
    return scalars


def time_kernel(width):
    """Microseconds per call, checking every (mask, state) against the
    reference (outside the timed loop)."""
    state = 0x9E3779B97F4A7C15
    calls = []
    start = time.perf_counter()
    for i in range(KERNEL_CALLS):
        j_rand = i % width
        got = kernels.crossover_fill(state, width, THRESHOLD, j_rand)
        calls.append((state, j_rand, got))
        state = got[1]
    per_call_us = (time.perf_counter() - start) / KERNEL_CALLS * 1e6
    for state, j_rand, got in calls:
        if got != reference_crossover_fill(state, width, THRESHOLD, j_rand):
            raise SystemExit(
                f"width {width}, state {state:#x}, j_rand {j_rand}: mask or "
                "state differs from the per-bit reference — this is a bug"
            )
    return per_call_us


def time_initialize(n):
    """Microseconds per ``initialize`` call and per reference call, checking
    every population against the reference (outside the timed loops)."""
    configs = [DEConfig(seed=(s * GAMMA) & MASK64) for s in range(INIT_CALLS)]
    start = time.perf_counter()
    populations = [initialize(config, n) for config in configs]
    per_call_us = (time.perf_counter() - start) / INIT_CALLS * 1e6
    start = time.perf_counter()
    expected = [reference_initialize(c.seed, c.population_size, n)
                for c in configs]
    reference_us = (time.perf_counter() - start) / INIT_CALLS * 1e6
    for config, population, scalars in zip(configs, populations, expected):
        if [ind.scalar for ind in population] != scalars:
            raise SystemExit(
                f"n {n:#x}, seed {config.seed:#x}: initial population differs "
                "from the per-slot reference — this is a bug"
            )
    return per_call_us, reference_us


def main():
    print(f"{'width':>6}  {'us/call':>9}")
    for width in WIDTHS:
        print(f"{width:>6}  {time_kernel(width):9.2f}")

    print(f"\n{'curve':>6}  {'initialize us':>13}  {'per-slot reference us':>21}")
    for name in builtin_names():
        batch_us, reference_us = time_initialize(load_builtin(name).params.n)
        print(f"{name:>6}  {batch_us:13.1f}  {reference_us:21.1f}")

    params = load_builtin("p256").params
    config = DEConfig(seed=2024, early_stop=False, max_generations=30)
    start = time.perf_counter()
    result = optimize(config, params)
    ms = (time.perf_counter() - start) * 1e3
    print(f"\noptimize p256, M=50, 30 generations, no early stop: {ms:.1f} ms "
          f"(H = {result.best_entropy:.5f})")
    print("\nevery mask and state equals the per-bit reference, and every "
          "initial population the per-slot reference")


if __name__ == "__main__":
    main()
