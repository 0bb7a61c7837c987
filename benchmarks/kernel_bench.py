#!/usr/bin/env python3
"""Time the crossover kernel and check it against a per-bit reference.

Prints microseconds per call of ``kernels.crossover_fill`` at the three
production widths, and milliseconds for one 30-generation ``--no-early-stop``
optimizer run on P-256.  Every timed mask, and the stream state after it, is
compared with a stand-alone SplitMix64 loop that draws one u64 per bit,
written here from the documented construction and sharing no code with
``ecscalar``.  Any difference is a bug, and the script exits non-zero.

Run from the repository root:

    PYTHONPATH=src python benchmarks/kernel_bench.py
"""

import time

from ecscalar import DEConfig, kernels, optimize
from ecscalar.registry import load_builtin
from ecscalar.rng import bernoulli_threshold

WIDTHS = (192, 224, 256)
KERNEL_CALLS = 5_000
THRESHOLD = bernoulli_threshold(0.9)
MASK64 = (1 << 64) - 1


def reference_crossover_fill(state, width, threshold, j_rand):
    """One SplitMix64 draw per bit, MSB first: bit j is set iff draw j is
    below ``threshold`` or j == j_rand.  Returns (mask, new_state)."""
    mask = 0
    for j in range(width):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        mask = (mask << 1) | (j == j_rand or z < threshold)
    return mask, state


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


def main():
    print(f"{'width':>6}  {'us/call':>9}")
    for width in WIDTHS:
        print(f"{width:>6}  {time_kernel(width):9.2f}")

    params = load_builtin("p256").params
    config = DEConfig(seed=2024, early_stop=False, max_generations=30)
    start = time.perf_counter()
    result = optimize(config, params)
    ms = (time.perf_counter() - start) * 1e3
    print(f"\noptimize p256, M=50, 30 generations, no early stop: {ms:.1f} ms "
          f"(H = {result.best_entropy:.5f})")
    print("\nevery mask and state equals the per-bit reference")


if __name__ == "__main__":
    main()
