#!/usr/bin/env python3
"""Time the randomness battery and check it against per-bit references.

Prints microseconds per call of ``run_battery``, ``autocorrelation`` (lag 2)
and ``compression_ratio`` at the three production widths and at 100 000
bits, on a random string and on a balanced one, and names the path the
autocorrelation took: ``exact`` (popcounts, where the per-bit float sums are
exact) or ``ordered`` (the per-bit ordered sum over the string's bytes).  At
192, 224 and 100 000 bits the random string is redrawn until it takes the
ordered path, so both paths are timed there; every 256-bit string and every
balanced string of even width takes the exact path.  Every timed result is
compared with a per-bit reference: the list computation of the
autocorrelation, adding its terms strictly in bit order, the length of the
actual run-length + Elias-gamma encoding, and a bit-by-bit count of the
runs.  Any difference is a bug, and the script exits non-zero; so the
popcount count of ``compression_ratio`` is checked against the encoder on
every timed string.

Warm, on a 2-vCPU x86-64 VM (CPython 3.11): ``compression_ratio`` takes
2-4 us at 192-256 bits and 150-190 us at 100 000 bits (its regex pass took
26-33 us and 11-12 ms); ``run_battery`` takes 25-45 us at 256 bits, 22-34
on a balanced string (exact path) and about 210 on a random one (ordered
path) at 192 and 224 bits.

Run from the repository root:

    PYTHONPATH=src python benchmarks/battery_bench.py
"""

import random
import time

from ecscalar.bitcodec import BitString
from ecscalar.statbattery import (
    DEFAULT_LAGS,
    _exact_sums,
    autocorrelation,
    compression_ratio,
    rle_gamma_encode,
    run_battery,
)

WIDTHS = (192, 224, 256, 100_000)
TIMED_LAG = 2


def reference_autocorrelation(s, lag):
    bits = [int(digit) for digit in str(s)]
    mean = sum(bits) / s.width
    denom = 0
    for b in bits:
        denom += (b - mean) ** 2
    if denom == 0.0:
        return 0.0
    num = 0
    for j in range(s.width - lag):
        num += (bits[j] - mean) * (bits[j + lag] - mean)
    return num / denom


def reference_run_lengths(s):
    text = str(s)
    lengths = [1]
    for prev, bit in zip(text, text[1:]):
        if bit == prev:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def per_call_us(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        result = fn()
    return (time.perf_counter() - start) / calls * 1e6, result


def check(s, battery, auto, compression):
    """Raise SystemExit when any result differs from its per-bit reference."""
    lags = [lag for lag in DEFAULT_LAGS if lag < s.width]
    expected = {f"lag_{lag}": reference_autocorrelation(s, lag) for lag in lags}
    summary = {t.test_name: t for t in battery.tests}["autocorrelation"]
    mean_abs = 0
    for r in expected.values():
        mean_abs += abs(r)
    mismatches = []
    if summary.auxiliary != expected:
        mismatches.append("per-lag autocorrelation")
    if summary.statistic != mean_abs / len(lags):
        mismatches.append("mean |r|")
    if auto.statistic != expected[f"lag_{TIMED_LAG}"]:
        mismatches.append("autocorrelation()")
    encoded = rle_gamma_encode(s).width
    if (
        compression.auxiliary["emitted_bits"] != encoded
        or compression.auxiliary["runs"] != len(reference_run_lengths(s))
        or compression.statistic != encoded / s.width
    ):
        mismatches.append("compression_ratio()")
    if mismatches:
        raise SystemExit(
            f"width {s.width}: {', '.join(mismatches)} differ from the "
            "per-bit reference — this is a bug"
        )


def sample_strings(rng, width):
    """A random string and a balanced string of ``width`` bits.  Below 2**18
    bits only a power-of-two width puts every string on the exact path;
    at any other width the random string is redrawn until it is off it."""
    value = rng.getrandbits(width)
    while width & (width - 1) and _exact_sums(value.bit_count(), width):
        value = rng.getrandbits(width)
    ones = rng.sample(range(width), width // 2)
    return (
        ("random", BitString(value, width)),
        ("balanced", BitString(sum(1 << j for j in ones), width)),
    )


def main():
    rng = random.Random(2024)
    print(f"{'width':>7}  {'string':>8}  {'path':>7}  {'run_battery':>12}  "
          f"{'autocorr':>10}  {'compress':>10}   (us per call)")
    for width in WIDTHS:
        for kind, s in sample_strings(rng, width):
            path = "exact" if _exact_sums(s.ones, width) else "ordered"
            calls = 2000 if width <= 256 else 3
            battery_us, battery = per_call_us(lambda: run_battery(s), calls)
            auto_us, auto = per_call_us(lambda: autocorrelation(s, TIMED_LAG), calls)
            comp_us, compression = per_call_us(lambda: compression_ratio(s), calls)
            print(f"{width:>7}  {kind:>8}  {path:>7}  {battery_us:12.1f}  "
                  f"{auto_us:10.1f}  {comp_us:10.1f}")
            check(s, battery, auto, compression)
    print("\nall results equal the per-bit references")


if __name__ == "__main__":
    main()
