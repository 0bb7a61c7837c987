#!/usr/bin/env python3
"""Time scalar multiplication, curve validation and the primality test.

Prints microseconds per call of ``scalar_mul`` (a random scalar, and k = n)
and of ``validate_curve`` on P-192, P-224 and P-256.  Every timed result is
compared with a stand-alone affine double-and-add that inverts at every
step, written here from the slope formulas and sharing no code with
``ecscalar.curve``.  It then prints microseconds per ``is_probable_prime``
call on each curve's ``p`` and ``n``, and compares each verdict with a
stand-alone 64-round Miller-Rabin test written here.  Any difference is a
bug, and the script exits non-zero.

Run from the repository root:

    PYTHONPATH=src python benchmarks/curve_bench.py
"""

import random
import time

from ecscalar.curve import scalar_mul, validate_curve
from ecscalar.modmath import is_probable_prime
from ecscalar.registry import load_builtin

CURVES = ("p192", "p224", "p256")
RANDOM_SCALARS = 20
PRIMALITY_CALLS = 20


def reference_is_prime(n, rounds=64):
    """Miller-Rabin with ``rounds`` bases from a fixed-seed generator."""
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n)
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_scalar_mul(k, x, y, a, p):
    """k*(x, y) by left-to-right affine double-and-add; None is the identity."""

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    acc = None
    for bit in format(k, "b"):
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, (x, y))
    return acc


def per_call_us(fn, args):
    start = time.perf_counter()
    results = [fn(*a) for a in args]
    return (time.perf_counter() - start) / len(args) * 1e6, results


def as_tuple(point):
    return None if point.is_infinity else (point.x, point.y)


def main():
    rng = random.Random(2024)
    print(f"{'curve':>6}  {'k random':>10}  {'k = n':>10}  {'validate':>10}"
          "   (us per call)")
    mismatches = []
    for name in CURVES:
        params = load_builtin(name).params
        g, n = params.g, params.n
        scalars = [rng.randrange(1, n) for _ in range(RANDOM_SCALARS)]
        random_us, points = per_call_us(
            scalar_mul, [(k, g, params) for k in scalars])
        order_us, orders = per_call_us(scalar_mul, [(n, g, params)] * 5)
        validate_us, verdicts = per_call_us(validate_curve, [(params,)] * 5)
        print(f"{name:>6}  {random_us:10.0f}  {order_us:10.0f}  {validate_us:10.0f}")
        for k, point in zip(scalars, points):
            if as_tuple(point) != reference_scalar_mul(k, g.x, g.y, params.a, params.p):
                mismatches.append(f"{name}: scalar_mul({k:#x})")
        if any(not point.is_infinity for point in orders):
            mismatches.append(f"{name}: n*G is not the identity")
        if reference_scalar_mul(n, g.x, g.y, params.a, params.p) is not None:
            mismatches.append(f"{name}: reference n*G is not the identity")
        if not all(v.ok for v in verdicts):
            mismatches.append(f"{name}: validate_curve")
    print(f"\n{'curve':>6}  {'prime p':>10}  {'prime n':>10}   (us per call)")
    for name in CURVES:
        params = load_builtin(name).params
        row = []
        for label, value in (("p", params.p), ("n", params.n)):
            us, verdicts = per_call_us(
                is_probable_prime, [(value,)] * PRIMALITY_CALLS)
            row.append(us)
            if any(v != reference_is_prime(value) for v in verdicts):
                mismatches.append(f"{name}: is_probable_prime({label})")
        print(f"{name:>6}  {row[0]:10.0f}  {row[1]:10.0f}")
    if mismatches:
        raise SystemExit(
            "differ from the stand-alone references — this is a bug:\n  "
            + "\n  ".join(mismatches)
        )
    print("\nall results equal the stand-alone references")


if __name__ == "__main__":
    main()
