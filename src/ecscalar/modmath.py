"""Hex codecs and a deterministic primality test for curve parameters.

Everything here is pure and works on Python's arbitrary-precision integers;
the field arithmetic itself is inlined where it is used (ecscalar.curve).
No attempt is made at constant-time behaviour.
"""

from __future__ import annotations

import random

__all__ = [
    "format_hex",
    "is_probable_prime",
    "parse_hex",
]


def parse_hex(text: str) -> int:
    """Parse an unsigned hex string into an int.

    Accepts an optional ``0x``/``0X`` prefix and upper- or lower-case digits.
    Internal whitespace is stripped (published parameter tables are often
    line-wrapped mid-value).  Anything else is rejected.
    """
    compact = "".join(text.split())
    if compact[:2].lower() == "0x":
        compact = compact[2:]
    if not compact:
        raise ValueError(f"empty hex value: {text!r}")
    for c in compact:
        if c not in "0123456789abcdefABCDEF":
            raise ValueError(f"invalid hex digit {c!r} in {text!r}")
    return int(compact, 16)


def format_hex(value: int, width: int | None = None) -> str:
    """Format ``value`` as lowercase ``0x…`` hex.

    With ``width`` (in bits) the output is zero-padded to ``ceil(width/4)``
    digits, so fixed-width scalars render with their leading zeros.
    """
    if value < 0:
        raise ValueError("negative value")
    digits = format(value, "x")
    if width is not None:
        digits = digits.zfill((width + 3) // 4)
    return "0x" + digits


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin rounds; the one place the primality policy is set.
_ROUNDS = 64


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with 64 random witnesses.

    Witnesses are drawn from a generator seeded by ``n`` itself, so the
    verdict for a given input never changes between runs.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n ^ 0x9E3779B97F4A7C15)
    for _ in range(_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
