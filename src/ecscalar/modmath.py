"""Hex codecs and a deterministic primality test for curve parameters.

Everything here is pure and works on Python's arbitrary-precision integers;
the field arithmetic itself is inlined where it is used (ecscalar.curve).
No attempt is made at constant-time behaviour.

The primality test is Baillie-PSW: trial division, one strong Miller-Rabin
test to base 2 and one strong Lucas test with Selfridge's parameters
(Baillie & Wagstaff, *Math. Comp.* 35, 1980).  No composite is known to
pass it, and it draws no random bases, so a hostile curve file cannot pick
a number that fools a known witness set (Albrecht, Massimo, Paterson &
Somorovsky, "Prime and Prejudice", CCS 2018).
"""

from __future__ import annotations

import math

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


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW primality test; deterministic, with no random bases.

    Trial division by the primes up to 37, then a strong probable-prime
    test to base 2, then a strong Lucas probable-prime test.  The two
    stages fail on disjoint known pseudoprimes, and no composite is known
    to pass both.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _strong_base2(n) and _strong_lucas(n)


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 for odd n > 2."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37 that is coprime to
    the small primes, with Selfridge's method A: the first D in
    5, -7, 9, -11, ... with (D/n) = -1, then P = 1 and Q = (1 - D)/4.

    Writes n + 1 = d * 2^s with d odd and passes iff U_d = 0 or
    V_(d*2^r) = 0 (mod n) for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1, so the search would not end
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_1 = 1, V_1 = P = 1; walk the bits of d doubling the index, and
    # step k -> k + 1 on each set bit, halving mod n (n is odd).
    u, v, qk = 1, 1, Q % n
    for bit in format(d, "b")[1:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u >>= 1
            v >>= 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False
