"""Hex codecs and the primality test."""

import random

import pytest

from ecscalar.modmath import format_hex, is_probable_prime, parse_hex
from reference_data import P224_GX_AS_PRINTED


class TestHexCodec:
    def test_plain(self):
        assert parse_hex("ff") == 255
        assert parse_hex("0xFF") == 255
        assert parse_hex("0X00ff") == 255

    def test_internal_whitespace_is_stripped(self):
        # Long constants get line-wrapped in print; the parser must cope.
        spaced = P224_GX_AS_PRINTED
        assert parse_hex(spaced) == parse_hex(spaced.replace(" ", ""))
        assert parse_hex("de ad\tbe\nef") == 0xDEADBEEF

    @pytest.mark.parametrize("bad", ["", "0x", "xyz", "12g4", "-ff", "0x12.3"])
    def test_rejects_non_hex(self, bad):
        with pytest.raises(ValueError):
            parse_hex(bad)

    def test_format_lowercase_prefixed(self):
        assert format_hex(255) == "0xff"
        assert format_hex(255, width=16) == "0x00ff"
        assert format_hex(19, width=6) == "0x13"
        assert format_hex(0, width=8) == "0x00"

    def test_roundtrip(self):
        value = 0x9C6786C6212DB513501DD99840E73BB1A2168C652541EB1B
        assert parse_hex(format_hex(value, width=192)) == value


NIST_P_AND_N = {
    "p192-p": 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    "p192-n": 0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
    "p224-p": 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
    "p224-n": 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
    "p256-p": 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    "p256-n": 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
}


def miller_rabin_64(n):
    """Oracle: Miller-Rabin with 64 witnesses drawn from a generator seeded
    by ``n``, exactly as the library tested primality before Baillie-PSW."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n ^ 0x9E3779B97F4A7C15)
    for _ in range(64):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit):
    """Oracle: Eratosthenes; flags[k] is 1 iff k is prime, for k < limit."""
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for k in range(2, int(limit**0.5) + 1):
        if flags[k]:
            flags[k * k :: k] = bytes(len(range(k * k, limit, k)))
    return flags


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 29, 37, 2**127 - 1])
    def test_accepts_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize(
        "composite", [1, 0, 4, 35, 561, 2**128, (2**61 - 1) * (2**31 - 1)]
    )
    def test_rejects_composites(self, composite):
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize("value", NIST_P_AND_N.values(), ids=NIST_P_AND_N)
    def test_nist_p_and_n_agree_with_miller_rabin(self, value):
        assert is_probable_prime(value) is miller_rabin_64(value) is True

    @pytest.mark.parametrize("bits", [64, 256])
    def test_random_odd_values_agree_with_miller_rabin(self, bits):
        rng = random.Random(bits)
        values = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(2000)]
        verdicts = [is_probable_prime(v) for v in values]
        assert verdicts == [miller_rabin_64(v) for v in values]
        assert any(verdicts)  # about 1 in 22 (64-bit) or 1 in 89 (256-bit)

    def test_agrees_with_a_sieve_below_2_16(self):
        flags = sieve(1 << 16)
        wrong = [k for k in range(1 << 16) if is_probable_prime(k) != flags[k]]
        assert wrong == []

    @pytest.mark.parametrize(
        "composite",
        [2047, 3277, 4033, 4681, 8321, 42799, 49141, 65281, 80581, 85489,
         88357, 1373653, 25326001, 3215031751, 3825123056546413051],
    )
    def test_rejects_strong_base_2_pseudoprimes(self, composite):
        # All pass the base-2 stage.  The first four have a factor of at
        # most 37 and fall to trial division; the rest reach the Lucas stage,
        # the only one that can catch them.
        assert pow(2, composite - 1, composite) == 1
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize("root", [1093, 3511])
    def test_rejects_squares_of_wieferich_primes(self, root):
        # 2^(r-1) = 1 mod r^2, so r^2 passes the base-2 stage, and no D has
        # (D/r^2) = -1: only the square check ends the Selfridge search.
        assert pow(2, root * root - 1, root * root) == 1
        assert not is_probable_prime(root * root)

    @pytest.mark.parametrize(
        "composite",
        [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519],
    )
    def test_rejects_strong_lucas_pseudoprimes(self, composite):
        # These pass the Selfridge strong Lucas stage; only base 2 catches them.
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize(
        "composite",
        [561, 1105, 1729, 2465, 2821, 6601, 8911],
    )
    def test_rejects_carmichael_numbers(self, composite):
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize(
        "exponent", [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521]
    )
    def test_accepts_mersenne_primes(self, exponent):
        assert is_probable_prime(2**exponent - 1)
