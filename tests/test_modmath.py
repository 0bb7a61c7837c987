"""Hex codecs and the primality test."""

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


class TestPrimality:
    @pytest.mark.parametrize("prime", [2, 3, 29, 37, 2**127 - 1])
    def test_accepts_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize(
        "composite", [1, 0, 4, 35, 561, 2**128, (2**61 - 1) * (2**31 - 1)]
    )
    def test_rejects_composites(self, composite):
        assert not is_probable_prime(composite)
