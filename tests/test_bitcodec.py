"""Bit string codec and the entropy objective."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecscalar.bitcodec import BitString, shannon_entropy, to_bits


def _complement(s):
    return BitString(s.value ^ ((1 << s.width) - 1), s.width)


def _imbalance(s):
    return abs(s.ones - s.zeros)


class TestToBits:
    def test_example_width_5(self):
        assert str(to_bits(19, 5)) == "10011"

    def test_zero_padding(self):
        assert str(to_bits(19, 8)) == "00010011"
        assert str(to_bits(0, 4)) == "0000"

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            to_bits(32, 5)
        with pytest.raises(OverflowError):
            to_bits(-1, 5)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            to_bits(0, 0)

    def test_msb_first_indexing(self):
        s = to_bits(19, 5)  # 10011
        assert str(s) == "10011"


class TestFromBits:
    """Decoding is ``.value``: the exact inverse of :func:`to_bits`."""

    def test_examples(self):
        assert BitString(0b10011, 5).value == 19
        assert BitString(0, 4).value == 0

    @given(st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, width, data):
        k = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        assert to_bits(k, width).value == k

    def test_192_bit_roundtrip(self):
        k = 0x9C6786C6212DB513501DD99840E73BB1A2168C652541EB1B
        assert to_bits(k, 192).value == k


class TestBitCounts:
    def test_printed_p192_scalar(self):
        k = int("9c6786c6212db513501dd99840e73bb1a2168c652541eb1b", 16)
        s = to_bits(k, 192)
        assert (s.ones, s.zeros) == (88, 104)

    def test_printed_p224_optimized_scalar(self):
        k = int("be4065efd2904203e07be3f64b3d629c8f1d26666f875d1b40f87285", 16)
        s = to_bits(k, 224)
        assert (s.ones, s.zeros) == (112, 112)

    def test_all_ones(self):
        s = BitString(0xFF, 8)
        assert (s.ones, s.zeros) == (8, 0)

    @given(st.integers(min_value=1, max_value=256), st.data())
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_width(self, width, data):
        k = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        s = to_bits(k, width)
        assert s.ones + s.zeros == width


class TestShannonEntropy:
    def test_example_value(self):
        assert shannon_entropy(BitString(0b10011, 5)) == pytest.approx(
            0.97095, abs=1e-5
        )

    def test_balanced_is_exactly_one(self):
        s = BitString((1 << 96) - 1, 192)  # 96 ones, 96 zeros
        assert shannon_entropy(s) == 1.0

    def test_constant_is_exactly_zero(self):
        assert shannon_entropy(BitString(0, 64)) == 0.0
        assert shannon_entropy(BitString((1 << 64) - 1, 64)) == 0.0

    @given(st.integers(min_value=1, max_value=256), st.data())
    @settings(max_examples=100, deadline=None)
    def test_complement_symmetry(self, width, data):
        k = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        s = to_bits(k, width)
        assert shannon_entropy(s) == pytest.approx(
            shannon_entropy(_complement(s)), abs=1e-15
        )

    def test_strictly_decreasing_in_imbalance_width_192(self):
        def h(ones, width=192):
            value = (1 << ones) - 1
            return shannon_entropy(BitString(value, width))

        previous = h(96)
        assert previous == 1.0
        for d in range(1, 97):
            current = h(96 + d)
            assert current < previous
            assert current == pytest.approx(h(96 - d), abs=1e-12)
            previous = current

    def test_maximal_iff_balanced(self):
        # Even width: unique maximum at exact balance.
        width = 12
        best = max(range(width + 1), key=lambda o: shannon_entropy(
            BitString((1 << o) - 1, width)))
        assert best == width // 2
        # Odd width: the two near-balanced counts tie for the maximum.
        width = 13
        values = [shannon_entropy(BitString((1 << o) - 1, width))
                  for o in range(width + 1)]
        top = max(values)
        assert {o for o, v in enumerate(values) if v == top} == {6, 7}

    def test_imbalance_orders_like_entropy(self):
        width = 16
        for o1 in range(width + 1):
            for o2 in range(width + 1):
                s1 = BitString((1 << o1) - 1, width)
                s2 = BitString((1 << o2) - 1, width)
                h1, h2 = shannon_entropy(s1), shannon_entropy(s2)
                if _imbalance(s1) < _imbalance(s2):
                    assert h1 > h2
                elif _imbalance(s1) == _imbalance(s2):
                    assert math.isclose(h1, h2, abs_tol=1e-15)
