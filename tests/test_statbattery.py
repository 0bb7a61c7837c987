"""Randomness battery: special functions, the five tests, report assembly."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecscalar import statbattery
from ecscalar.bitcodec import BitString, to_bits
from ecscalar.statbattery import (
    ALPHA,
    DEFAULT_LAGS,
    autocorrelation,
    chi2_sf,
    chi_square_bits,
    compression_ratio,
    erfc,
    monobit_test,
    ordered_sum,
    run_battery,
    runs_test,
)
from reference_data import CHI2_PAIRS


def _alternating(width):
    value = 0
    for j in range(width):
        value = (value << 1) | (j % 2)
    return BitString(value, width)


def _random_bits(width, seed):
    return BitString(random.Random(seed).getrandbits(width) % (1 << width), width)


def _complement(s):
    return BitString(s.value ^ ((1 << s.width) - 1), s.width)


def _run_lengths(s):
    """Per-bit reference: the length of every maximal run of equal bits."""
    text = str(s)
    lengths = [1]
    for prev, bit in zip(text, text[1:]):
        if bit == prev:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def _reference_autocorrelation(s, lag):
    """The per-bit list computation, adding every term strictly in bit order
    (what ``sum()`` did before Python 3.12).  The bits are read from the
    binary text, MSB first, which keeps the reference linear in the width."""
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


def _reference_rle_gamma_encode(s):
    """One bit at a time: the first bit, then per run of length m,
    bit_length(m) - 1 zeros followed by m in binary."""
    bits = [int(digit) for digit in str(s)]
    out = [bits[0]]
    run = 1
    for j in range(1, s.width + 1):
        if j < s.width and bits[j] == bits[j - 1]:
            run += 1
            continue
        out.extend([0] * (run.bit_length() - 1))
        out.extend((run >> i) & 1 for i in range(run.bit_length() - 1, -1, -1))
        run = 1
    return BitString(int("".join(map(str, out)), 2), len(out))


def _oracle_strings(seed):
    """The edge widths and 150 random widths in [16, 2000]: per width, one
    uniform string and one with a uniform ones count, which reaches the
    p-value tails and the runs prerequisite."""
    rng = random.Random(seed)
    widths = [16, 192, 224, 256] + [rng.randint(16, 2000) for _ in range(150)]
    for width in widths:
        yield BitString(rng.getrandbits(width), width)
        set_bits = rng.sample(range(width), rng.randint(0, width))
        yield BitString(sum(1 << j for j in set_bits), width)


def _close_to_oracle(p, oracle):
    # Double precision against 50 digits; below the float range both are 0.
    return math.isclose(p, float(oracle), rel_tol=1e-11, abs_tol=1e-300)


@st.composite
def _bit_strings(draw, min_width=1, max_width=600):
    """Random strings mixed with the edge shapes: all zeros, all ones,
    alternating, and a single set bit."""
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    kind = draw(st.sampled_from(["random", "zeros", "ones", "alternating", "single"]))
    if kind == "zeros":
        return BitString(0, width)
    if kind == "ones":
        return BitString((1 << width) - 1, width)
    if kind == "alternating":
        return _alternating(width)
    if kind == "single":
        return BitString(1 << draw(st.integers(0, width - 1)), width)
    return BitString(draw(st.integers(0, (1 << width) - 1)), width)


class TestOrderedSum:
    def test_adds_left_to_right_without_compensation(self):
        # Compensated summation (sum() since Python 3.12) returns 1.0 here.
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0

    def test_matches_a_plain_loop(self):
        rng = random.Random(3)
        values = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(500)]
        total = 0
        for v in values:
            total += v
        assert ordered_sum(values) == total
        assert ordered_sum(iter(values)) == total


class TestErfc:
    def test_symmetry_point(self):
        assert erfc(0.0) == 1.0

    def test_deep_tail(self):
        assert erfc(10.0) < 1e-44

    def test_spot_value(self):
        assert erfc(0.8165) == pytest.approx(0.24821, abs=5e-5)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for i in range(0, 101):
            x = i / 10
            assert abs(erfc(x) - float(mpmath.erfc(x))) < 1e-12


class TestChi2Sf:
    @pytest.mark.parametrize("stat,p", CHI2_PAIRS)
    def test_tabulated_pairs_df1(self, stat, p):
        assert chi2_sf(stat, 1) == pytest.approx(p, abs=5e-4)

    def test_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 7) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_df1_equals_erfc_identity(self):
        for i in range(0, 1001):
            x = i * 0.05
            assert abs(chi2_sf(x, 1) - erfc(math.sqrt(x / 2))) < 1e-10

    def test_monotone_decreasing(self):
        for df in (1, 2, 5, 35):
            previous = 1.0
            for i in range(1, 200):
                current = chi2_sf(i * 0.25, df)
                assert current <= previous
                assert 0.0 <= current <= 1.0
                previous = current

    def test_higher_df_against_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for df in (1, 2, 3, 10, 35):
            for x in (0.5, 1.0, 4.0, 20.0, 80.0):
                oracle = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf,
                                               regularized=True))
                assert chi2_sf(x, df) == pytest.approx(oracle, abs=1e-12)


class TestMonobit:
    def test_balanced(self):
        report = monobit_test(BitString((1 << 96) - 1, 192))
        assert report.p_value == 1.0
        assert report.passed

    def test_tabulated_counts_88_104(self):
        k = int("9c6786c6212db513501dd99840e73bb1a2168c652541eb1b", 16)
        report = monobit_test(to_bits(k, 192))
        assert report.statistic == pytest.approx(16 / math.sqrt(192), abs=1e-12)
        assert report.p_value == pytest.approx(0.2482, abs=5e-4)

    def test_all_ones_fails(self):
        report = monobit_test(BitString((1 << 128) - 1, 128))
        assert report.p_value < 1e-10
        assert not report.passed

    @given(st.integers(min_value=100, max_value=256), st.data())
    @settings(max_examples=40, deadline=None)
    def test_depends_only_on_count_difference(self, width, data):
        k = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        s = to_bits(k, width)
        assert monobit_test(s).p_value == pytest.approx(
            monobit_test(_complement(s)).p_value, abs=1e-15
        )

    def test_p_value_against_high_precision_oracle(self):
        # p = erfc(|S| / sqrt(2n)) with S = ones - zeros, at 50 digits.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for s in _oracle_strings(2025):
            text = str(s)
            diff = text.count("1") - text.count("0")
            oracle = mpmath.erfc(abs(diff) / mpmath.sqrt(2 * s.width))
            assert _close_to_oracle(monobit_test(s).p_value, oracle)


class TestChiSquareBits:
    def test_balanced_is_zero(self):
        report = chi_square_bits(BitString((1 << 96) - 1, 192))
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_88_104_gives_4_3(self):
        k = int("9c6786c6212db513501dd99840e73bb1a2168c652541eb1b", 16)
        report = chi_square_bits(to_bits(k, 192))
        assert report.statistic == pytest.approx(2 * 8**2 / 96, abs=1e-12)
        assert report.statistic == pytest.approx(1.3333, abs=5e-4)

    def test_112_112_forced_zero(self):
        k = int("be4065efd2904203e07be3f64b3d629c8f1d26666f875d1b40f87285", 16)
        report = chi_square_bits(to_bits(k, 224))
        assert report.statistic == 0.0


class TestRuns:
    def test_alternating_fails_too_many_runs(self):
        report = runs_test(_alternating(100))
        assert report.statistic == 100
        assert report.p_value < ALPHA
        assert not report.passed

    def test_constant_fails_prerequisite(self):
        report = runs_test(BitString(0, 128))
        assert report.p_value == 0.0
        assert report.auxiliary["prerequisite_met"] == 0.0
        assert not report.passed

    @pytest.mark.parametrize("ones", [False, True])
    def test_short_constant_fails_prerequisite(self, ones):
        # Below 16 bits 2/sqrt(width) >= 1/2, so the proportion bound alone
        # would let pi = 0 or 1 through to a division by pi * (1 - pi).
        for width in range(1, 17):
            s = BitString((1 << width) - 1 if ones else 0, width)
            report = runs_test(s)
            assert report.p_value == 0.0
            assert report.auxiliary["prerequisite_met"] == 0.0
            assert report.auxiliary["pi"] == float(ones)
            assert not report.passed
            if width >= 2:
                assert not run_battery(s).overall_pass

    def test_hand_counted_example(self):
        s = BitString(0b1001101011, 10)
        report = runs_test(s)
        assert report.statistic == 7  # six transitions
        assert report.auxiliary["pi"] == pytest.approx(0.6)
        assert report.p_value == pytest.approx(0.147, abs=1e-3)

    def test_v_equals_one_plus_xor_weight(self):
        rng = random.Random(55)
        for _ in range(300):
            width = rng.randint(2, 256)
            value = rng.getrandbits(width) % (1 << width)
            s = BitString(value, width)
            bits = [int(c) for c in str(s)]
            oracle = 1 + sum(
                bits[j] != bits[j + 1] for j in range(width - 1)
            )
            assert runs_test(s).statistic == oracle

    def test_p_value_against_high_precision_oracle(self):
        # NIST SP 800-22 section 2.3 at 50 digits.  The prerequisite
        # |pi - 1/2| >= 2/sqrt(n) is decided exactly, as
        # (2*ones - n)^2 >= 16n; when it holds the test reports p = 0.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for s in _oracle_strings(2026):
            text = str(s)
            n = s.width
            ones = text.count("1")
            report = runs_test(s)
            if (2 * ones - n) ** 2 >= 16 * n:
                assert report.auxiliary["prerequisite_met"] == 0.0
                assert report.p_value == 0.0
                continue
            v_obs = 1 + sum(a != b for a, b in zip(text, text[1:]))
            pi = mpmath.mpf(ones) / n
            oracle = mpmath.erfc(
                abs(v_obs - 2 * n * pi * (1 - pi))
                / (2 * mpmath.sqrt(2 * n) * pi * (1 - pi))
            )
            assert report.auxiliary["prerequisite_met"] == 1.0
            assert _close_to_oracle(report.p_value, oracle)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        s = _random_bits(128, 9)
        assert autocorrelation(s, 0).statistic == pytest.approx(1.0, abs=1e-12)

    def test_alternating_lag_one(self):
        for width in (64, 128, 256):
            r = autocorrelation(_alternating(width), 1).statistic
            assert r == pytest.approx(-1.0, abs=0.05)

    def test_degenerate_constant(self):
        report = autocorrelation(BitString(0, 64), 5)
        assert report.statistic == 0.0
        assert report.auxiliary["degenerate"] == 1.0

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            autocorrelation(BitString(0, 8), 8)
        with pytest.raises(ValueError):
            autocorrelation(BitString(0, 8), -1)

    def test_matches_double_loop_oracle(self):
        for seed in range(25):
            s = _random_bits(256, seed)
            bits = [int(c) for c in str(s)]
            mean = sum(bits) / len(bits)
            for lag in DEFAULT_LAGS:
                num = 0.0
                for j in range(256 - lag):
                    num += (bits[j] - mean) * (bits[j + lag] - mean)
                den = 0.0
                for b in bits:
                    den += (b - mean) ** 2
                assert autocorrelation(s, lag).statistic == pytest.approx(
                    num / den, abs=1e-12
                )

    @given(_bit_strings())
    @settings(max_examples=80, deadline=None)
    def test_every_lag_equals_per_bit_reference_exactly(self, s):
        for lag in range(s.width):
            assert autocorrelation(s, lag).statistic == _reference_autocorrelation(
                s, lag
            )

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 63, 64, 65, 192, 256, 600])
    def test_edge_shapes_equal_reference_exactly(self, width):
        shapes = [
            BitString(0, width),
            BitString((1 << width) - 1, width),
            _alternating(width),
            BitString(1, width),
            BitString(1 << (width - 1), width),
        ]
        for s in shapes:
            for lag in range(width):
                assert autocorrelation(
                    s, lag
                ).statistic == _reference_autocorrelation(s, lag)

    def test_complement_invariant_and_bounded(self):
        for seed in range(20):
            s = _random_bits(200, seed)
            for lag in (1, 2, 7, 50):
                r = autocorrelation(s, lag).statistic
                rc = autocorrelation(_complement(s), lag).statistic
                assert r == pytest.approx(rc, abs=1e-12)
                assert abs(r) <= 1 + 1e-12


def _summary(report):
    return {t.test_name: t for t in report.tests}["autocorrelation"]


def _reference_summary(s):
    lags = [lag for lag in DEFAULT_LAGS if lag < s.width]
    expected = {f"lag_{lag}": _reference_autocorrelation(s, lag) for lag in lags}
    mean_abs = 0
    for r in expected.values():
        mean_abs += abs(r)
    return expected, (mean_abs / len(lags) if lags else 0.0)


def _dyadic_and_small(ones, width):
    """Independent statement of when the per-bit sums are exact: ones/width
    is a/2**e in lowest terms with width * 4**e <= 2**53."""
    d = Fraction(ones, width).denominator
    return d == 1 << (d.bit_length() - 1) and width * d * d <= 2**53


@st.composite
def _shaped_strings(draw, widths):
    """Uniform strings, strings with a uniform ones count (biased), and
    balanced strings, at one of ``widths``."""
    width = draw(st.sampled_from(widths))
    kind = draw(st.sampled_from(["random", "biased", "balanced"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return BitString(rng.getrandbits(width), width)
    ones = rng.randint(0, width) if kind == "biased" else width // 2
    return BitString(sum(1 << j for j in rng.sample(range(width), ones)), width)


class TestExactSums:
    """Where the per-bit float sums are exact, autocorrelation comes from
    popcounts; it must still equal the per-bit loop bit for bit."""

    def test_every_string_of_widths_1_to_14_equals_reference(self):
        for width in range(1, 15):
            for value in range(1 << width):
                s = BitString(value, width)
                for lag in range(width):
                    assert autocorrelation(
                        s, lag
                    ).statistic == _reference_autocorrelation(s, lag)

    def test_every_battery_of_widths_2_to_14_equals_reference(self):
        # The chi-square test needs two bits, so the battery starts at 2.
        for width in range(2, 15):
            for value in range(1 << width):
                s = BitString(value, width)
                summary = _summary(run_battery(s))
                expected, mean_abs = _reference_summary(s)
                assert summary.auxiliary == expected
                assert summary.statistic == mean_abs

    @given(_shaped_strings((192, 224, 256)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_production_widths_equal_reference(self, s, data):
        lag = data.draw(st.integers(0, s.width - 1), label="lag")
        assert autocorrelation(s, lag).statistic == _reference_autocorrelation(s, lag)
        summary = _summary(run_battery(s))
        expected, mean_abs = _reference_summary(s)
        assert summary.auxiliary == expected
        assert summary.statistic == mean_abs

    @given(_shaped_strings((1 << 16,)))
    @settings(max_examples=3, deadline=None)
    def test_width_65536_equals_reference(self, s):
        summary = _summary(run_battery(s))
        expected, mean_abs = _reference_summary(s)
        assert summary.auxiliary == expected
        assert summary.statistic == mean_abs

    def test_condition_is_exactly_the_dyadic_bound(self):
        # Beyond 2**17 bits the bound decides: at 2**19 bits with an odd
        # ones count the per-bit partial sums round, and popcounts would
        # give the exact rational instead.
        for width in range(1, 300):
            for ones in range(width + 1):
                assert statbattery._exact_sums(ones, width) == _dyadic_and_small(
                    ones, width
                ), (ones, width)
        for width in (1 << 17, 1 << 18, 3 << 16, 1 << 19, 1 << 20):
            for ones in (0, 1, 2, 3, 4, 96, width // 2 - 1, width // 2, width):
                assert statbattery._exact_sums(ones, width) == _dyadic_and_small(
                    ones, width
                ), (ones, width)

    @pytest.mark.parametrize(
        "width,ones,exact",
        [
            (192, 96, True), (192, 3, True), (192, 99, True), (192, 189, True),
            (192, 95, False), (192, 97, False),
            (224, 112, True), (224, 7, True), (224, 111, False),
            (256, 1, True), (256, 127, True), (256, 128, True),
            (1 << 16, 1, True), (1 << 17, 1, True), (1 << 18, 1, False),
            (1 << 18, 2, True),
        ],
    )
    def test_ordered_pass_runs_only_off_the_exact_path(
        self, monkeypatch, width, ones, exact
    ):
        calls = []
        centered = statbattery._centered

        def spy(s):
            calls.append(s)
            return centered(s)

        monkeypatch.setattr(statbattery, "_centered", spy)
        s = BitString(((1 << ones) - 1) << (width - ones) // 2, width)
        autocorrelation(s, 2)
        statbattery._autocorrelation_summary(s)
        assert calls == ([] if exact else [s, s])


@st.composite
def _run_shaped_strings(draw, widths):
    """Random and biased strings as in :func:`_shaped_strings`, and strings
    of long runs, whose lengths reach every gamma code length the width
    allows."""
    width = draw(st.sampled_from(widths))
    if draw(st.booleans()):
        return draw(_shaped_strings((width,)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    value = 0
    pos = 0
    bit = rng.getrandbits(1)
    while pos < width:
        length = min(1 << rng.randint(0, width.bit_length()), width - pos)
        length = rng.randint((length + 1) // 2, length)
        if bit:
            value |= ((1 << length) - 1) << pos
        pos += length
        bit ^= 1
    return BitString(value, width)


def _assert_compression_counts(s):
    """compression_ratio against the per-bit encoder and run count."""
    report = compression_ratio(s)
    encoded = _reference_rle_gamma_encode(s)
    assert report.auxiliary["emitted_bits"] == encoded.width
    assert report.auxiliary["runs"] == len(_run_lengths(s))
    assert report.statistic == encoded.width / s.width


class TestCompression:
    def test_all_zeros_256(self):
        report = compression_ratio(BitString(0, 256))
        assert report.auxiliary["emitted_bits"] == 18  # 1 + gamma(256) = 1+17
        assert report.statistic == pytest.approx(18 / 256, abs=1e-12)

    def test_alternating_256(self):
        report = compression_ratio(_alternating(256))
        assert report.auxiliary["emitted_bits"] == 257
        assert report.statistic == pytest.approx(257 / 256, abs=1e-12)

    def test_width_one(self):
        assert compression_ratio(BitString(1, 1)).statistic == 2.0

    def test_structure_ordering(self):
        # Under RLE + gamma a length-1 run costs a single bit, so the
        # alternating string (ratio 257/256) sits BELOW random input
        # (~1.15, geometric run lengths cost ~2.3 bits each) and both sit
        # far above the single-run constant string.
        for seed in range(10):
            random_ratio = compression_ratio(_random_bits(256, seed)).statistic
            assert (
                random_ratio
                > compression_ratio(_alternating(256)).statistic
                > compression_ratio(BitString(0, 256)).statistic
            )

    @given(_bit_strings())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_the_encoder_exactly(self, s):
        report = compression_ratio(s)
        encoded_width = _reference_rle_gamma_encode(s).width
        assert report.auxiliary["emitted_bits"] == encoded_width
        assert report.auxiliary["runs"] == len(_run_lengths(s))
        assert report.statistic == encoded_width / s.width

    def test_every_string_of_widths_1_to_16_matches_the_encoder(self):
        for width in range(1, 17):
            for value in range(1 << width):
                _assert_compression_counts(BitString(value, width))

    @given(_run_shaped_strings((192, 224, 256)))
    @settings(max_examples=300, deadline=None)
    def test_production_widths_match_the_encoder(self, s):
        _assert_compression_counts(s)

    @given(_run_shaped_strings((1 << 16,)))
    @settings(max_examples=6, deadline=None)
    def test_width_65536_matches_the_encoder(self, s):
        _assert_compression_counts(s)

    def test_counts_at_100000_bits_match_the_encoder(self):
        _assert_compression_counts(_random_bits(100_000, 7))


class TestBattery:
    def test_order_and_overall(self):
        report = run_battery(BitString((1 << 112) - 1, 224))
        names = [t.test_name for t in report.tests]
        assert names == [
            "shannon_entropy",
            "monobit",
            "chi_square",
            "runs",
            "autocorrelation",
            "compression_ratio",
        ]
        by_name = dict(zip(names, report.tests))
        assert by_name["shannon_entropy"].statistic == 1.0
        assert by_name["monobit"].p_value == 1.0
        assert by_name["chi_square"].p_value == 1.0

    def test_all_zeros_192(self):
        report = run_battery(BitString(0, 192))
        by_name = {t.test_name: t for t in report.tests}
        assert by_name["shannon_entropy"].statistic == 0.0
        assert not by_name["monobit"].passed
        assert by_name["runs"].auxiliary["prerequisite_met"] == 0.0
        assert not report.overall_pass

    def test_tabulated_p256_random_scalar(self):
        k = int(
            "dc027c5c0d8a6cf88297539240776ebbd64aa094fccff35da6c5ef89b8fc5ae5",
            16,
        )
        report = run_battery(to_bits(k, 256))
        by_name = {t.test_name: t for t in report.tests}
        assert by_name["shannon_entropy"].auxiliary["ones"] == 135
        assert by_name["shannon_entropy"].auxiliary["zeros"] == 121
        assert by_name["shannon_entropy"].statistic == pytest.approx(
            0.9978, abs=5e-4
        )

    def test_autocorrelation_summary_skips_wide_lags(self):
        report = run_battery(BitString(0b10110, 5))
        by_name = {t.test_name: t for t in report.tests}
        aux = by_name["autocorrelation"].auxiliary
        assert set(aux) == {"lag_2", "lag_4"}

    @given(_bit_strings(min_width=2))
    @settings(max_examples=80, deadline=None)
    def test_autocorrelation_summary_equals_reference_exactly(self, s):
        report = run_battery(s)
        summary = {t.test_name: t for t in report.tests}["autocorrelation"]
        lags = [lag for lag in DEFAULT_LAGS if lag < s.width]
        expected = {f"lag_{lag}": _reference_autocorrelation(s, lag) for lag in lags}
        assert summary.auxiliary == expected
        mean_abs = 0
        for r in expected.values():
            mean_abs += abs(r)
        assert summary.statistic == (mean_abs / len(lags) if lags else 0.0)

    def test_verdict_is_conjunction_of_p_valued_tests(self):
        report = run_battery(_random_bits(256, 1))
        p_valued = [t for t in report.tests if t.p_value is not None]
        assert report.overall_pass == all(t.passed for t in p_valued)

    def test_pass_flag_matches_alpha_rule(self):
        for seed in range(30):
            report = run_battery(_random_bits(256, seed))
            for t in report.tests:
                if t.p_value is not None:
                    assert t.passed == (t.p_value >= ALPHA)
