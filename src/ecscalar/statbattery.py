"""Statistical randomness battery for fixed-width bit strings.

Five tests — monobit frequency, two-category chi-square, runs (SP 800-22
variant, including its frequency prerequisite), autocorrelation at chosen
lags, and a run-length/Elias-gamma compression ratio — plus the Shannon
entropy itself.  Tests that yield a p-value are judged at significance 0.01:
p below that threshold means the sequence is treated as non-random.

The special functions needed for the p-values live here too: erfc (double
precision, delegated to libm) and the chi-square upper tail via the
regularized incomplete gamma function, implemented with the classic series /
continued-fraction split so it stays independent of erfc.

Every float sum in a report is defined as running strictly left to right
in a fixed order (:func:`ordered_sum`), on every supported Python:
``sum()`` of floats uses compensated summation since Python 3.12, which
would move some reported digits between interpreter versions.  The
compression ratio needs no float sum: its run count and gamma length are
exact integers, taken from popcounts of whole-string words.

Autocorrelation is the per-bit ordered sum of centered products, with two
ways to get it.  When the mean ones/w reduces to a/2**e with w*4**e <= 2**53
(every string of width 256 or any power of two up to 2**17, and every
balanced string of even width), every term is a multiple of 4**-e of
magnitude at most 1, so every partial sum is a multiple of 4**-e of
magnitude at most w: each fits in 53 bits, every float add is exact, and the
ordered sum equals the exact rational.  Those sums then come from four
popcounts, and int / int, which is correctly rounded, returns that same
double.  Every other string takes the ordered pass over its bytes, which
stays the definition.  Either way the values are bit-identical to a
per-bit loop.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

from ecscalar.bitcodec import BitString, shannon_entropy
from ecscalar.modmath import format_hex

__all__ = [
    "ALPHA",
    "DEFAULT_LAGS",
    "BatteryReport",
    "TestReport",
    "autocorrelation",
    "chi2_sf",
    "chi_square_bits",
    "compression_ratio",
    "erfc",
    "monobit_test",
    "ordered_sum",
    "run_battery",
    "runs_test",
]

# Rejection threshold shared by every p-valued test.
ALPHA = 0.01

# Lags used for the battery's autocorrelation summary (those below the
# input width are skipped automatically).
DEFAULT_LAGS = (2, 4, 5, 16, 32, 43, 45, 50, 55, 60)

# Monobit/runs guidance: sequences shorter than this get a warning flag.
RECOMMENDED_MIN_WIDTH = 100


class TestReport(NamedTuple):
    """One test outcome: the raw statistic, the p-value when the test has
    one (statistic-only tests report None and always pass), the verdict at
    ALPHA, and named auxiliary values (counts, lags, flags)."""

    test_name: str
    statistic: float
    p_value: float | None
    passed: bool
    auxiliary: dict[str, float]


class BatteryReport(NamedTuple):
    scalar_hex: str
    width: int
    tests: tuple[TestReport, ...]
    overall_pass: bool


def ordered_sum(values: Iterable[float]) -> float:
    """Sum strictly left to right with plain float additions, starting from
    int 0 — what ``sum()`` did before Python 3.12 made float sums
    compensated.  Reports use it so that their digits do not depend on the
    interpreter version."""
    return reduce(operator.add, values, 0)


# Complementary error function (double precision, via libm).
erfc = math.erfc


_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 500


def _gamma_p_series(a: float, x: float) -> float:
    # Series for the lower regularized gamma P(a, x); best for x < a + 1.
    if x == 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    # Lentz continued fraction for the upper regularized gamma Q(a, x).
    tiny = sys.float_info.min / _GAMMA_EPS
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution with df degrees
    of freedom, i.e. the regularized incomplete gamma Q(df/2, x/2)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half)
    return _gamma_q_cf(a, half)


def monobit_test(s: BitString) -> TestReport:
    """Frequency test: are ones and zeros near balance?

    s_obs = |ones - zeros| / sqrt(width) and p = erfc(s_obs / sqrt(2)).
    """
    ones = s.ones
    zeros = s.zeros
    s_obs = abs(ones - zeros) / math.sqrt(s.width)
    p = erfc(s_obs / math.sqrt(2.0))
    aux = {"ones": float(ones), "zeros": float(zeros)}
    if s.width < RECOMMENDED_MIN_WIDTH:
        aux["below_recommended_width"] = 1.0
    return TestReport("monobit", s_obs, p, p >= ALPHA, aux)


def chi_square_bits(s: BitString) -> TestReport:
    """Two-category chi-square on the bit counts, one degree of freedom.

    chi2 = sum (o_i - e_i)^2 / e_i over {zeros, ones} with e_i = width/2;
    this collapses to (ones - zeros)^2 / width.
    """
    if s.width < 2:
        raise ValueError("chi-square needs width >= 2")
    ones = s.ones
    zeros = s.zeros
    expected = s.width / 2.0
    stat = (zeros - expected) ** 2 / expected + (ones - expected) ** 2 / expected
    p = chi2_sf(stat, 1)
    return TestReport(
        "chi_square",
        stat,
        p,
        p >= ALPHA,
        {"ones": float(ones), "zeros": float(zeros), "df": 1.0},
    )


def runs_test(s: BitString) -> TestReport:
    """SP 800-22 runs test: V = 1 + number of adjacent unequal bit pairs.

    The frequency prerequisite applies first — when the ones proportion pi
    deviates from 1/2 by 2/sqrt(width) or more, or the string is constant
    (which that bound misses below 16 bits), the test is not meaningful and
    reports p = 0 with a prerequisite flag.
    """
    w = s.width
    ones = s.ones
    pi = ones / w
    transitions = 0
    if w > 1:
        transitions = ((s.value ^ (s.value >> 1)) & ((1 << (w - 1)) - 1)).bit_count()
    v_obs = 1 + transitions
    aux = {"ones": float(ones), "runs": float(v_obs), "pi": pi}
    if w < RECOMMENDED_MIN_WIDTH:
        aux["below_recommended_width"] = 1.0
    if ones in (0, w) or abs(pi - 0.5) >= 2.0 / math.sqrt(w):
        aux["prerequisite_met"] = 0.0
        return TestReport("runs", float(v_obs), 0.0, False, aux)
    aux["prerequisite_met"] = 1.0
    p = erfc(
        abs(v_obs - 2.0 * w * pi * (1.0 - pi))
        / (2.0 * math.sqrt(2.0 * w) * pi * (1.0 - pi))
    )
    return TestReport("runs", float(v_obs), p, p >= ALPHA, aux)


# Maps the ASCII digits of ``str(BitString)`` to the byte values 0 and 1.
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _gather(table: tuple[float, ...], indices: bytes) -> tuple[float, ...]:
    # itemgetter with a single index returns the bare item, not a 1-tuple.
    if len(indices) == 1:
        return (table[indices[0]],)
    return operator.itemgetter(*indices)(table)


def _centered(s: BitString) -> tuple[bytes, float, float]:
    """The bits as bytes of value 0/1 (MSB first), their mean, and the
    centered sum of squares, added in bit order."""
    bits = str(s).encode().translate(_DIGIT_TO_BIT)
    mean = s.ones / s.width
    denom = ordered_sum(_gather(((0 - mean) ** 2, (1 - mean) ** 2), bits))
    return bits, mean, denom


def _lag_numerator(bits: bytes, mean: float, lag: int) -> float:
    """Sum of (bits[j] - mean) * (bits[j+lag] - mean) over j in [0, width-lag),
    added in order of j.  Byte j of ``codes`` is bits[j] + 2*bits[j+lag]; one
    whole-string add computes it and cannot carry, as every byte stays <= 3."""
    n = len(bits) - lag
    codes = (
        int.from_bytes(bits[:n], "big") + 2 * int.from_bytes(bits[lag:], "big")
    ).to_bytes(n, "big")
    products = tuple((a - mean) * (b - mean) for b in (0, 1) for a in (0, 1))
    return ordered_sum(_gather(products, codes))


def _exact_sums(ones: int, width: int) -> bool:
    """Whether the centered sums of a string with ``ones`` of ``width`` bits
    are exact in floats: ones/width reduces to a/2**e with
    width * 4**e <= 2**53 (see the module docstring)."""
    d = width // math.gcd(ones, width)  # ones/width in lowest terms is a/d
    return d & (d - 1) == 0 and width * d * d <= 1 << 53


def _correlations(s: BitString, lags: Sequence[int]) -> list[float] | None:
    """r at each lag, or None for a constant string (zero variance).

    The one place that picks how the sums are computed: from popcounts when
    :func:`_exact_sums` holds, else by the ordered pass that defines them.
    """
    w = s.width
    ones = s.ones
    if _exact_sums(ones, w):
        # The exact rationals, each rounded once by int / int to the double
        # the exact float sum already is: sum (b - m)**2 = ones*(w - ones)/w,
        # and each lag numerator expands over hi (bits j) and lo (bits
        # j + lag) with m = ones/w, over a common denominator w*w.
        denom = ones * (w - ones) / w
        if denom == 0.0:
            return None
        value = s.value
        w2 = w * w
        rs = []
        for lag in lags:
            hi = value >> lag
            lo = value & ((1 << (w - lag)) - 1)
            numerator = (
                w2 * (hi & lo).bit_count()
                - w * ones * (hi.bit_count() + lo.bit_count())
                + (w - lag) * ones * ones
            ) / w2
            rs.append(numerator / denom)
        return rs
    bits, mean, denom = _centered(s)
    if denom == 0.0:
        return None
    return [_lag_numerator(bits, mean, lag) / denom for lag in lags]


def autocorrelation(s: BitString, lag: int) -> TestReport:
    """Sample autocorrelation of the bit sequence with its lag-shifted self.

    Pearson-normalized over the overlap window: the numerator sums the
    centered products over positions [0, width-lag) while the denominator is
    the full centered sum of squares, so |r| <= 1 and r(0) = 1.  Constant
    sequences are degenerate (zero variance) and report r = 0 with a flag.
    Both sums are the per-bit ordered sums (:func:`ordered_sum`), computed
    exactly where the module docstring says they are exact.
    Statistic only — no p-value.
    """
    if not 0 <= lag < s.width:
        raise ValueError(f"lag {lag} out of range for width {s.width}")
    rs = _correlations(s, (lag,))
    aux = {"lag": float(lag)}
    if rs is None:
        aux["degenerate"] = 1.0
        return TestReport("autocorrelation", 0.0, None, True, aux)
    return TestReport("autocorrelation", rs[0], None, True, aux)


def compression_ratio(s: BitString) -> TestReport:
    """Deterministic compressibility metric: emitted_bits / width under a
    run-length + Elias-gamma code.  The code is the string's first bit, then
    for each maximal run of equal bits, MSB first, the Elias-gamma code of
    its length m: bit_length(m) - 1 zeros followed by m in binary.  Highly
    structured input compresses well (low ratio); a random string does not.
    Statistic only.

    The length is counted without encoding: one symbol bit, then
    2*bit_length(m) - 1 bits per run of length m.  Both sums come from
    popcounts.  A run starts at every bit that differs from the bit above
    it (and at the top bit), and sum bit_length(m) over the runs is
    sum over k of #{runs of length >= 2**k}: the run starts that head a
    window of 2**k equal bits.  Every count is an exact integer.
    """
    w = s.width
    below_top = (1 << (w - 1)) - 1
    changes = (s.value ^ (s.value >> 1)) & below_top  # bit i != bit i + 1
    same = below_top & ~changes
    starts = changes | (1 << (w - 1))
    runs = starts.bit_count()
    # Bit i of window is set when bits i down to i - span + 1 are all
    # equal; each pass doubles span, joining two windows where they meet.
    window = (1 << w) - 1
    gamma_digits = 0
    span = 1
    while window:
        gamma_digits += (starts & window).bit_count()
        window &= (window & same) << span
        span <<= 1
    emitted = 1 + 2 * gamma_digits - runs
    return TestReport(
        "compression_ratio",
        emitted / w,
        None,
        True,
        {"emitted_bits": float(emitted), "runs": float(runs)},
    )


def _entropy_report(s: BitString) -> TestReport:
    return TestReport(
        "shannon_entropy",
        shannon_entropy(s),
        None,
        True,
        {"ones": float(s.ones), "zeros": float(s.zeros)},
    )


def _autocorrelation_summary(s: BitString) -> TestReport:
    lags = [lag for lag in DEFAULT_LAGS if lag < s.width]
    rs = _correlations(s, lags) or [0.0] * len(lags)
    aux = {f"lag_{lag}": r for lag, r in zip(lags, rs)}
    mean_abs = ordered_sum(map(abs, rs)) / len(rs) if rs else 0.0
    return TestReport("autocorrelation", mean_abs, None, True, aux)


def run_battery(s: BitString) -> BatteryReport:
    """Run every test in a fixed order and fold the verdicts.

    The overall verdict is the conjunction of the p-valued tests (monobit,
    chi-square, runs); entropy, autocorrelation and compression are reported
    as statistics.  The autocorrelation entry summarizes the default lags:
    its statistic is the mean |r| and the per-lag values sit in auxiliary.
    """
    reports = (
        _entropy_report(s),
        monobit_test(s),
        chi_square_bits(s),
        runs_test(s),
        _autocorrelation_summary(s),
        compression_ratio(s),
    )
    overall = all(r.passed for r in reports if r.p_value is not None)
    return BatteryReport(
        scalar_hex=format_hex(s.value, width=s.width),
        width=s.width,
        tests=reports,
        overall_pass=overall,
    )
