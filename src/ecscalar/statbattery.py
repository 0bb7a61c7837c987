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

Every float sum in a report runs strictly left to right in a fixed order
(:func:`ordered_sum`), on every supported Python: ``sum()`` of floats uses
compensated summation since Python 3.12, which would move some reported
digits between interpreter versions.  Autocorrelation and the compression
ratio work on whole strings at once (bytes and regex passes) but add the
same float terms in the same order as a per-bit loop, so their values are
bit-identical to it.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from functools import reduce
from typing import Iterable, NamedTuple

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


def erfc(x: float) -> float:
    """Complementary error function (double precision, via libm)."""
    return math.erfc(x)


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


def monobit_test(s: BitString, alpha: float = ALPHA) -> TestReport:
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
    return TestReport("monobit", s_obs, p, p >= alpha, aux)


def chi_square_bits(s: BitString, alpha: float = ALPHA) -> TestReport:
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
        p >= alpha,
        {"ones": float(ones), "zeros": float(zeros), "df": 1.0},
    )


def runs_test(s: BitString, alpha: float = ALPHA) -> TestReport:
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
    return TestReport("runs", float(v_obs), p, p >= alpha, aux)


# Maps the ASCII digits of ``str(BitString)`` to the byte values 0 and 1.
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
# A maximal run of equal bits.
_RUN = "0+|1+"


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


def autocorrelation(s: BitString, lag: int) -> TestReport:
    """Sample autocorrelation of the bit sequence with its lag-shifted self.

    Pearson-normalized over the overlap window: the numerator sums the
    centered products over positions [0, width-lag) while the denominator is
    the full centered sum of squares, so |r| <= 1 and r(0) = 1.  Constant
    sequences are degenerate (zero variance) and report r = 0 with a flag.
    Both sums add their terms in bit order (:func:`ordered_sum`).
    Statistic only — no p-value.
    """
    if not 0 <= lag < s.width:
        raise ValueError(f"lag {lag} out of range for width {s.width}")
    bits, mean, denom = _centered(s)
    aux = {"lag": float(lag)}
    if denom == 0.0:
        aux["degenerate"] = 1.0
        return TestReport("autocorrelation", 0.0, None, True, aux)
    return TestReport(
        "autocorrelation", _lag_numerator(bits, mean, lag) / denom, None, True, aux
    )


def rle_gamma_encode(s: BitString) -> BitString:
    """Run-length encode: 1 bit for the first run's value, then the
    Elias-gamma code of each run length, concatenated MSB first."""
    text = str(s)
    codes = [text[0]]
    for run in re.findall(_RUN, text):
        m = format(len(run), "b")
        codes.append("0" * (len(m) - 1))
        codes.append(m)
    encoded = "".join(codes)
    return BitString(int(encoded, 2), len(encoded))


def rle_gamma_decode(encoded: BitString, width: int) -> BitString:
    """Inverse of :func:`rle_gamma_encode`; ``width`` is the original length."""
    text = str(encoded)
    symbol = text[0]
    pos = 1
    total = 0
    runs: list[str] = []
    while total < width:
        one = text.find("1", pos)
        end = 2 * one - pos + 1  # gamma code: z zeros, then z + 1 digits
        if one < 0 or end > len(text):
            raise ValueError("truncated run-length stream")
        m = int(text[one:end], 2)
        total += m
        if total > width:
            raise ValueError("run-length stream does not match the stated width")
        runs.append(symbol * m)
        symbol = "1" if symbol == "0" else "0"
        pos = end
    if total != width or pos != len(text):
        raise ValueError("run-length stream does not match the stated width")
    return BitString(int("".join(runs), 2), width)


def compression_ratio(s: BitString) -> TestReport:
    """Deterministic compressibility metric: emitted_bits / width under the
    run-length + Elias-gamma scheme of :func:`rle_gamma_encode`.  Highly
    structured input compresses well (low ratio); a random string does not.
    The length is counted without encoding: one symbol bit, then
    2*bit_length(m) - 1 bits per run of length m.  Statistic only."""
    runs = re.findall(_RUN, str(s))
    emitted = 1 + 2 * sum(map(int.bit_length, map(len, runs))) - len(runs)
    return TestReport(
        "compression_ratio",
        emitted / s.width,
        None,
        True,
        {"emitted_bits": float(emitted), "runs": float(len(runs))},
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
    # The bits, mean and denominator are shared by every lag.
    bits, mean, denom = _centered(s)
    aux: dict[str, float] = {}
    values = []
    for lag in lags:
        r = 0.0 if denom == 0.0 else _lag_numerator(bits, mean, lag) / denom
        aux[f"lag_{lag}"] = r
        values.append(abs(r))
    mean_abs = ordered_sum(values) / len(values) if values else 0.0
    return TestReport("autocorrelation", mean_abs, None, True, aux)


def run_battery(s: BitString, alpha: float = ALPHA) -> BatteryReport:
    """Run every test in a fixed order and fold the verdicts.

    The overall verdict is the conjunction of the p-valued tests (monobit,
    chi-square, runs); entropy, autocorrelation and compression are reported
    as statistics.  The autocorrelation entry summarizes the default lags:
    its statistic is the mean |r| and the per-lag values sit in auxiliary.
    ``alpha`` loosens or tightens the verdicts for exploration; 0.01 is the
    reporting default.
    """
    reports = (
        _entropy_report(s),
        monobit_test(s, alpha),
        chi_square_bits(s, alpha),
        runs_test(s, alpha),
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
