"""Acceptance suite: one criterion per test_cNN group.

The conftest hook prints a per-criterion PASS/FAIL summary at the end of
the session.  Every criterion pins explicit tolerances, and the heavy ones
assert their time budgets too.  A correct build passes every check.

Three reference values are misprinted in the published tables (see
docs/errata.md).  Each affected check asserts the corrected value, taken
from an oracle that does not use the code under test, and pins the printed
value as an erratum:

* criterion 2: the p192_kopt row is printed as (96, 96)/1.0000, but its hex
  has popcount 103.  Every row's counts and entropy are recomputed from the
  hex by popcount and the closed-form binary entropy; the audit must report
  those, and must not report the printed pair.
* criterion 4: 19*(0, 7) is printed as (19, 16).  Repeated addition with
  plain affine formulas gives (8, 19); the printed point is on the curve
  but is 10*(0, 7).
* criterion 5: the printed P-224 base-point x is one byte off the SEC 2
  value.  The printed point must fail the curve equation; with that byte
  alone corrected, the printed set must validate and equal the shipped
  p224 parameters.
"""

import json
import math
import re
import statistics
import time
from fractions import Fraction

import pytest

from ecscalar.bitcodec import BitString, shannon_entropy, to_bits
from ecscalar.cli import main
from ecscalar.curve import (
    CurveParams,
    INFINITY,
    Point,
    enumerate_points,
    hasse_check,
    is_on_curve,
    point_add,
    scalar_mul,
    validate_curve,
)
from ecscalar.de_opt import DEConfig, optimize, random_scalar
from ecscalar.modmath import parse_hex
from ecscalar.registry import load_builtin
from ecscalar.rng import substream
from ecscalar.statbattery import (
    DEFAULT_LAGS,
    autocorrelation,
    chi2_sf,
    erfc,
    monobit_test,
    run_battery,
    runs_test,
)
from reference_data import (
    CHI2_PAIRS,
    P224_GX_AS_PRINTED,
    P224_GX_SEC2,
    SCALAR_ROW_ERRATA,
    SCALAR_ROWS,
    TOY29_19G,
    TOY29_19G_AS_PRINTED,
    TOY29_AFFINE_TABLE,
)

# ---------------------------------------------------------------- criterion 1


def test_c01_entropy_of_10011():
    start = time.perf_counter()
    assert shannon_entropy(BitString(0b10011, 5)) == pytest.approx(
        0.97095, abs=1e-5
    )
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 2


def _binary_entropy(ones, width):
    p1 = ones / width
    return -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))


@pytest.mark.parametrize(
    "label,curve,hex_value,expected_counts,expected_entropy",
    SCALAR_ROWS,
    ids=[row[0] for row in SCALAR_ROWS],
)
def test_c02_printed_scalar_audits(
    label, curve, hex_value, expected_counts, expected_entropy
):
    width = load_builtin(curve).params.n.bit_length()

    # Oracle: the row's own hex, by popcount and closed-form entropy.
    value = int(hex_value, 16)
    assert value.bit_length() <= width
    ones = value.bit_count()
    assert (ones, width - ones) == expected_counts
    assert _binary_entropy(ones, width) == pytest.approx(
        expected_entropy, abs=5e-4
    )

    report = run_battery(to_bits(parse_hex(hex_value), width))
    entropy = report.tests[0]
    counts = (
        int(entropy.auxiliary["ones"]),
        int(entropy.auxiliary["zeros"]),
    )
    assert counts == expected_counts
    assert entropy.statistic == pytest.approx(
        _binary_entropy(ones, width), abs=1e-12
    )

    # Erratum: the audit must not report the counts printed for this row.
    if label in SCALAR_ROW_ERRATA:
        printed_counts, printed_entropy = SCALAR_ROW_ERRATA[label]
        assert counts != printed_counts
        assert entropy.statistic != pytest.approx(printed_entropy, abs=5e-4)


# ---------------------------------------------------------------- criterion 3


@pytest.mark.parametrize("stat,p", CHI2_PAIRS)
def test_c03_chi2_pairs_df1(stat, p):
    assert chi2_sf(stat, 1) == pytest.approx(p, abs=5e-4)


# ---------------------------------------------------------------- criterion 4


def test_c04_toy_curve_enumeration_hasse_discriminant(toy29):
    start = time.perf_counter()
    points = enumerate_points(toy29)
    assert len(points) == 37
    assert [(pt.x, pt.y) for pt in points[:-1]] == sorted(TOY29_AFFINE_TABLE)

    assert abs(37 - (29 + 1)) <= math.isqrt(4 * 29)
    assert hasse_check(37, 29)

    validation = validate_curve(toy29)
    assert validation.ok
    assert validation.discriminant_residue == 7  # 4a^3 + 27b^2 mod 29
    assert (-16 * 11056) % 29 == 4  # the full discriminant's residue
    assert validation.discriminant_residue != 0
    assert time.perf_counter() - start < 1.0


def _toy29_multiples():
    """k*(0, 7) for k = 0..37 on y^2 = x^3 + 4x + 20 over F_29, by repeated
    addition with plain affine formulas; None is the point at infinity."""
    p, a = 29, 4
    g = (0, 7)
    multiples = [None, g]
    for _ in range(36):
        x1, y1 = multiples[-1]
        x2, y2 = g
        if x1 == x2 and (y1 + y2) % p == 0:
            multiples.append(None)
            continue
        if (x1, y1) == (x2, y2):
            slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        multiples.append((x3, (slope * (x1 - x3) - y1) % p))
    return multiples


def test_c04_tabulated_scalar_multiple(toy29):
    multiples = _toy29_multiples()
    assert multiples[37] is None  # G has order 37
    assert multiples[19] == TOY29_19G

    g = Point(0, 7)
    assert scalar_mul(19, g, toy29) == Point(*TOY29_19G)
    acc = INFINITY
    for _ in range(19):
        acc = point_add(acc, g, toy29)
    assert acc == Point(*TOY29_19G)

    # Erratum: the tabulated product is a curve point, but it is 10*G.
    printed = Point(*TOY29_19G_AS_PRINTED)
    assert is_on_curve(printed, toy29)
    assert multiples.index(TOY29_19G_AS_PRINTED) == 10
    assert scalar_mul(10, g, toy29) == printed


# ---------------------------------------------------------------- criterion 5

_PRINTED_P192 = {
    "p": "0xfffffffffffffffffffffffffffffffeffffffffffffffff",
    "a": "0xfffffffffffffffffffffffffffffffefffffffffffffffc",
    "b": "0x64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1",
    "gx": "0x188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012",
    "gy": "0x07192b95ffc8da78631011ed6b24cdd573f977a11e794811",
    "n": "0xffffffffffffffffffffffff99def836146bc9b1b4d22831",
}

_PRINTED_P224 = {
    "p": "0xffffffffffffffffffffffffffffffff000000000000000000000001",
    "a": "0xfffffffffffffffffffffffffffffffefffffffffffffffffffffffe",
    "b": "0xb4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4",
    "gx": P224_GX_AS_PRINTED,
    "gy": "0xbd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34",
    "n": "0xffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d",
}

_PRINTED_P256_GY = "0x4fe342e2fe1a7f9b8ee7eb4a7c0f9e162cbf4f3c7e0c8a9b9eebe9e1e6e28238"


# Erratum: name -> (key misprinted in the printed set, standard value, the
# bits in which the two differ).  Only P-224 gx is affected: byte bf for bd.
_PRINTED_ERRATA = {
    "p224": ("gx", P224_GX_SEC2, 0x02 << 192),
}


def _satisfies_curve_equation(params):
    x, y = params.g.x, params.g.y
    return (y * y - (x**3 + params.a * x + params.b)) % params.p == 0


def _params_from_printed(name, printed):
    return CurveParams(
        name=name,
        p=parse_hex(printed["p"]),
        a=parse_hex(printed["a"]),
        b=parse_hex(printed["b"]),
        g=Point(parse_hex(printed["gx"]), parse_hex(printed["gy"])),
        n=parse_hex(printed["n"]),
    )


@pytest.mark.parametrize(
    "name,printed",
    [("p192", _PRINTED_P192), ("p224", _PRINTED_P224)],
    ids=["p192", "p224"],
)
def test_c05_printed_values_validate(name, printed):
    erratum = _PRINTED_ERRATA.get(name)
    if erratum is not None:
        key, standard, flipped_bits = erratum
        assert parse_hex(printed[key]) ^ parse_hex(standard) == flipped_bits
        as_printed = _params_from_printed(name, printed)
        assert not _satisfies_curve_equation(as_printed)
        assert not validate_curve(as_printed).generator_on_curve
        printed = {**printed, key: standard}

    params = _params_from_printed(name, printed)
    validation = validate_curve(params)
    assert validation.ok, validation.failures()

    if erratum is not None:
        assert _satisfies_curve_equation(params)
        shipped = load_builtin(name).params
        assert (params.p, params.a, params.b, params.g, params.n) == (
            shipped.p,
            shipped.a,
            shipped.b,
            shipped.g,
            shipped.n,
        )


def test_c05_p256_erratum_handling(p256):
    printed_gy = parse_hex(_PRINTED_P256_GY)
    bad = CurveParams(
        name="p256-printed",
        p=p256.p,
        a=p256.a,
        b=p256.b,
        g=Point(p256.g.x, printed_gy),
        n=p256.n,
    )
    validation = validate_curve(bad)
    assert not validation.generator_on_curve
    shipped = validate_curve(p256)
    assert shipped.generator_on_curve
    assert shipped.order_annihilates_generator
    assert shipped.ok


# ---------------------------------------------------------------- criterion 6

_NIST_NAMES = ("p192", "p224", "p256")


@pytest.fixture(scope="module")
def convergence_runs():
    runs = {}
    for name in _NIST_NAMES:
        params = load_builtin(name).params
        for seed in range(10):
            config = DEConfig(
                population_size=50,
                crossover_rate=0.9,
                mutation_factor=Fraction(4, 5),
                max_generations=100,
                seed=seed,
            )
            start = time.perf_counter()
            result = optimize(config, params)
            runs[(name, seed)] = (result, time.perf_counter() - start)
    return runs


def test_c06_de_convergence_all_nist_curves(convergence_runs):
    generations = []
    for (name, seed), (result, elapsed) in convergence_runs.items():
        width = result.width
        assert result.k_opt.bit_count() == width // 2, (name, seed)
        assert result.best_entropy == 1.0, (name, seed)
        assert elapsed < 1.0, (name, seed, elapsed)
        generations.append(result.generations_run)
    assert statistics.median(generations) <= 30


# ---------------------------------------------------------------- criterion 7


def test_c07_best_entropy_history_monotone(convergence_runs, toy29):
    histories = [result.history for result, _ in convergence_runs.values()]
    for seed in range(50):
        config = DEConfig(
            population_size=20,
            crossover_rate=0.9,
            mutation_factor=Fraction(4, 5),
            max_generations=50,
            seed=seed,
            early_stop=False,
        )
        histories.append(optimize(config, toy29).history)
    assert len(histories) == 80
    for history in histories:
        best = [stat.best_entropy for stat in history]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


# ---------------------------------------------------------------- criterion 8


def test_c08_group_law_suite(toy29):
    start = time.perf_counter()
    points = enumerate_points(toy29)

    # closure and commutativity, all ordered pairs
    for p1 in points:
        for p2 in points:
            s12 = point_add(p1, p2, toy29)
            assert is_on_curve(s12, toy29)
            assert s12 == point_add(p2, p1, toy29)

    # associativity over all triples; (P,Q,R) and (R,Q,P) are equivalent
    # given commutativity, so scan index(P) <= index(R)
    for i, p1 in enumerate(points):
        for p2 in points:
            left_base = point_add(p1, p2, toy29)
            for p3 in points[i:]:
                assert point_add(left_base, p3, toy29) == point_add(
                    p1, point_add(p2, p3, toy29), toy29
                )

    # scalar_mul against the repeated-addition oracle
    acc = INFINITY
    for k in range(41):
        assert scalar_mul(k, toy29.g, toy29) == acc
        acc = point_add(acc, toy29.g, toy29)

    # homomorphism on 100 random pairs per NIST curve
    for name in _NIST_NAMES:
        params = load_builtin(name).params
        stream = substream(1234, 0, 0)
        for _ in range(100):
            k1 = random_scalar(params, stream)
            k2 = random_scalar(params, stream)
            lhs = scalar_mul((k1 + k2) % params.n, params.g, params)
            rhs = point_add(
                scalar_mul(k1, params.g, params),
                scalar_mul(k2, params.g, params),
                params,
            )
            assert lhs == rhs

    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------- criterion 9


def test_c09_battery_calibration():
    monobit_passes = 0
    runs_passes = 0
    for i in range(1000):
        value = substream(97, 0, i).next_bits(256)
        s = BitString(value, 256)
        bits = [int(c) for c in str(s)]

        monobit_passes += monobit_test(s).passed
        runs_report = runs_test(s)
        runs_passes += runs_report.passed

        # runs statistic identity: V = 1 + weight of the lag-1 self-XOR
        transitions = sum(bits[j] != bits[j + 1] for j in range(255))
        assert runs_report.statistic == 1 + transitions

        # autocorrelation against the brute-force double-loop oracle
        mean = sum(bits) / 256
        denom = sum((b - mean) ** 2 for b in bits)
        for lag in DEFAULT_LAGS:
            num = 0.0
            for j in range(256 - lag):
                num += (bits[j] - mean) * (bits[j + lag] - mean)
            assert abs(autocorrelation(s, lag).statistic - num / denom) <= 1e-12

    assert 970 <= monobit_passes <= 1000
    assert 970 <= runs_passes <= 1000


# --------------------------------------------------------------- criterion 10


def test_c10_benchmark_direction(capsys, tmp_path):
    start = time.perf_counter()
    code = main(
        [
            "benchmark",
            "--curve",
            "p256",
            "--trials",
            "100",
            "--seed",
            "2",
            "--out",
            str(tmp_path / "bench.csv"),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    optimized = summary["sources"]["optimized"]
    random_src = summary["sources"]["random"]
    assert optimized["mean_entropy"] > random_src["mean_entropy"]
    assert (
        optimized["mean_abs_autocorrelation"]
        < random_src["mean_abs_autocorrelation"]
    )
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 11


def test_c11_erfc_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for i in range(1000):
        x = 10.0 * i / 999
        assert abs(erfc(x) - float(mpmath.erfc(x))) < 1e-12


def test_c11_chi2_df1_is_erfc():
    for i in range(1000):
        x = 50.0 * i / 999
        assert abs(chi2_sf(x, 1) - erfc(math.sqrt(x / 2))) < 1e-10


# --------------------------------------------------------------- criterion 12

_TIMESTAMP_RE = re.compile(r'"timestamp": "[^"]*"')


def _generate_report_text(tmp_path, tag, workers):
    out = tmp_path / f"report-{tag}.json"
    code = main(
        [
            "generate",
            "--curve",
            "p256",
            "--seed",
            "20240801",
            "--workers",
            str(workers),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return _TIMESTAMP_RE.sub('"timestamp": "X"', out.read_text())


def test_c12_generate_reports_byte_identical(tmp_path):
    first = _generate_report_text(tmp_path, "a", workers=1)
    second = _generate_report_text(tmp_path, "b", workers=1)
    fanned_out = _generate_report_text(tmp_path, "c", workers=4)
    assert first == second
    assert first == fanned_out
