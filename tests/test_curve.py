"""Group law, enumeration, Hasse bound, and parameter validation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecscalar.curve import (
    ENUMERATION_LIMIT,
    INFINITY,
    CurveParams,
    FieldTooLargeError,
    Point,
    enumerate_points,
    hasse_check,
    is_on_curve,
    point_add,
    scalar_mul,
    validate_curve,
)
from ecscalar.registry import MISPRINTED_P224_GX, MISPRINTED_P256_GY, load_builtin
from reference_data import TOY29_AFFINE_TABLE

G = Point(0, 7)


class TestRecordContract:
    """Point and CurveParams are immutable values that validate on
    construction; CurveParams stores a and b reduced mod p."""

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_point_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(G, field, 1)
        with pytest.raises(AttributeError):
            delattr(G, field)
        assert (G.x, G.y) == (0, 7)

    @pytest.mark.parametrize("field", ["name", "p", "a", "b", "g", "n"])
    def test_curve_fields_cannot_be_assigned(self, toy29, field):
        with pytest.raises(AttributeError):
            setattr(toy29, field, 1)
        assert (toy29.p, toy29.a, toy29.n) == (29, 4, 37)

    def test_point_equality_and_hash(self):
        assert Point() == INFINITY and Point().is_infinity
        assert Point(0, 7) == G and hash(Point(0, 7)) == hash(G)
        assert Point(0, 7) != Point(7, 0) and G != INFINITY
        assert repr(G) == "Point(0, 7)" and repr(INFINITY) == "Point(infinity)"

    @pytest.mark.parametrize("x, y", [(1, None), (None, 1)])
    def test_point_needs_both_coordinates(self, x, y):
        with pytest.raises(ValueError, match="affine points need both"):
            Point(x, y)

    def test_curve_equality_and_hash(self, toy29):
        same = CurveParams(name="toy29", p=29, a=4, b=20, g=Point(0, 7), n=37)
        assert same == toy29 and hash(same) == hash(toy29)
        assert CurveParams(name="toy29", p=29, a=4, b=20, g=G, n=36) != toy29
        assert CurveParams(name="other", p=29, a=4, b=20, g=G, n=37) != toy29

    def test_a_and_b_stored_mod_p(self, toy29):
        wide = CurveParams(name="toy29", p=29, a=4 + 29, b=20 - 2 * 29, g=G, n=37)
        assert (wide.a, wide.b) == (4, 20)
        assert wide == toy29

    @pytest.mark.parametrize(
        "p, n, message",
        [
            (2, 37, "field prime must be >= 3, got 2"),
            (0, 37, "field prime must be >= 3, got 0"),
            (29, 0, "base point order must be >= 1, got 0"),
        ],
    )
    def test_degenerate_p_or_n_is_a_value_error(self, p, n, message):
        with pytest.raises(ValueError) as info:
            CurveParams(name="bad", p=p, a=4, b=20, g=G, n=n)
        assert str(info.value) == message

    def test_copy_and_pickle_round_trip(self, p256):
        for value in (G, INFINITY, p256):
            assert copy.copy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


class TestOnCurve:
    def test_base_point(self, toy29):
        assert is_on_curve(G, toy29)

    def test_infinity(self, toy29):
        assert is_on_curve(INFINITY, toy29)

    def test_off_curve_point(self, toy29):
        # 1 != 1 + 4 + 20 (mod 29)
        assert not is_on_curve(Point(1, 1), toy29)


class TestPointAdd:
    def test_identity(self, toy29):
        assert point_add(G, INFINITY, toy29) == G
        assert point_add(INFINITY, G, toy29) == G

    def test_inverse_pair(self, toy29):
        assert point_add(G, Point(0, 22), toy29) == INFINITY

    def test_doubling(self, toy29):
        # lambda = 4 * inv(14) = 21; x3 = 6, y3 = 12
        assert point_add(G, G, toy29) == Point(6, 12)

    def test_closure_over_all_pairs(self, toy29):
        points = enumerate_points(toy29)
        for p1 in points:
            for p2 in points:
                assert is_on_curve(point_add(p1, p2, toy29), toy29)

    def test_commutativity_over_all_pairs(self, toy29):
        points = enumerate_points(toy29)
        for p1 in points:
            for p2 in points:
                assert point_add(p1, p2, toy29) == point_add(p2, p1, toy29)


class TestScalarMul:
    def test_one(self, toy29):
        assert scalar_mul(1, G, toy29) == G

    def test_zero(self, toy29):
        assert scalar_mul(0, G, toy29) == INFINITY

    def test_nineteen(self, toy29):
        # Repeated addition gives (8, 19); see docs/errata.md for the
        # incorrect (19, 16) that circulates (that point is 10*G).
        assert scalar_mul(19, G, toy29) == Point(8, 19)
        assert scalar_mul(10, G, toy29) == Point(19, 16)

    def test_group_order_annihilates(self, toy29):
        assert scalar_mul(37, G, toy29) == INFINITY

    def test_matches_repeated_addition_oracle(self, toy29):
        acc = INFINITY
        for k in range(41):
            assert scalar_mul(k, G, toy29) == acc
            acc = point_add(acc, G, toy29)

    def test_negative_rejected(self, toy29):
        with pytest.raises(ValueError):
            scalar_mul(-1, G, toy29)

    def test_accepts_scalars_above_n(self, toy29):
        assert scalar_mul(38, G, toy29) == G


def _affine_ladder(k, point, params):
    """k*P by right-to-left double-and-add on the affine ``point_add``."""
    acc, addend = INFINITY, point
    while k:
        if k & 1:
            acc = point_add(acc, addend, params)
        addend = point_add(addend, addend, params)
        k >>= 1
    return acc


def _assert_matches_repeated_addition(point, params, k_max):
    acc = INFINITY
    for k in range(k_max + 1):
        assert scalar_mul(k, point, params) == acc, (point, k)
        acc = point_add(acc, point, params)


# y^2 = x^3 + x over F_13: 20 points, three of them 2-torsion (y = 0), so
# the ladder meets doubling to infinity, acc == P and acc == -P.
F13 = CurveParams(name="f13", p=13, a=1, b=0, g=Point(0, 0), n=2)


class TestScalarMulAgainstAffineOracle:
    def test_every_toy29_point_and_scalar(self, toy29):
        for point in enumerate_points(toy29):
            _assert_matches_repeated_addition(point, toy29, 2 * toy29.n + 1)

    def test_curve_with_two_torsion(self):
        points = enumerate_points(F13)
        assert len(points) == 20
        assert [pt for pt in points if pt.y == 0] == [
            Point(0, 0),
            Point(5, 0),
            Point(8, 0),
        ]
        for point in points:
            _assert_matches_repeated_addition(point, F13, 2 * len(points) + 1)
        assert scalar_mul(2, Point(5, 0), F13) == INFINITY
        assert scalar_mul(3, Point(5, 0), F13) == Point(5, 0)

    @pytest.mark.parametrize("name", ["p192", "p224", "p256"])
    def test_nist_edge_scalars(self, name):
        params = load_builtin(name).params
        g, n = params.g, params.n
        expected = {
            n - 1: Point(g.x, params.p - g.y),
            n: INFINITY,
            n + 1: g,
            2 * n: INFINITY,
        }
        for k, point in expected.items():
            assert scalar_mul(k, g, params) == point
            assert _affine_ladder(k, g, params) == point

    @pytest.mark.parametrize("name", ["p192", "p224", "p256"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_nist_scalars(self, name, data):
        params = load_builtin(name).params
        k = data.draw(st.integers(min_value=0, max_value=2 * params.n))
        assert scalar_mul(k, params.g, params) == _affine_ladder(k, params.g, params)


class TestEnumerate:
    def test_toy29_full_table(self, toy29):
        points = enumerate_points(toy29)
        assert len(points) == 37
        assert points[-1] == INFINITY
        affine = [(pt.x, pt.y) for pt in points[:-1]]
        assert affine == sorted(TOY29_AFFINE_TABLE)

    def test_matches_brute_force_oracle_on_f5(self):
        small = CurveParams(name="f5", p=5, a=0, b=1, g=Point(0, 1), n=6)
        expected = sorted(
            (x, y)
            for x in range(5)
            for y in range(5)
            if (y * y - (x**3 + 1)) % 5 == 0
        )
        points = enumerate_points(small)
        assert [(pt.x, pt.y) for pt in points[:-1]] == expected

    def test_guard(self, p192):
        assert p192.p >= ENUMERATION_LIMIT
        with pytest.raises(FieldTooLargeError):
            enumerate_points(p192)

    def test_counts_satisfy_hasse_on_small_curves(self):
        for p in (5, 7, 11, 13, 29, 97):
            for a, b in ((1, 1), (2, 3), (4, 20)):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                params = CurveParams(name="t", p=p, a=a, b=b, g=INFINITY, n=1)
                count = len(enumerate_points(params))
                assert hasse_check(count, p)


class TestHasse:
    def test_toy_count(self):
        assert hasse_check(37, 29)  # |37 - 30| = 7, 49 <= 116

    def test_zero_deviation(self):
        assert hasse_check(30, 29)

    def test_just_outside(self):
        assert not hasse_check(30 + 11, 29)  # 121 > 116


class TestValidateCurve:
    def test_toy29_all_pass(self, toy29):
        v = validate_curve(toy29)
        assert v.ok and v.failures() == []
        # 4a^3 + 27b^2 = 11056 = 7 (mod 29); Delta = -16 * 11056 = 4 (mod 29)
        assert v.discriminant_residue == 7
        assert (-16 * 11056) % 29 == 4 != 0

    def test_p192_all_pass(self, p192):
        assert validate_curve(p192).ok

    def test_singular_curve_reported(self):
        # p = 29, a = 0: 27 * b^2 = 0 (mod 29) forces b = 0.
        params = CurveParams(name="sing", p=29, a=0, b=0, g=INFINITY, n=1)
        v = validate_curve(params)
        assert not v.discriminant_nonzero
        assert "singular" in v.failures()[0]

    def test_off_curve_generator_reported(self, toy29):
        params = CurveParams(
            name="bad", p=29, a=4, b=20, g=Point(1, 1), n=37
        )
        v = validate_curve(params)
        assert v.discriminant_nonzero
        assert not v.generator_on_curve
        assert not v.order_annihilates_generator

    def test_wrong_order_reported(self, toy29):
        params = CurveParams(name="bad_n", p=29, a=4, b=20, g=Point(0, 7), n=36)
        v = validate_curve(params)
        assert v.generator_on_curve
        assert not v.order_annihilates_generator


class TestValidateCurveVerdicts:
    """The verdicts, checked against the affine oracle for the order."""

    @staticmethod
    def _expected(params):
        on_curve = is_on_curve(params.g, params)
        return (
            True,
            on_curve,
            on_curve and _affine_ladder(params.n, params.g, params).is_infinity,
            True,
        )

    @staticmethod
    def _verdicts(params):
        v = validate_curve(params)
        return (
            v.discriminant_nonzero,
            v.generator_on_curve,
            v.order_annihilates_generator,
            v.modulus_prime,
        )

    @pytest.mark.parametrize("name", ["p192", "p224", "p256", "toy29"])
    def test_builtins(self, name):
        params = load_builtin(name).params
        assert self._verdicts(params) == self._expected(params) == (True,) * 4

    @pytest.mark.parametrize(
        "name, misprint",
        [
            ("p224", lambda g: Point(MISPRINTED_P224_GX, g.y)),
            ("p256", lambda g: Point(g.x, MISPRINTED_P256_GY)),
        ],
    )
    def test_misprinted_generators(self, name, misprint):
        shipped = load_builtin(name).params
        params = CurveParams(
            f"{name}-misprint",
            shipped.p,
            shipped.a,
            shipped.b,
            misprint(shipped.g),
            shipped.n,
        )
        expected = (True, False, False, True)
        assert self._verdicts(params) == self._expected(params) == expected

    def test_composite_modulus_skips_the_group_law(self):
        # p = 33 = 3 * 11 and G = (1, 1) satisfies y^2 = x^3 + x + 32 mod 33,
        # but affine slopes there need inverses mod a composite.
        params = CurveParams(name="c33", p=33, a=1, b=32, g=Point(1, 1), n=5)
        v = validate_curve(params)
        assert v.generator_on_curve and v.discriminant_nonzero
        assert not v.modulus_prime
        assert not v.order_annihilates_generator
        assert v.failures() == [
            "n*G is not the point at infinity",
            "field modulus fails the primality test",
        ]


class TestHomomorphismSmall:
    def test_additive_in_the_scalar(self, toy29):
        n = toy29.n
        for k1 in (1, 5, 17, 30, 36):
            for k2 in (2, 11, 25, 36):
                lhs = scalar_mul((k1 + k2) % n, G, toy29)
                rhs = point_add(
                    scalar_mul(k1, G, toy29), scalar_mul(k2, G, toy29), toy29
                )
                assert lhs == rhs
