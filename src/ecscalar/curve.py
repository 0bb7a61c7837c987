"""Short-Weierstrass elliptic curves over prime fields.

Points are affine at the API.  The group law ``point_add`` is implemented
directly from the slope formulas — generic chord slope (y2 - y1)/(x2 - x1),
tangent slope (3x^2 + a)/(2y) — with the point at infinity as identity, and
serves as the reference for everything else here.  ``scalar_mul`` works in
Jacobian coordinates internally (general-``a`` formulas, Hankerson, Menezes
and Vanstone, *Guide to Elliptic Curve Cryptography*, §3.2), so a whole
multiplication costs one field inversion instead of one per step.  A 256-bit
scalar multiplication takes about 2.5-3.5 ms, against 14-16 ms with affine
steps (CPython 3.11 on a 2-vCPU x86-64 VM; benchmarks/curve_bench.py).

Also provides exhaustive point enumeration for small fields, the Hasse
interval check, and whole-curve parameter validation.
"""

from __future__ import annotations

from typing import NamedTuple

from ecscalar._frozen import Frozen
from ecscalar.modmath import is_probable_prime

__all__ = [
    "ENUMERATION_LIMIT",
    "INFINITY",
    "CurveParams",
    "CurveValidation",
    "FieldTooLargeError",
    "Point",
    "enumerate_points",
    "hasse_check",
    "is_on_curve",
    "point_add",
    "scalar_mul",
    "validate_curve",
]

# Exhaustive enumeration is O(p); the guard keeps it interactive.
ENUMERATION_LIMIT = 1 << 20


class FieldTooLargeError(ValueError):
    """Raised when exhaustive enumeration is requested above the guard."""


class Point(Frozen):
    """Affine curve point, or the point at infinity when both fields are None."""

    __slots__ = ("x", "y")

    def __init__(self, x: int | None = None, y: int | None = None) -> None:
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point()


class CurveParams(Frozen):
    """Public parameters of one curve: y^2 = x^3 + ax + b over F_p.

    ``g`` is the base point and ``n`` its order; ``a`` and ``b`` are stored
    reduced mod ``p``.  Immutable and hashable.
    """

    __slots__ = ("name", "p", "a", "b", "g", "n")

    def __init__(self, name: str, p: int, a: int, b: int, g: Point, n: int) -> None:
        if p < 3:
            raise ValueError(f"field prime must be >= 3, got {p}")
        if n < 1:
            raise ValueError(f"base point order must be >= 1, got {n}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a % p)
        object.__setattr__(self, "b", b % p)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)


def is_on_curve(point: Point, params: CurveParams) -> bool:
    """True iff the point is the identity or satisfies y^2 = x^3 + ax + b."""
    if point.is_infinity:
        return True
    p = params.p
    return (point.y * point.y - (point.x**3 + params.a * point.x + params.b)) % p == 0


def point_add(p1: Point, p2: Point, params: CurveParams) -> Point:
    """Group sum of two on-curve points; every degenerate case is defined.

    Works on raw residues for speed (this sits under every scalar
    multiplication); the inverse is CPython's extended-Euclid
    pow(x, -1, p).
    """
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = params.p
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    if x1 == x2 and (y1 + y2) % p == 0:
        # Q = -P, including the doubling of a 2-torsion point (y = 0).
        return INFINITY
    if x1 == x2 and y1 == y2:
        lam = (3 * x1 * x1 + params.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return Point(x3, y3)


def _double(x: int, y: int, z: int, a: int, p: int) -> tuple[int, int, int]:
    """2*(X, Y, Z) in Jacobian coordinates: S = 4XY^2, M = 3X^2 + aZ^4.

    y = 0 (a 2-torsion point) or z = 0 (the identity) gives z3 = 0.
    """
    yy = y * y % p
    zz = z * z % p
    s = 4 * x * yy % p
    m = (3 * x * x + a * (zz * zz % p)) % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p


def scalar_mul(k: int, point: Point, params: CurveParams) -> Point:
    """k*P by left-to-right double-and-add (most significant bit first).

    Any k >= 0 is accepted — in particular k = n, so the order check
    n*G = O is expressible.  k = 0 gives the identity.  The accumulator is
    kept in Jacobian coordinates (X, Y, Z) ~ (X/Z^2, Y/Z^3), with Z = 0 for
    the identity; adding P is a mixed addition (P has Z = 1).  The only
    inversion is the one in the final conversion back to affine, so
    ``params.p`` must be prime.
    """
    if k < 0:
        raise ValueError(f"scalar must be non-negative, got {k}")
    if k == 0 or point.is_infinity:
        return INFINITY
    p, a = params.p, params.a
    if a > p >> 1:
        a -= p  # the small negative representative: a = -3 on the NIST curves
    px, py = point.x % p, point.y % p
    x, y, z = px, py, 1
    for bit in format(k, "b")[1:]:
        x, y, z = _double(x, y, z, a, p)
        if bit == "0":
            continue
        if z == 0:
            x, y, z = px, py, 1
            continue
        # Mixed addition of (px, py): H = px*Z^2 - X, R = py*Z^3 - Y.
        zz = z * z % p
        h = (px * zz - x) % p
        r = (py * zz * z - y) % p
        if h == 0:
            # acc == P doubles; acc == -P gives the identity.
            x, y, z = _double(x, y, z, a, p) if r == 0 else (1, 1, 0)
            continue
        hh = h * h % p
        hhh = h * hh % p
        v = x * hh % p
        x3 = (r * r - hhh - 2 * v) % p
        y = (r * (v - x3) - y * hhh) % p
        z = z * h % p
        x = x3
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, p)
    z_inv2 = z_inv * z_inv % p
    return Point(x * z_inv2 % p, y * z_inv2 * z_inv % p)


def enumerate_points(params: CurveParams) -> list[Point]:
    """All points of E(F_p) for small p: sorted affine points, then infinity.

    Scans every x, pairing it with the y values whose squares hit the curve
    polynomial (a full residue table is built first, so the scan is O(p)).
    Guarded by ENUMERATION_LIMIT.
    """
    p = params.p
    if p >= ENUMERATION_LIMIT:
        raise FieldTooLargeError(
            f"p = {p} exceeds the enumeration guard ({ENUMERATION_LIMIT})"
        )
    roots_of: dict[int, list[int]] = {}
    for y in range(p):
        roots_of.setdefault(y * y % p, []).append(y)
    points = []
    for x in range(p):
        rhs = (x * x * x + params.a * x + params.b) % p
        for y in roots_of.get(rhs, ()):
            points.append(Point(x, y))
    points.sort(key=lambda pt: (pt.x, pt.y))
    points.append(INFINITY)
    return points


def hasse_check(count: int, p: int) -> bool:
    """Hasse interval: |count - (p + 1)| <= 2*sqrt(p), compared exactly.

    Both sides are squared so the test is pure integer arithmetic:
    (count - p - 1)^2 <= 4p.
    """
    return (count - p - 1) ** 2 <= 4 * p


class CurveValidation(NamedTuple):
    """Outcome of the four independent parameter checks, plus the residue
    4a^3 + 27b^2 mod p actually computed for the discriminant test."""

    discriminant_residue: int
    discriminant_nonzero: bool
    generator_on_curve: bool
    order_annihilates_generator: bool
    modulus_prime: bool

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if not self.discriminant_nonzero:
            out.append("discriminant is zero (singular curve)")
        if not self.generator_on_curve:
            out.append("base point is not on the curve")
        if not self.order_annihilates_generator:
            out.append("n*G is not the point at infinity")
        if not self.modulus_prime:
            out.append("field modulus fails the primality test")
        return out


def validate_curve(params: CurveParams) -> CurveValidation:
    """Check non-singularity, base-point membership, n*G = O, and the
    primality test (ecscalar.modmath) on p.

    Each check is reported independently; nothing raises.  The n*G check is
    skipped (reported failed) when the generator is off-curve or p is
    composite, since the group law is undefined there.
    """
    residue = (4 * params.a**3 + 27 * params.b**2) % params.p
    on_curve = is_on_curve(params.g, params)
    prime = is_probable_prime(params.p)
    annihilates = False
    if prime and on_curve and not params.g.is_infinity:
        annihilates = scalar_mul(params.n, params.g, params).is_infinity
    return CurveValidation(
        discriminant_residue=residue,
        discriminant_nonzero=residue != 0,
        generator_on_curve=on_curve,
        order_annihilates_generator=annihilates,
        modulus_prime=prime,
    )
