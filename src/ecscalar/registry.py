"""Curve parameter registry: built-in curves plus user-supplied curve files.

Built-ins are the three NIST prime curves used throughout (P-192, P-224,
P-256, with SEC 2 / FIPS 186-4 constants) and ``toy29``, a 37-point curve
over F_29 that is small enough to enumerate exhaustively.

Every entry — built-in or loaded from a file — passes full validation
(non-singular, base point on curve, n*G = O, the modmath primality test
on the field prime and on n, and n != p) before callers ever see it.
Curve files must also give a, b, gx and gy below p.

Two widely circulated misprints of the NIST constants are tracked
explicitly: entries ship the authoritative values, carry an erratum note,
and the regression tests pin the misprinted variants as validation
failures.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from ecscalar.curve import CurveParams, Point, validate_curve
from ecscalar.modmath import is_probable_prime, parse_hex

__all__ = [
    "MISPRINTED_P224_GX",
    "MISPRINTED_P256_GY",
    "Provenance",
    "RegistryEntry",
    "RegistryValidationError",
    "UnknownCurveError",
    "builtin_names",
    "load_builtin",
    "load_file",
    "parse_kv_text",
]


class UnknownCurveError(ValueError):
    """No built-in curve with the requested name."""


class RegistryValidationError(ValueError):
    """A curve failed one or more of the load-time checks."""


class CurveFileError(ValueError):
    """A curve file could not be parsed."""


class Provenance(str, Enum):
    BUILTIN = "builtin"
    BUILTIN_CORRECTED = "builtin-corrected"
    USER_FILE = "user-file"


class RegistryEntry(NamedTuple):
    params: CurveParams
    provenance: Provenance
    erratum_note: str | None = None


# Misprinted coordinates seen in circulated copies of the NIST parameter
# tables.  Both fail the curve-membership check; kept here so the erratum
# notes and the regression tests agree on the exact bad values.
MISPRINTED_P224_GX = 0xB70E0CBF6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21
MISPRINTED_P256_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162CBF4F3C7E0C8A9B9EEBE9E1E6E28238

_P224_ERRATUM = (
    "gx is sometimes misprinted as "
    f"{MISPRINTED_P224_GX:#x} (fourth byte bf instead of bd), which fails "
    "y^2 = x^3 + ax + b; this entry ships the SEC 2 secp224r1 coordinate."
)
_P256_ERRATUM = (
    "gy is sometimes misprinted as "
    f"{MISPRINTED_P256_GY:#x}, which fails y^2 = x^3 + ax + b; this entry "
    "ships the SEC 2 secp256r1 coordinate."
)


def _nist(name: str, p: int, a: int, b: int, gx: int, gy: int, n: int) -> CurveParams:
    return CurveParams(name=name, p=p, a=a, b=b, g=Point(gx, gy), n=n)


_BUILTINS: dict[str, RegistryEntry] = {
    "p192": RegistryEntry(
        _nist(
            "p192",
            p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
            a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFC,
            b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
            gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
            gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
            n=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
        ),
        Provenance.BUILTIN,
    ),
    "p224": RegistryEntry(
        _nist(
            "p224",
            p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
            a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
            b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
            gx=0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
            gy=0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
            n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
        ),
        Provenance.BUILTIN_CORRECTED,
        _P224_ERRATUM,
    ),
    "p256": RegistryEntry(
        _nist(
            "p256",
            p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
            a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
            b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
            gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
            gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
            n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
        ),
        Provenance.BUILTIN_CORRECTED,
        _P256_ERRATUM,
    ),
    # 37-point curve over F_29; the group order is prime, so every point
    # other than O generates the whole group and G = (0, 7) has order 37.
    "toy29": RegistryEntry(
        CurveParams(name="toy29", p=29, a=4, b=20, g=Point(0, 7), n=37),
        Provenance.BUILTIN,
    ),
}

_validated: dict[str, RegistryEntry] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def _validate_entry(entry: RegistryEntry) -> None:
    """Curve checks plus two on ``n``: it is prime, so with n*G = O it is
    the exact order of G (and divides #E, which keeps it within the Hasse
    bound), and it differs from p, so the curve is not anomalous."""
    params = entry.params
    problems = validate_curve(params).failures()
    if not is_probable_prime(params.n):
        problems.append("base point order fails the primality test")
    if params.n == params.p:
        problems.append("n equals p (anomalous curve)")
    if problems:
        raise RegistryValidationError(
            f"curve {params.name!r} failed validation: " + "; ".join(problems)
        )


def load_builtin(name: str) -> RegistryEntry:
    """Fetch a built-in curve by name, validating it on first use.

    Validation results are cached; entries are immutable, so concurrent
    readers can share them.
    """
    key = name.lower()
    if key not in _BUILTINS:
        raise UnknownCurveError(
            f"unknown curve {name!r}; built-ins: {', '.join(builtin_names())}"
        )
    if key not in _validated:
        entry = _BUILTINS[key]
        _validate_entry(entry)
        _validated[key] = entry
    return _validated[key]


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse the flat key-value format shared by curve and config files.

    One ``key = value`` pair per line; ``#`` starts a comment; blank lines
    are ignored.  Keys are identifiers; duplicate keys are rejected.  Values
    are returned verbatim (stripped) — interpretation is the caller's job.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CurveFileError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise CurveFileError(f"{source}:{lineno}: invalid key {key!r}")
        if key in out:
            raise CurveFileError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise CurveFileError(f"{source}:{lineno}: empty value for {key!r}")
        out[key] = value
    return out


_CURVE_KEYS = ("name", "p", "a", "b", "gx", "gy", "n")


def load_file(path: str) -> RegistryEntry:
    """Load and validate a user curve file (keys: name, p, a, b, gx, gy, n;
    all but ``name`` in hex).  Parse errors carry file/line/key context.
    A p below 3, an n of 0, or a, b, gx or gy not below p fail before the
    curve checks run; otherwise validation failures list every check that
    failed.  All of them raise RegistryValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CurveFileError(f"cannot read curve file: {exc}") from None
    pairs = parse_kv_text(text, source=path)
    missing = [k for k in _CURVE_KEYS if k not in pairs]
    if missing:
        raise CurveFileError(f"{path}: missing key(s): {', '.join(missing)}")
    unknown = [k for k in pairs if k not in _CURVE_KEYS]
    if unknown:
        raise CurveFileError(f"{path}: unknown key(s): {', '.join(unknown)}")
    numbers = {}
    for key in _CURVE_KEYS[1:]:
        try:
            numbers[key] = parse_hex(pairs[key])
        except ValueError as exc:
            raise CurveFileError(f"{path}: key {key!r}: {exc}") from None
    failed = f"curve {pairs['name']!r} failed validation: "
    try:
        params = CurveParams(
            name=pairs["name"],
            p=numbers["p"],
            a=numbers["a"],
            b=numbers["b"],
            g=Point(numbers["gx"], numbers["gy"]),
            n=numbers["n"],
        )
    except ValueError as exc:  # p < 3 or n < 1
        raise RegistryValidationError(failed + str(exc)) from None
    # SEC 1 v2 section 3.1.1.2.1: a, b, gx and gy lie in [0, p-1].  Checked
    # on the file's own values, since CurveParams reduces a and b mod p.
    too_large = [
        f"{key} = {numbers[key]:#x} is not below p"
        for key in ("a", "b", "gx", "gy")
        if numbers[key] >= params.p
    ]
    if too_large:
        raise RegistryValidationError(failed + "; ".join(too_large))
    entry = RegistryEntry(params, Provenance.USER_FILE)
    _validate_entry(entry)
    return entry
