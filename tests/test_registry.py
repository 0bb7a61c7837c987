"""Registry: built-in curves, misprint regressions, curve files."""

import pytest

from ecscalar.curve import CurveParams, Point, is_on_curve, validate_curve
from ecscalar.modmath import is_probable_prime, parse_hex
from ecscalar.registry import (
    MISPRINTED_P224_GX,
    MISPRINTED_P256_GY,
    CurveFileError,
    Provenance,
    RegistryValidationError,
    UnknownCurveError,
    builtin_names,
    load_builtin,
    load_file,
    parse_kv_text,
)
from reference_data import P224_GX_AS_PRINTED


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("p192", "p224", "p256", "toy29")

    def test_unknown_name(self):
        with pytest.raises(UnknownCurveError):
            load_builtin("p384")

    def test_lookup_case_insensitive(self):
        assert load_builtin("P192") is load_builtin("p192")

    def test_p192_order(self, p192):
        assert p192.n == parse_hex(
            "ffffffffffffffffffffffff99def836146bc9b1b4d22831"
        )
        assert validate_curve(p192).ok

    def test_toy29_parameters(self, toy29):
        assert (toy29.p, toy29.a, toy29.b) == (29, 4, 20)
        assert toy29.g == Point(0, 7)
        assert toy29.n == 37

    @pytest.mark.parametrize("name", ["p192", "p224", "p256", "toy29"])
    def test_all_builtins_validate(self, name):
        entry = load_builtin(name)
        assert validate_curve(entry.params).ok

    @pytest.mark.parametrize("name", ["p192", "p224", "p256"])
    def test_nist_moduli_and_orders_prime(self, name):
        params = load_builtin(name).params
        assert is_probable_prime(params.p)
        assert is_probable_prime(params.n)

    def test_widths(self):
        assert load_builtin("p192").params.n.bit_length() == 192
        assert load_builtin("p224").params.n.bit_length() == 224
        assert load_builtin("p256").params.n.bit_length() == 256
        assert load_builtin("toy29").params.n.bit_length() == 6


class TestErrata:
    def test_p224_ships_corrected_gx_with_note(self):
        entry = load_builtin("p224")
        assert entry.provenance is Provenance.BUILTIN_CORRECTED
        assert entry.params.g.x != MISPRINTED_P224_GX
        assert "misprint" in entry.erratum_note
        assert format(MISPRINTED_P224_GX, "x") in entry.erratum_note

    def test_p256_ships_corrected_gy_with_note(self):
        entry = load_builtin("p256")
        assert entry.provenance is Provenance.BUILTIN_CORRECTED
        assert entry.params.g.y != MISPRINTED_P256_GY
        assert format(MISPRINTED_P256_GY, "x") in entry.erratum_note

    def test_misprinted_p224_gx_fails_on_curve(self, p224):
        bad = Point(MISPRINTED_P224_GX, p224.g.y)
        assert not is_on_curve(bad, p224)
        v = validate_curve(
            CurveParams("p224-bad", p224.p, p224.a, p224.b, bad, p224.n)
        )
        assert not v.generator_on_curve

    def test_misprinted_p256_gy_fails_on_curve(self, p256):
        bad = Point(p256.g.x, MISPRINTED_P256_GY)
        assert not is_on_curve(bad, p256)
        v = validate_curve(
            CurveParams("p256-bad", p256.p, p256.a, p256.b, bad, p256.n)
        )
        assert not v.generator_on_curve

    def test_printed_p224_gx_parses_after_whitespace_strip(self):
        # The value as printed (with its internal space) parses to the
        # misprinted constant; only the byte-level correction fixes it.
        assert parse_hex(P224_GX_AS_PRINTED) == MISPRINTED_P224_GX


def _toy_file(tmp_path, **overrides):
    values = {
        "name": "toy29",
        "p": "0x1d",
        "a": "0x4",
        "b": "0x14",
        "gx": "0x0",
        "gy": "0x7",
        "n": "0x25",
    }
    values.update(overrides)
    lines = ["# user toy curve"] + [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "user.curve"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCurveFiles:
    def test_roundtrip_matches_builtin(self, tmp_path, toy29):
        entry = load_file(_toy_file(tmp_path))
        assert entry.provenance is Provenance.USER_FILE
        params = entry.params
        assert (params.p, params.a, params.b, params.g, params.n) == (
            toy29.p,
            toy29.a,
            toy29.b,
            toy29.g,
            toy29.n,
        )

    def test_singular_curve_rejected(self, tmp_path):
        # With a = 4 no singular b exists mod 29 (12 is a non-residue), so
        # use a = 2 and solve 4a^3 + 27b^2 = 0 (mod 29) by scanning b.
        singular_b = next(
            b for b in range(29) if (4 * 2**3 + 27 * b * b) % 29 == 0
        )
        path = _toy_file(tmp_path, a="0x2", b=hex(singular_b))
        with pytest.raises(RegistryValidationError, match="singular"):
            load_file(path)

    def test_truncated_hex_names_the_key(self, tmp_path):
        path = _toy_file(tmp_path, gy="0x7g")
        with pytest.raises(CurveFileError, match="'gy'"):
            load_file(path)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "missing.curve"
        path.write_text("name = x\np = 0x1d\n")
        with pytest.raises(CurveFileError, match="missing"):
            load_file(str(path))

    def test_unknown_key_reported(self, tmp_path):
        path = tmp_path / "extra.curve"
        base = open(_toy_file(tmp_path)).read()
        path.write_text(base + "cofactor = 0x1\n")
        with pytest.raises(CurveFileError, match="unknown key"):
            load_file(str(path))

    def test_off_curve_generator_rejected_with_check_name(self, tmp_path):
        path = _toy_file(tmp_path, gy="0x8")
        with pytest.raises(RegistryValidationError, match="not on the curve"):
            load_file(path)

    def test_composite_modulus_rejected(self, tmp_path):
        # p = 33 is composite; primality is checked at load.
        path = _toy_file(tmp_path, p="0x21")
        with pytest.raises(RegistryValidationError, match="primality"):
            load_file(path)

    def test_composite_modulus_with_on_curve_generator_rejected(self, tmp_path):
        # G = (1, 1) lies on y^2 = x^3 + x + 32 mod 33; the composite p must
        # be reported, not reached by the group law.
        path = _toy_file(
            tmp_path, p="0x21", a="0x1", b="0x20", gx="0x1", gy="0x1", n="0x5"
        )
        with pytest.raises(RegistryValidationError) as info:
            load_file(path)
        message = str(info.value)
        assert "\n" not in message
        assert message.endswith(
            "n*G is not the point at infinity; "
            "field modulus fails the primality test"
        )

    @pytest.mark.parametrize("n", ["0x4a", "0x6f"])
    def test_composite_order_rejected(self, tmp_path, n):
        # 74 = 2*37 and 111 = 3*37 both annihilate G (order 37), so only
        # the primality test on n rejects them.
        with pytest.raises(RegistryValidationError) as info:
            load_file(_toy_file(tmp_path, n=n))
        assert str(info.value).endswith(
            "failed validation: base point order fails the primality test"
        )

    def test_anomalous_curve_rejected(self, tmp_path):
        # y^2 = x^3 + x + 5 over F_11 has exactly 11 points: #E = p = n.
        path = _toy_file(
            tmp_path, p="0xb", a="0x1", b="0x5", gx="0x0", gy="0x4", n="0xb"
        )
        with pytest.raises(RegistryValidationError) as info:
            load_file(path)
        assert str(info.value).endswith(
            "failed validation: n equals p (anomalous curve)"
        )

    def test_nonexistent_path(self):
        with pytest.raises(CurveFileError, match="cannot read"):
            load_file("/nonexistent/nope.curve")


class TestKvParser:
    def test_comments_and_blanks(self):
        text = "# header\n\na = 1 # trailing\n  b=2\n"
        assert parse_kv_text(text) == {"a": "1", "b": "2"}

    def test_duplicate_key(self):
        with pytest.raises(CurveFileError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(CurveFileError, match="expected"):
            parse_kv_text("just some text\n")

    def test_empty_value(self):
        with pytest.raises(CurveFileError, match="empty value"):
            parse_kv_text("a =\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(CurveFileError, match=":3:"):
            parse_kv_text("a = 1\n# fine\nbroken line\n")
