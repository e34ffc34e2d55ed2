"""Primitive datatype lexical <-> value behaviour."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaTypeError, SchemaValidationError
from repro.schema.datatypes import lookup_datatype


class TestLookup:
    def test_known_types(self):
        for name in ("string", "integer", "int", "long", "short",
                     "byte", "unsignedLong", "unsignedInt",
                     "unsignedShort", "unsignedByte", "float", "double",
                     "boolean"):
            assert lookup_datatype(name).name == name

    def test_unknown_type(self):
        with pytest.raises(SchemaTypeError, match="unknown"):
            lookup_datatype("quaternion")


class TestIntegerParsing:
    def test_basic(self):
        assert lookup_datatype("int").parse("42") == 42
        assert lookup_datatype("int").parse("-7") == -7
        assert lookup_datatype("int").parse("  13  ") == 13

    def test_int_range(self):
        int_t = lookup_datatype("int")
        assert int_t.parse("2147483647") == 2**31 - 1
        with pytest.raises(SchemaValidationError, match="out of range"):
            int_t.parse("2147483648")
        with pytest.raises(SchemaValidationError, match="out of range"):
            int_t.parse("-2147483649")

    def test_byte_range(self):
        byte_t = lookup_datatype("byte")
        assert byte_t.parse("-128") == -128
        with pytest.raises(SchemaValidationError):
            byte_t.parse("128")

    def test_unsigned_rejects_negative(self):
        with pytest.raises(SchemaValidationError):
            lookup_datatype("unsignedLong").parse("-1")

    def test_unsigned_long_max(self):
        assert lookup_datatype("unsignedLong").parse(
            "18446744073709551615") == 2**64 - 1
        with pytest.raises(SchemaValidationError):
            lookup_datatype("unsignedLong").parse("18446744073709551616")

    def test_unbounded_integer(self):
        huge = "9" * 40
        assert lookup_datatype("integer").parse(huge) == int(huge)

    def test_garbage_rejected(self):
        for bad in ("", "abc", "1.5", "0x10"):
            with pytest.raises(SchemaValidationError):
                lookup_datatype("int").parse(bad)

    # Python's int() accepts each of these; XML Schema's lexical space
    # for integers is [+-]?[0-9]+ in ASCII digits.
    @pytest.mark.parametrize("bad", [
        "1_000", "0_1", "\u0661\u0662", "\uff11", "\u00a012",
    ])
    def test_python_only_spellings_rejected(self, bad):
        for name in ("int", "integer", "unsignedInt"):
            with pytest.raises(SchemaValidationError, match="not a valid"):
                lookup_datatype(name).parse(bad)

    def test_too_many_digits_is_out_of_range(self):
        """A literal longer than its type can hold is out of range,
        naming the limit, and not misreported as malformed: for an
        unbounded integer the limit is the digits ``int()`` converts."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SchemaValidationError,
                           match=f"out of range for integer "
                                 f"\\(more than {limit} digits\\)"):
            lookup_datatype("integer").parse("1" * 5000)
        with pytest.raises(SchemaValidationError,
                           match="out of range for int "
                                 "\\(more than 10 digits\\)"):
            lookup_datatype("int").parse("1" * 30)
        # leading zeros are not significant
        assert lookup_datatype("int").parse("0" * 5000 + "7") == 7

    @pytest.mark.parametrize("name,bad", [
        ("integer", "1" * 5000), ("int", "x" * 5000),
        ("double", "1e" * 2500), ("boolean", "t" * 5000),
    ], ids=["integer", "int", "double", "boolean"])
    def test_errors_echo_a_bounded_prefix(self, name, bad):
        with pytest.raises(SchemaValidationError) as raised:
            lookup_datatype(name).parse(bad)
        assert len(str(raised.value)) < 200
        assert "(5000 characters)" in str(raised.value)

    def test_sign_and_xml_white_space(self):
        assert lookup_datatype("int").parse("+5") == 5
        assert lookup_datatype("int").parse("\t\r\n-5 ") == -5


class TestFloatParsing:
    def test_basic(self):
        assert lookup_datatype("float").parse("12.5") == 12.5
        assert lookup_datatype("double").parse("-1e10") == -1e10

    def test_special_values(self):
        f = lookup_datatype("float")
        assert f.parse("INF") == math.inf
        assert f.parse("-INF") == -math.inf
        assert math.isnan(f.parse("NaN"))

    def test_garbage_rejected(self):
        with pytest.raises(SchemaValidationError):
            lookup_datatype("float").parse("fast")

    def test_int_accepted_as_float_value(self):
        assert lookup_datatype("float").parse("3") == 3.0

    def test_decimal_and_exponent_forms(self):
        d = lookup_datatype("double")
        for text, value in (("1.", 1.0), (".5", 0.5), ("-0", 0.0),
                            ("1E3", 1000.0), ("+1.5e-2", 0.015)):
            assert d.parse(text) == value

    # Python's float() accepts each of these.  "+INF" is XML Schema
    # 1.1's; 1.0 (second edition), which this toolkit implements, has
    # only INF, -INF and NaN.
    @pytest.mark.parametrize("bad", [
        "inf", "-inf", "+INF", "Infinity", "-Infinity", "infinity",
        "nan", "NAN", "-NaN", "1_0.5", "1_000", "\u0661.5",
    ])
    def test_python_only_spellings_rejected(self, bad):
        for name in ("float", "double"):
            with pytest.raises(SchemaValidationError, match="not a valid"):
                lookup_datatype(name).parse(bad)

    def test_decimal_has_no_exponent_or_specials(self):
        dec = lookup_datatype("decimal")
        assert dec.parse("-12.50") == -12.5
        for bad in ("1e5", "INF", "NaN"):
            with pytest.raises(SchemaValidationError):
                dec.parse(bad)


class TestBoolean:
    @pytest.mark.parametrize("text,value", [
        ("true", True), ("1", True), ("false", False), ("0", False),
    ])
    def test_lexical_forms(self, text, value):
        assert lookup_datatype("boolean").parse(text) is value

    def test_bad_forms(self):
        for bad in ("TRUE", "yes", "2", ""):
            with pytest.raises(SchemaValidationError):
                lookup_datatype("boolean").parse(bad)


class TestString:
    def test_identity(self):
        s = lookup_datatype("string")
        assert s.parse("hello world ") == "hello world "


# -- property-based: parse inverts the canonical lexical form ---------------

def _xsd_double(value: float) -> str:
    return {math.inf: "INF", -math.inf: "-INF"}.get(value, repr(value))


@given(st.integers(-(2**31), 2**31 - 1))
def test_int_roundtrip(value):
    assert lookup_datatype("int").parse(str(value)) == value


@given(st.integers(0, 2**64 - 1))
def test_unsigned_long_roundtrip(value):
    assert lookup_datatype("unsignedLong").parse(str(value)) == value


@given(st.floats(allow_nan=False))
def test_double_roundtrip(value):
    assert lookup_datatype("double").parse(_xsd_double(value)) == value


@given(st.text())
def test_string_roundtrip(value):
    assert lookup_datatype("string").parse(value) == value
