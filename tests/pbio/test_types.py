"""PBIO field-type grammar."""

import pytest

from repro.errors import LayoutError
from repro.pbio.types import FieldType, parse_field_type


class TestScalars:
    @pytest.mark.parametrize("text,kind", [
        ("integer", "integer"),
        ("unsigned integer", "unsigned"),
        ("unsigned", "unsigned"),
        ("float", "float"),
        ("double", "float"),
        ("char", "char"),
        ("string", "string"),
        ("boolean", "boolean"),
        ("enumeration", "enumeration"),
    ])
    def test_atomic_kinds(self, text, kind):
        ftype = parse_field_type(text)
        assert ftype.kind == kind
        assert ftype.is_atomic
        assert not ftype.dims

    def test_subformat(self):
        ftype = parse_field_type("Point")
        assert ftype.kind == "subformat"
        assert not ftype.is_atomic

    def test_whitespace_normalization(self):
        assert parse_field_type("  unsigned   integer ").base == \
            "unsigned integer"

    def test_int_alias(self):
        assert parse_field_type("int").base == "integer"


class TestDimensions:
    def test_fixed(self):
        ftype = parse_field_type("float[16]")
        assert ftype.static_dims == (16,)
        assert ftype.is_inline
        assert ftype.static_element_count == 16

    def test_multi_fixed_row_major(self):
        ftype = parse_field_type("integer[4][8]")
        assert ftype.static_dims == (4, 8)
        assert ftype.static_element_count == 32

    def test_length_field(self):
        ftype = parse_field_type("float[size]")
        assert not ftype.is_inline
        assert ftype.dynamic_dim.length_field == "size"

    def test_star(self):
        ftype = parse_field_type("float[*]")
        assert ftype.dynamic_dim is not None
        assert ftype.dynamic_dim.length_field is None

    def test_empty_brackets_mean_star(self):
        assert parse_field_type("float[]").dynamic_dim is not None

    def test_dynamic_then_fixed(self):
        # float (*data)[3] analog: dynamic rows of 3
        ftype = parse_field_type("float[n][3]")
        assert ftype.dynamic_dim.length_field == "n"
        assert ftype.static_element_count == 3

    def test_string_round_trips(self):
        for text in ("integer", "float[4]", "Point[n][2]", "char[12]"):
            assert str(parse_field_type(text)) == text


class TestGrammarErrors:
    @pytest.mark.parametrize("bad", [
        "", "[4]", "float[4", "float]4[", "float[4]x", "float[-2]",
        "float[0]", "float[a b!]",
    ])
    def test_malformed(self, bad):
        with pytest.raises(LayoutError):
            parse_field_type(bad)

    def test_two_dynamic_dims(self):
        with pytest.raises(LayoutError, match="one dynamic"):
            parse_field_type("float[n][m]")

    def test_dynamic_dim_must_be_first(self):
        with pytest.raises(LayoutError, match="first"):
            parse_field_type("float[3][n]")

    def test_string_arrays_rejected(self):
        with pytest.raises(LayoutError, match="string"):
            parse_field_type("string[4]")


class TestProperties:
    def test_is_string(self):
        assert parse_field_type("string").is_string
        assert not parse_field_type("char[4]").is_string

    def test_char_array_is_inline(self):
        assert parse_field_type("char[8]").is_inline
        assert not parse_field_type("char[*]").is_inline


class TestMemo:
    """One parse per distinct type string: ``IOField.field_type``,
    ``FieldList`` and ``compute_layout`` all re-ask."""

    def test_same_string_same_immutable_object(self):
        first = parse_field_type("double[n_memo][3]")
        assert parse_field_type("double[n_memo][3]") is first
        with pytest.raises(AttributeError):  # frozen: safe to share
            first.base = "float"
        assert isinstance(hash(first), int)

    def test_field_access_does_not_reparse(self):
        from repro.pbio.fields import IOField
        field = IOField("v", "float[7]", 4, 0)
        parse_field_type("float[7]")
        hits = parse_field_type.cache_info().hits
        assert field.field_type is field.field_type
        assert parse_field_type.cache_info().hits == hits + 2

    def test_errors_are_raised_every_time(self):
        misses = parse_field_type.cache_info().misses
        for _ in range(2):
            with pytest.raises(LayoutError, match="string"):
                parse_field_type("string[5]")
        assert parse_field_type.cache_info().misses == misses + 2

    def test_bounded(self):
        """Discovery mints subformat names without end (``cold_start``
        does every iteration); the memo must not grow with them."""
        maxsize = parse_field_type.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 50):
            parse_field_type(f"Minted{i}[4]")
        assert parse_field_type.cache_info().currsize == maxsize
        assert parse_field_type(f"Minted{maxsize + 49}[4]").base \
            == f"Minted{maxsize + 49}"
