"""Marshaling round-trips, wire-layout checks, failure modes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError, EncodeError
from repro.pbio.context import IOContext
from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import (
    HEADER_LEN, RecordEncoder, build_header, parse_header,
)
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import field_list_for
from repro.pbio.machine import SPARC_32, SPARC_V9, X86_32, X86_64

from tests.strategies import (
    assert_record_roundtrip, field_list_of, format_case,
)

ARCHS = (SPARC_32, SPARC_V9, X86_32, X86_64)


def roundtrip(specs, record, arch=X86_64, subformats=None, enums=None):
    fl = field_list_for(specs, architecture=arch, subformats=subformats)
    fmt = IOFormat("T", fl, enums)
    encoded = RecordEncoder(fmt).encode(record)
    return RecordDecoder(fmt).decode(encoded.body)


class TestScalars:
    def test_all_scalar_kinds(self):
        specs = [
            ("i8", "integer", 1), ("i16", "integer", 2),
            ("i32", "integer", 4), ("i64", "integer", 8),
            ("u8", "unsigned integer", 1),
            ("u64", "unsigned integer", 8),
            ("f32", "float", 4), ("f64", "float", 8),
            ("flag", "boolean", 1), ("letter", "char", 1),
            ("name", "string"),
        ]
        record = {"i8": -5, "i16": -30000, "i32": -2**31,
                  "i64": -2**63, "u8": 255, "u64": 2**64 - 1,
                  "f32": 0.5, "f64": 1.0 / 3.0, "flag": True,
                  "letter": "x", "name": "hello"}
        assert roundtrip(specs, record) == record

    def test_value_range_enforced(self):
        with pytest.raises(EncodeError):
            roundtrip([("u8", "unsigned integer", 1)], {"u8": 256})
        with pytest.raises(EncodeError):
            roundtrip([("i8", "integer", 1)], {"i8": -129})

    def test_type_mismatch(self):
        with pytest.raises(EncodeError):
            roundtrip([("i", "integer", 4)], {"i": "five"})
        with pytest.raises(EncodeError):
            roundtrip([("i", "integer", 4)], {"i": 1.5})

    def test_none_string(self):
        assert roundtrip([("s", "string")], {"s": None}) == {"s": None}

    def test_empty_string(self):
        assert roundtrip([("s", "string")], {"s": ""}) == {"s": ""}

    def test_unicode_string(self):
        record = {"s": "héllo wörld — ☃"}
        assert roundtrip([("s", "string")], record) == record

    def test_char_boundaries(self):
        assert roundtrip([("c", "char", 1)], {"c": "\xff"}) == \
            {"c": "\xff"}
        with pytest.raises(EncodeError):
            roundtrip([("c", "char", 1)], {"c": "中"})
        with pytest.raises(EncodeError):
            roundtrip([("c", "char", 1)], {"c": "ab"})


class TestFieldDiscipline:
    def test_missing_field(self):
        with pytest.raises(EncodeError, match="missing"):
            roundtrip([("a", "integer", 4), ("b", "integer", 4)],
                      {"a": 1})

    def test_unknown_field(self):
        with pytest.raises(EncodeError, match="unknown"):
            roundtrip([("a", "integer", 4)], {"a": 1, "zz": 2})

    def test_non_dict_record(self):
        with pytest.raises(EncodeError, match="mapping"):
            roundtrip([("a", "integer", 4)], [1])


class TestArrays:
    def test_fixed_numeric(self):
        record = {"v": [1.5, -2.5, 3.25]}
        assert roundtrip([("v", "float[3]", 4)], record) == record

    def test_fixed_wrong_count(self):
        with pytest.raises(EncodeError, match="fixed array"):
            roundtrip([("v", "float[3]", 4)], {"v": [1.0]})

    def test_numpy_input(self):
        data = np.arange(16, dtype=np.float32)
        out = roundtrip([("v", "float[16]", 4)], {"v": data})
        assert out["v"] == data.tolist()

    def test_char_array_text(self):
        record = {"name": "grid-7"}
        out = roundtrip([("name", "char[16]")], record)
        assert out == record

    def test_char_array_overflow(self):
        with pytest.raises(EncodeError, match="exceed"):
            roundtrip([("name", "char[4]")], {"name": "toolong"})

    def test_length_field_linked(self):
        specs = [("n", "integer", 4), ("v", "float[n]", 4)]
        out = roundtrip(specs, {"n": 2, "v": [1.0, 2.0]})
        assert out == {"n": 2, "v": [1.0, 2.0]}

    def test_length_field_autofilled(self):
        specs = [("n", "integer", 4), ("v", "float[n]", 4)]
        out = roundtrip(specs, {"v": [1.0, 2.0, 3.0]})
        assert out["n"] == 3

    def test_length_field_mismatch(self):
        specs = [("n", "integer", 4), ("v", "float[n]", 4)]
        with pytest.raises(EncodeError, match="sizing"):
            roundtrip(specs, {"n": 5, "v": [1.0]})

    def test_self_sized_array(self):
        out = roundtrip([("v", "integer[*]", 8)],
                        {"v": [2**40, -2**40]})
        assert out == {"v": [2**40, -2**40]}

    def test_self_sized_empty(self):
        assert roundtrip([("v", "float[*]", 4)], {"v": []}) == {"v": []}

    def test_none_dynamic_array(self):
        assert roundtrip([("v", "float[*]", 4)], {"v": None}) == \
            {"v": None}

    def test_char_star(self):
        out = roundtrip([("text", "char[*]", 1)], {"text": "hello"})
        assert out == {"text": "hello"}

    def test_dynamic_rows_of_fixed(self):
        specs = [("n", "integer", 4), ("m", "float[n][2]", 4)]
        out = roundtrip(specs, {"m": [1.0, 2.0, 3.0, 4.0]})
        assert out["m"] == [1.0, 2.0, 3.0, 4.0]
        assert out["n"] == 2  # rows

    def test_dynamic_rows_ragged_rejected(self):
        specs = [("n", "integer", 4), ("m", "float[n][2]", 4)]
        with pytest.raises(EncodeError, match="multiple"):
            roundtrip(specs, {"m": [1.0, 2.0, 3.0]})

    def test_large_array_roundtrip(self):
        data = np.random.default_rng(0).random(65536) \
            .astype(np.float32)
        specs = [("n", "integer", 4), ("v", "float[n]", 4)]
        out = roundtrip(specs, {"v": data})
        assert out["n"] == 65536
        assert out["v"] == data.tolist()


class TestEnumerations:
    SPECS = [("mode", "enumeration", 4)]
    ENUMS = {"mode": ("fast", "safe", "slow")}

    def test_roundtrip_by_label(self):
        out = roundtrip(self.SPECS, {"mode": "safe"}, enums=self.ENUMS)
        assert out == {"mode": "safe"}

    def test_encode_by_index(self):
        out = roundtrip(self.SPECS, {"mode": 2}, enums=self.ENUMS)
        assert out == {"mode": "slow"}

    def test_unknown_label(self):
        with pytest.raises(EncodeError, match="not in enumeration"):
            roundtrip(self.SPECS, {"mode": "warp"}, enums=self.ENUMS)

    def test_index_out_of_range(self):
        with pytest.raises(EncodeError, match="out of range"):
            roundtrip(self.SPECS, {"mode": 7}, enums=self.ENUMS)


class TestNested:
    POINT = [("x", "double", 8), ("y", "double", 8)]

    def test_scalar_subformat(self):
        point = field_list_for(self.POINT)
        record = {"id": 1, "p": {"x": 1.5, "y": -2.5}}
        out = roundtrip([("id", "integer", 4), ("p", "Point")], record,
                        subformats={"Point": point})
        assert out == record

    def test_subformat_with_string(self):
        tag = field_list_for([("label", "string"),
                              ("weight", "double", 8)])
        record = {"t": {"label": "alpha", "weight": 2.5}}
        out = roundtrip([("t", "Tag")], record,
                        subformats={"Tag": tag})
        assert out == record

    def test_fixed_array_of_subformats(self):
        point = field_list_for(self.POINT)
        record = {"ps": [{"x": float(i), "y": float(-i)}
                         for i in range(3)]}
        out = roundtrip([("ps", "Point[3]")], record,
                        subformats={"Point": point})
        assert out == record

    def test_dynamic_array_of_subformats(self):
        point = field_list_for(self.POINT)
        record = {"n": 2, "ps": [{"x": 1.0, "y": 2.0},
                                 {"x": 3.0, "y": 4.0}]}
        out = roundtrip([("n", "integer", 4), ("ps", "Point[n]")],
                        record, subformats={"Point": point})
        assert out == record

    def test_self_sized_array_of_subformats_with_strings(self):
        tag = field_list_for([("label", "string")])
        record = {"tags": [{"label": "a"}, {"label": "bb"},
                           {"label": None}]}
        out = roundtrip([("tags", "Tag[*]")], record,
                        subformats={"Tag": tag})
        assert out == record

    def test_deep_nesting(self):
        point = field_list_for(self.POINT)
        seg = field_list_for([("a", "Point"), ("b", "Point")],
                             subformats={"Point": point})
        record = {"s": {"a": {"x": 0.0, "y": 0.0},
                        "b": {"x": 1.0, "y": 1.0}}}
        out = roundtrip([("s", "Segment")], record,
                        subformats={"Point": point, "Segment": seg})
        assert out == record

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_var_array_sized_by_a_field_of_its_own_nested_type(
            self, arch):
        """The sizing field resolves against the record the array
        lives in, not the top-level one (which has no ``n`` here)."""
        inner = field_list_for([("n", "integer", 4),
                                ("v", "float[n]", 4)],
                               architecture=arch)
        record = {"id": 7, "p": {"n": 3, "v": [1.0, 2.0, 3.0]}}
        out = roundtrip([("id", "integer", 4), ("p", "Inner")], record,
                        arch=arch, subformats={"Inner": inner})
        assert out == record

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_nested_sizing_field_shadowed_by_an_outer_one(self, arch):
        """An outer field of the same name must not size the nested
        array: read at the outer ``n``'s offset inside the nested
        record this would find ``pad`` and decode ``v == [1.0]``."""
        inner = field_list_for([("n", "integer", 4),
                                ("pad", "integer", 4),
                                ("v", "float[n]", 4)],
                               architecture=arch)
        record = {"id": 7, "n": 9,
                  "p": {"n": 3, "pad": 1, "v": [1.0, 2.0, 3.0]}}
        out = roundtrip([("id", "integer", 4), ("n", "integer", 4),
                         ("p", "Inner")], record,
                        arch=arch, subformats={"Inner": inner})
        assert out == record

    def test_nested_sizing_inside_a_var_array_of_records(self):
        inner = field_list_for([("n", "integer", 4),
                                ("v", "double[n]", 8)])
        record = {"k": 2, "ps": [{"n": 1, "v": [0.5]},
                                 {"n": 3, "v": [1.0, 2.0, 3.0]}]}
        out = roundtrip([("k", "integer", 4), ("ps", "Inner[k]")],
                        record, subformats={"Inner": inner})
        assert out == record


class TestHeader:
    def test_roundtrip(self):
        from repro.pbio.format import FormatID
        fid = FormatID(0xDEADBEEF)
        header = build_header(fid, 1234, big_endian=True)
        assert len(header) == HEADER_LEN
        got_fid, got_len = parse_header(header)
        assert got_fid == fid and got_len == 1234

    def test_bad_magic(self):
        with pytest.raises(EncodeError, match="magic"):
            parse_header(b"XX" + b"\x00" * 14)

    def test_short_data(self):
        with pytest.raises(EncodeError, match="shorter"):
            parse_header(b"PB")

    def test_bad_version(self):
        header = bytearray(build_header(
            __import__("repro.pbio.format",
                       fromlist=["FormatID"]).FormatID(1), 0,
            big_endian=False))
        header[2] = 99
        with pytest.raises(EncodeError, match="version"):
            parse_header(bytes(header))


class TestDecodeFailures:
    def test_truncated_body(self):
        fl = field_list_for([("a", "integer", 4), ("b", "double", 8)])
        fmt = IOFormat("T", fl)
        with pytest.raises(DecodeError, match="record body"):
            RecordDecoder(fmt).decode(b"\x00" * 4)

    def test_string_offset_out_of_bounds(self):
        fl = field_list_for([("s", "string")])
        fmt = IOFormat("T", fl)
        body = struct.pack("<Q", 9999)
        with pytest.raises(DecodeError, match="outside variable region"):
            RecordDecoder(fmt).decode(body)

    def test_unterminated_string(self):
        fl = field_list_for([("s", "string")])
        fmt = IOFormat("T", fl)
        body = struct.pack("<Q", 8) + b"no-nul"
        with pytest.raises(DecodeError, match="unterminated"):
            RecordDecoder(fmt).decode(body)

    def test_array_out_of_bounds(self):
        fl = field_list_for([("n", "integer", 4), ("v", "float[n]", 4)])
        fmt = IOFormat("T", fl)
        # n says 1000 elements but there is no data
        body = struct.pack("<iiQ", 1000, 0, 16)
        with pytest.raises(DecodeError, match="outside"):
            RecordDecoder(fmt).decode(body)

    def test_negative_count_rejected(self):
        fl = field_list_for([("n", "integer", 4), ("v", "float[n]", 4)])
        fmt = IOFormat("T", fl)
        body = struct.pack("<iiQ", -1, 0, 16) + b"\x00" * 16
        with pytest.raises(DecodeError, match="negative"):
            RecordDecoder(fmt).decode(body)

    def test_numpy_arrays_mode(self):
        fl = field_list_for([("n", "integer", 4), ("v", "float[n]", 4)])
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"v": [1.0, 2.0]}).body
        out = RecordDecoder(fmt, arrays="numpy").decode(body)
        assert isinstance(out["v"], np.ndarray)

    def test_bad_arrays_mode(self):
        fl = field_list_for([("a", "integer", 4)])
        with pytest.raises(DecodeError):
            RecordDecoder(IOFormat("T", fl), arrays="tuples")


class TestWireLayoutDetails:
    def test_body_starts_with_native_struct_image(self):
        # receiver-makes-right: fixed section is the sender's struct
        fl = field_list_for([("a", "integer", 4), ("b", "float", 4)],
                            architecture=SPARC_32)
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"a": 258, "b": 1.0}).body
        assert body[:4] == (258).to_bytes(4, "big")
        assert body[4:8] == struct.pack(">f", 1.0)

    def test_little_endian_image(self):
        fl = field_list_for([("a", "integer", 4)], architecture=X86_64)
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"a": 258}).body
        assert body[:4] == (258).to_bytes(4, "little")

    def test_null_pointer_is_zero(self):
        fl = field_list_for([("s", "string")], architecture=X86_64)
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"s": None}).body
        assert body == b"\x00" * 8

    def test_padding_is_zeroed(self):
        fl = field_list_for([("c", "char"), ("i", "integer", 4)],
                            architecture=X86_64)
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"c": "a", "i": 0}).body
        assert body[1:4] == b"\x00\x00\x00"

    def test_static_format_body_is_exactly_record_length(self):
        fl = field_list_for([("a", "integer", 4), ("b", "double", 8)])
        fmt = IOFormat("T", fl)
        body = RecordEncoder(fmt).encode({"a": 1, "b": 2.0}).body
        assert len(body) == fl.record_length


# -- property-based: roundtrip across all architectures ----------------------

@settings(max_examples=60, deadline=None)
@given(case=format_case(allow_nested=True), data=st.data(),
       arch=st.sampled_from(ARCHS))
def test_random_format_roundtrip(case, data, arch):
    specs, record_strategy = case
    record = data.draw(record_strategy)
    fl = field_list_of(specs, arch)
    fmt = IOFormat("P", fl)
    decoded = RecordDecoder(fmt).decode(
        RecordEncoder(fmt).encode(record).body)
    assert_record_roundtrip(record, decoded, specs)


@settings(max_examples=30, deadline=None)
@given(case=format_case(), data=st.data(),
       sender=st.sampled_from(ARCHS), receiver=st.sampled_from(ARCHS))
def test_cross_architecture_exchange(case, data, sender, receiver):
    """Receiver-makes-right: any sender arch decodes identically on
    any receiver via contexts sharing a format server."""
    specs, record_strategy = case
    record = data.draw(record_strategy)
    server = FormatServer()
    sctx = IOContext(architecture=sender, format_server=server)
    rctx = IOContext(architecture=receiver, format_server=server)
    sctx.register_layout("P", specs)
    wire = sctx.encode("P", record)
    decoded = rctx.decode(wire).record
    assert_record_roundtrip(record, decoded, specs)
