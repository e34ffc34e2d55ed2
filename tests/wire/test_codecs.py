"""Per-codec behaviour and cross-codec agreement."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError, WireFormatError, XMLError
from repro.pbio.format import IOFormat
from repro.pbio.layout import field_list_for
from repro.pbio.machine import SPARC_32, X86_64
from repro.wire import (
    CDRWireCodec, MPIWireCodec, PBIOWireCodec, XDRWireCodec,
    XMLWireCodec, all_codecs, codec_by_name,
)

from tests.strategies import assert_record_roundtrip, format_case

ALL_CODECS = (XMLWireCodec, MPIWireCodec, CDRWireCodec, XDRWireCodec,
              PBIOWireCodec)


def simple_format(arch=X86_64):
    return IOFormat("SimpleData", field_list_for(
        [("timestep", "integer", 4), ("size", "integer", 4),
         ("data", "float[size]", 4)], architecture=arch))


def sample_record(n=16):
    return {"timestep": 9, "size": n,
            "data": [float(i) + 0.5 for i in range(n)]}


class TestRegistry:
    def test_all_registered(self):
        assert set(all_codecs()) == {"xml", "mpi", "cdr", "xdr", "pbio"}

    def test_instantiate_by_name(self):
        codec = codec_by_name("xml", simple_format())
        assert isinstance(codec, XMLWireCodec)

    def test_unknown_name(self):
        with pytest.raises(WireFormatError):
            codec_by_name("carrier-pigeon", simple_format())


@pytest.mark.parametrize("codec_cls", ALL_CODECS,
                         ids=[c.codec_name for c in ALL_CODECS])
class TestEveryCodec:
    def test_roundtrip_simple(self, codec_cls):
        codec = codec_cls(simple_format())
        record = sample_record()
        out = codec.roundtrip(record)
        assert out["timestep"] == 9
        assert out["size"] == 16
        assert out["data"] == record["data"]

    def test_roundtrip_empty_array(self, codec_cls):
        codec = codec_cls(simple_format())
        out = codec.roundtrip({"timestep": 1, "size": 0, "data": []})
        assert out["size"] == 0
        assert list(out["data"] or []) == []

    def test_roundtrip_strings(self, codec_cls):
        fmt = IOFormat("Msg", field_list_for(
            [("name", "string"), ("x", "integer", 4)]))
        codec = codec_cls(fmt)
        out = codec.roundtrip({"name": "hello world", "x": -3})
        assert out == {"name": "hello world", "x": -3}

    def test_roundtrip_nested(self, codec_cls):
        point = field_list_for([("x", "double", 8), ("y", "double", 8)])
        for specs, record in [
                ([("id", "integer", 4), ("origin", "Point")],
                 {"id": 1, "origin": {"x": 1.5, "y": 2.5}}),
                # a var array of structs: the dynamic-subformat paths
                ([("id", "integer", 4), ("n", "integer", 4),
                  ("path", "Point[n]")],
                 {"id": 2, "n": 3, "path": [{"x": float(i), "y": i + 0.5}
                                            for i in range(3)]})]:
            codec = codec_cls(IOFormat("Track", field_list_for(
                specs, subformats={"Point": point})))
            assert codec.roundtrip(record) == record

    def test_roundtrip_big_endian_format(self, codec_cls):
        codec = codec_cls(simple_format(arch=SPARC_32))
        record = sample_record(4)
        assert codec.roundtrip(record)["data"] == record["data"]

    def test_missing_field_raises(self, codec_cls):
        codec = codec_cls(simple_format())
        with pytest.raises(Exception):
            codec.encode({"timestep": 1})

    def test_encoded_size_positive(self, codec_cls):
        codec = codec_cls(simple_format())
        assert codec.encoded_size(sample_record()) > 0


@pytest.mark.parametrize("name", all_codecs())
def test_every_prefix_of_a_record_is_rejected(name):
    """A truncated record raises the codec's typed error: never a bare
    ``struct.error``, never a short string or a partial record."""
    fmt = IOFormat("Msg", field_list_for(
        [("x", "integer", 4), ("n", "integer", 4),
         ("v", "float[n]", 4), ("name", "string")]))
    codec = codec_by_name(name, fmt)
    data = codec.encode({"x": -3, "n": 3, "v": [1.0, 2.0, 3.0],
                         "name": "hello"})
    for end in range(len(data)):
        with pytest.raises((WireFormatError, DecodeError, XMLError)):
            codec.decode(data[:end])


class TestSizeExpansion:
    """Fig. 1: XML representation is several times larger."""

    def test_xml_is_largest(self):
        fmt = simple_format()
        record = sample_record(256)
        sizes = {cls.codec_name: cls(fmt).encoded_size(record)
                 for cls in ALL_CODECS}
        assert sizes["xml"] > 3 * sizes["pbio"]
        assert sizes["xml"] == max(sizes.values())

    def test_binary_codecs_are_close(self):
        fmt = simple_format()
        record = sample_record(256)
        binary = [cls(fmt).encoded_size(record)
                  for cls in (MPIWireCodec, CDRWireCodec,
                              XDRWireCodec, PBIOWireCodec)]
        assert max(binary) < 1.2 * min(binary)


class TestXMLWireSpecifics:
    def test_document_shape_matches_fig1(self):
        codec = XMLWireCodec(simple_format())
        text = codec.encode(sample_record(3)).decode()
        assert text.startswith("<SimpleData>")
        assert text.count("<data>") == 3
        assert "<timestep>9</timestep>" in text

    def test_wrong_root_rejected(self):
        codec = XMLWireCodec(simple_format())
        with pytest.raises(WireFormatError, match="expected"):
            codec.decode(b"<Other><timestep>1</timestep></Other>")

    def test_unparseable_number_rejected(self):
        codec = XMLWireCodec(simple_format())
        with pytest.raises(WireFormatError):
            codec.decode(b"<SimpleData><timestep>NIL</timestep>"
                         b"<size>0</size></SimpleData>")

    def test_non_finite_floats_in_xsd_spelling(self):
        # XML Schema spells them INF / -INF / NaN; Python's repr() is
        # inf / -inf / nan, which an XSD validator rejects
        codec = XMLWireCodec(simple_format())
        record = {"timestep": 1, "size": 4,
                  "data": [math.inf, -math.inf, math.nan, 2.5]}
        text = codec.encode(record).decode()
        assert ("<data>INF</data><data>-INF</data><data>NaN</data>"
                "<data>2.5</data>") in text
        got = codec.decode(text.encode())["data"]
        assert got[:2] == [math.inf, -math.inf] and math.isnan(got[2])

    def test_absent_optional_scalar_roundtrips(self):
        """An optional scalar left ``None`` writes no element, and the
        XML wire, SOAP and the instance reader all read it back as
        ``None`` (an empty ``<t />`` is not an integer)."""
        from repro.core.toolkit import XMIT
        from repro.rpc.soapwire import SOAPCodec
        from repro.schema.parser import parse_schema_text
        from repro.schema.validator import load_instance
        from repro.xmlcore.parser import parse_bytes
        xsd = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="%s">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="t" type="xsd:int" minOccurs="0" />
  </xsd:complexType>
</xsd:schema>
"""
        xmit = XMIT()
        xmit.load_text(xsd % "M")
        record = {"id": 1, "t": None}
        wire = XMLWireCodec(xmit.bind("M").artifact).encode(record)
        assert b"<t" not in wire
        assert XMLWireCodec(xmit.bind("M").artifact).decode(wire) == \
            record
        assert load_instance(parse_schema_text(xsd % "M"), "M",
                             parse_bytes(wire).root) == record
        assert xmit.match_message(wire) == "M"
        soap = SOAPCodec(xsd % "echoParams")
        assert soap.decode_call(soap.encode_call("echo", record)) == \
            ("echo", record)

    @pytest.mark.parametrize("field, text", [
        ("id", "1_000"), ("id", "\u0661\u0662"), ("f", "Infinity"),
        ("b", "TRUE"), ("b", "yes")])
    def test_values_outside_the_lexical_space_are_rejected(
            self, field, text):
        """The XML wire and SOAP read values in the schema datatypes'
        lexical spaces, as the instance reader does: no Python-only
        spellings, and no boolean read as false by default."""
        from repro.core.toolkit import XMIT
        from repro.rpc.soapwire import SOAPCodec
        xsd = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="%s">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="t" type="xsd:int" minOccurs="0" />
    <xsd:element name="f" type="xsd:double" />
    <xsd:element name="b" type="xsd:boolean" />
  </xsd:complexType>
</xsd:schema>
"""
        xmit = XMIT()
        xmit.load_text(xsd % "M")
        codec = XMLWireCodec(xmit.bind("M").artifact)
        record = {"id": 1000, "t": None, "f": 2.5, "b": True}
        wire = codec.encode(record)
        assert wire == (b"<M><id>1000</id><f>2.5</f><b>true</b></M>")
        assert codec.decode(wire) == record
        bad = {"id": "1000", "f": "2.5", "b": "true", field: text}
        body = "".join(f"<{k}>{v}</{k}>" for k, v in bad.items())
        with pytest.raises(WireFormatError, match=repr(field)):
            codec.decode(f"<M>{body}</M>".encode())
        soap = SOAPCodec(xsd % "echoParams")
        call = soap.encode_call("echo", record).decode()
        call = re.sub(f"<{field}>[^<]*<", f"<{field}>{text}<", call)
        with pytest.raises(WireFormatError, match=repr(field)):
            soap.decode_call(call.encode())

    def test_control_characters_unrepresentable(self):
        # binary formats carry any byte; XML 1.0 cannot even escape
        # U+0008 — the codec must fail loudly rather than emit an
        # unparseable document
        fmt = IOFormat("Msg", field_list_for([("s", "string")]))
        with pytest.raises(WireFormatError, match="cannot represent"):
            XMLWireCodec(fmt).encode({"s": "bell\x08"})


class TestCDRSpecifics:
    def test_byte_order_flag(self):
        little = CDRWireCodec(simple_format(X86_64))
        big = CDRWireCodec(simple_format(SPARC_32))
        assert little.encode(sample_record(1))[0] == 1
        assert big.encode(sample_record(1))[0] == 0

    def test_reader_makes_right(self):
        # encode with a big-endian sender, decode with a codec bound
        # to a little-endian format: the flag drives interpretation
        record = sample_record(4)
        data = CDRWireCodec(simple_format(SPARC_32)).encode(record)
        out = CDRWireCodec(simple_format(X86_64)).decode(data)
        assert out["data"] == record["data"]

    def test_alignment_padding_present(self):
        fmt = IOFormat("T", field_list_for(
            [("c", "char", 1), ("d", "double", 8)]))
        data = CDRWireCodec(fmt).encode({"c": "x", "d": 1.0})
        # 1 flag byte + 1 char + 6 pad + 8 double
        assert len(data) == 16

    def test_empty_payload_rejected(self):
        with pytest.raises(WireFormatError):
            CDRWireCodec(simple_format()).decode(b"")


class TestXDRSpecifics:
    def test_always_big_endian(self):
        record = {"timestep": 258, "size": 0, "data": []}
        for arch in (X86_64, SPARC_32):
            data = XDRWireCodec(simple_format(arch)).encode(record)
            assert data[:4] == (258).to_bytes(4, "big")

    def test_four_byte_units(self):
        fmt = IOFormat("T", field_list_for([("c", "char", 1)]))
        data = XDRWireCodec(fmt).encode({"c": "x"})
        assert len(data) == 4  # chars widen to a full XDR unit

    def test_string_padding(self):
        fmt = IOFormat("T", field_list_for([("s", "string")]))
        data = XDRWireCodec(fmt).encode({"s": "abcde"})
        assert len(data) == 4 + 8  # length + 5 bytes padded to 8

    def test_cross_endian_exchange(self):
        record = sample_record(4)
        data = XDRWireCodec(simple_format(SPARC_32)).encode(record)
        out = XDRWireCodec(simple_format(X86_64)).decode(data)
        assert out["data"] == record["data"]


class TestMPISpecifics:
    def test_typemap_packs_fixed_section_contiguously(self):
        fmt = IOFormat("T", field_list_for(
            [("a", "integer", 4), ("b", "integer", 4)]))
        data = MPIWireCodec(fmt).encode({"a": 1, "b": 2})
        assert len(data) == 8  # no header, no padding

    def test_enumeration_roundtrip(self):
        fmt = IOFormat("T", field_list_for(
            [("mode", "enumeration", 4)]),
            {"mode": ("fast", "safe")})
        # MPI codec carries enums as raw indices
        out = MPIWireCodec(fmt).roundtrip({"mode": 1})
        assert out["mode"] == 1


class TestPBIOCodecSpecifics:
    def test_wrong_format_id_rejected(self):
        a = PBIOWireCodec(simple_format())
        other = IOFormat("Other", field_list_for([("x", "integer", 4)]))
        b = PBIOWireCodec(other)
        with pytest.raises(WireFormatError, match="does not match"):
            b.decode(a.encode(sample_record(1)))


# -- property: every codec agrees with PBIO on every record -----------------

_CODEC_CLASSES = st.sampled_from(
    [XMLWireCodec, MPIWireCodec, CDRWireCodec, XDRWireCodec])


@settings(max_examples=40, deadline=None)
@given(case=format_case(max_fields=4), data=st.data(),
       codec_cls=_CODEC_CLASSES)
def test_codecs_roundtrip_matches_input(case, data, codec_cls):
    from hypothesis import assume
    from repro.xmlcore.chars import is_xml_char
    specs, record_strategy = case
    record = data.draw(record_strategy)
    if codec_cls is XMLWireCodec:
        # XML cannot represent control characters at all; the codec
        # rejects them (covered by a dedicated test below)
        assume(all(is_xml_char(c)
                   for v in record.values() if isinstance(v, str)
                   for c in v))
    fmt = IOFormat("P", field_list_for(specs))
    codec = codec_cls(fmt)
    decoded = codec.roundtrip(record)
    # None strings flatten to "" in text/length-prefixed codecs;
    # align on that before comparing.
    reference = dict(record)
    for key, value in reference.items():
        if value is None and codec_cls is not XMLWireCodec:
            reference[key] = ""
    if codec_cls is XMLWireCodec:
        for key, value in list(reference.items()):
            if value is None:
                reference[key] = ""
            if decoded.get(key) is None and reference[key] == "":
                decoded[key] = ""
    assert_record_roundtrip(reference, decoded, specs)
