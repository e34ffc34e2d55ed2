"""The XML wire writes instances the schema reader accepts.

:class:`~repro.wire.xml_wire.XMLWireCodec` (format-driven, from the
bound PBIO format) and :func:`~repro.schema.validator.load_instance`
(schema-driven, from the parsed XSD) are independent implementations
of the same document form; a record survives one into the other.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.toolkit import XMIT
from repro.errors import SchemaValidationError
from repro.schema.parser import parse_schema_text
from repro.schema.validator import load_instance
from repro.wire.xml_wire import XMLWireCodec
from repro.xmlcore.parser import parse_bytes

XSD = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="Msg">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="label" type="xsd:string" minOccurs="0" />
    <xsd:element name="origin" type="Point" />
    <xsd:element name="size" type="xsd:int" />
    <xsd:element name="data" type="xsd:float" minOccurs="0"
                 maxOccurs="*" dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
"""
SCHEMA = parse_schema_text(XSD)


def _codec() -> XMLWireCodec:
    xmit = XMIT()
    xmit.load_text(XSD)
    return XMLWireCodec(xmit.bind("Msg").artifact)


CODEC = _codec()


def sample():
    return {"id": 7, "label": "L", "origin": {"x": 1.5, "y": -2.0},
            "size": 2, "data": [0.5, 1.5]}


def dump_load(record: dict) -> dict:
    return load_instance(SCHEMA, "Msg",
                         parse_bytes(CODEC.encode(record)).root)


class TestDumpInstance:
    def test_document_shape(self):
        text = CODEC.encode(sample()).decode()
        assert text.startswith("<Msg>")
        assert "<id>7</id>" in text
        assert text.count("<data>") == 2
        assert "<origin><x>1.5</x>" in text

    def test_roundtrip(self):
        assert dump_load(sample()) == sample()

    def test_roundtrip_through_text(self):
        # the same document is what `xmitgen --validate` matches
        xmit = XMIT()
        xmit.load_text(XSD)
        assert xmit.match_message(CODEC.encode(sample())) == "Msg"

    def test_non_finite_values_roundtrip(self):
        record = sample() | {"origin": {"x": math.inf, "y": -math.inf},
                             "data": [math.nan, 1.0]}
        got = dump_load(record)
        assert got["origin"] == record["origin"]
        assert math.isnan(got["data"][0]) and got["data"][1] == 1.0

    def test_invalid_record_rejected(self):
        # the writer does not validate; the reader does
        with pytest.raises(SchemaValidationError, match="Msg.id"):
            dump_load(sample() | {"id": "seven"})


_records = st.fixed_dictionaries({
    "id": st.integers(-2**31, 2**31 - 1),
    "label": st.text(
        alphabet=st.characters(codec="utf-8",
                               blacklist_categories=("Cs", "Cc")),
        max_size=15),
    "origin": st.fixed_dictionaries({
        "x": st.floats(allow_nan=False),
        "y": st.floats(allow_nan=False)}),
    "data": st.lists(st.floats(width=32, allow_nan=False),
                     max_size=6),
}).map(lambda r: dict(r, size=len(r["data"])))


@settings(max_examples=60, deadline=None)
@given(_records)
def test_property_dump_load_identity(record):
    assert dump_load(record) == record
