"""XML as a wire format.

This is the comparator the paper argues against (section 4.1, Fig. 1):
every record becomes an ASCII document with an element per field and an
element per array item::

    <SimpleData>
      <timestep>9999</timestep>
      <size>3355</size>
      <data>12.345</data>
      <data>12.345</data>
      ...
    </SimpleData>

Both directions pay per-element string conversion (binary -> decimal
text on send, text -> binary on receive), which is exactly the
"2 to 4 orders of magnitude" cost the paper cites from [12], plus the
6-8x ASCII expansion in transmitted bytes.

The codec is implemented on our own DOM/serializer/parser so its cost
profile is a genuine XML-processing cost, not an artifact of a foreign
library.  :func:`encode_fields` / :func:`decode_fields` are the one
format-driven XML record walk; the SOAP codec (:mod:`repro.rpc.soapwire`)
runs the same walk inside its envelope.
"""

from __future__ import annotations

from repro.errors import SchemaValidationError, WireFormatError
from repro.pbio.fields import FieldList, IOField
from repro.pbio.types import FieldType
from repro.schema.datatypes import (
    BOOLEAN, BYTE, DOUBLE, FLOAT, INT, LONG, SHORT, UNSIGNED_BYTE,
    UNSIGNED_INT, UNSIGNED_LONG, UNSIGNED_SHORT,
)
from repro.wire.base import WireCodec, items_of
from repro.xmlcore.builder import DocumentBuilder
from repro.xmlcore.chars import is_xml_char
from repro.xmlcore.dom import Element
from repro.xmlcore.parser import parse
from repro.xmlcore.serializer import serialize


def encode_fields(builder: DocumentBuilder, field_list: FieldList,
                  record: dict) -> None:
    """One element per field of *record*, repeated for array items; a
    scalar that is ``None`` (an absent optional) writes no element."""
    for field in field_list:
        ftype = field.field_type
        name = field.name
        try:
            value = record[name]
        except KeyError:
            raise WireFormatError(
                f"field {name!r} missing from record") from None
        if ftype.kind == "subformat":
            sub = field_list.subformat(ftype.base)
            items = [value] if not ftype.dims else items_of(value)
            for item in items:
                with builder.element(name):
                    encode_fields(builder, sub, item)
        elif ftype.dims and ftype.kind != "char":
            for item in items_of(value):
                builder.leaf(name, _to_text(ftype, item))
        elif value is None:
            continue
        else:
            builder.leaf(name, _to_text(ftype, value))


def decode_fields(elem: Element, field_list: FieldList) -> dict:
    """The record whose fields are *elem*'s children, typed by the
    format: an absent array is empty, an absent scalar ``None``."""
    groups: dict[str, list[Element]] = {}
    for child in elem:
        groups.setdefault(child.local_name, []).append(child)
    record: dict = {}
    for field in field_list:
        ftype = field.field_type
        name = field.name
        occurrences = groups.get(name, [])
        if ftype.kind == "subformat":
            sub = field_list.subformat(ftype.base)
            items = [decode_fields(o, sub) for o in occurrences]
            record[name] = items if ftype.dims else \
                (items[0] if items else {})
        elif ftype.dims and ftype.kind != "char":
            record[name] = [_from_text(field, o.text)
                            for o in occurrences]
        elif not occurrences:
            record[name] = None
        else:
            record[name] = _from_text(field, occurrences[0].text)
    return record


#: XML Schema's spellings of the non-finite floats (Python's are
#: ``inf`` / ``-inf`` / ``nan``).
_NON_FINITE = {"inf": "INF", "-inf": "-INF", "nan": "NaN"}


def _to_text(ftype: FieldType, value) -> str:
    # repr() for floats preserves round-trip precision, matching what a
    # careful 2001-era XML sender would emit.
    if ftype.kind == "float":
        text = repr(float(value))
        return _NON_FINITE.get(text, text)
    if ftype.kind == "boolean":
        return "true" if value else "false"
    text = str(value)
    if ftype.kind in ("string", "char"):
        # A genuine limitation of XML as a wire format: control
        # characters have no XML 1.0 representation at all (not even
        # as character references).  Binary formats carry them
        # untouched; here they must be rejected.
        for ch in text:
            if not is_xml_char(ch):
                raise WireFormatError(
                    f"string value contains U+{ord(ch):04X}, "
                    "which XML 1.0 cannot represent")
    return text


#: PBIO (kind, element size) -> the XML Schema datatype whose lexical
#: space the wire reads that value in; strings and chars are text
_LEXICAL = {
    (kind, datatype.bits // 8): datatype
    for kinds, datatypes in (
        (("integer", "enumeration"), (BYTE, SHORT, INT, LONG)),
        (("unsigned",), (UNSIGNED_BYTE, UNSIGNED_SHORT, UNSIGNED_INT,
                         UNSIGNED_LONG)),
        (("float",), (FLOAT, DOUBLE)),
        (("boolean",), (BOOLEAN,)))
    for kind in kinds for datatype in datatypes}


def _from_text(field: IOField, text: str):
    datatype = _LEXICAL.get((field.field_type.kind, field.size))
    if datatype is None:
        return text
    try:
        return datatype.parse(text)
    except SchemaValidationError as exc:
        raise WireFormatError(f"field {field.name!r}: {exc}") from None


class XMLWireCodec(WireCodec):
    """Records as ASCII XML documents."""

    codec_name = "xml"

    def encode(self, record: dict) -> bytes:
        builder = DocumentBuilder()
        with builder.element(self.format.name):
            encode_fields(builder, self.format.field_list, record)
        text = serialize(builder.document(namespaces=False),
                         xml_declaration=False)
        return text.encode("utf-8")

    def decode(self, data: bytes) -> dict:
        doc = parse(data.decode("utf-8"), namespaces=False)
        root = doc.root
        if root.tag != self.format.name:
            raise WireFormatError(
                f"expected <{self.format.name}> document, got "
                f"<{root.tag}>")
        return decode_fields(root, self.format.field_list)
