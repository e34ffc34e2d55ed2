"""Structural parsing: elements, attributes, content, prolog."""

import pytest

from repro.errors import XMLWellFormednessError
from repro.xmlcore import (
    CData, Comment, Element, ProcessingInstruction, Text, parse,
    parse_bytes,
)


class TestBasicStructure:
    def test_empty_element(self):
        doc = parse("<root/>")
        assert doc.root.tag == "root"
        assert doc.root.children == []

    def test_empty_element_with_space(self):
        assert parse("<root />").root.tag == "root"

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b><d/></a>")
        root = doc.root
        assert [e.tag for e in root] == ["b", "d"]
        assert [e.tag for e in root.find("b")] == ["c"]

    def test_text_content(self):
        doc = parse("<a>hello world</a>")
        assert doc.root.text == "hello world"

    def test_mixed_content_order_preserved(self):
        doc = parse("<a>x<b/>y<c/>z</a>")
        kinds = [type(c).__name__ for c in doc.root.children]
        assert kinds == ["Text", "Element", "Text", "Element", "Text"]
        assert doc.root.text == "xyz"

    def test_parent_links(self):
        doc = parse("<a><b/></a>")
        b = doc.root.find("b")
        assert b.parent is doc.root
        assert doc.root.parent is doc
        assert b.document is doc


class TestAttributes:
    def test_attributes_parsed(self):
        doc = parse('<a x="1" y="two"/>')
        assert doc.root.get("x") == "1"
        assert doc.root.get("y") == "two"

    def test_single_quoted(self):
        assert parse("<a x='v'/>").root.get("x") == "v"

    def test_default_value(self):
        assert parse("<a/>").root.get("missing", "d") == "d"

    def test_attribute_value_normalization(self):
        # tab and newline become spaces per XML 1.0 section 3.3.3
        doc = parse('<a x="l1\nl2\tl3"/>')
        assert doc.root.get("x") == "l1 l2 l3"

    def test_entity_in_attribute(self):
        doc = parse('<a x="a&amp;b&lt;c"/>')
        assert doc.root.get("x") == "a&b<c"

    def test_char_ref_in_attribute(self):
        assert parse('<a x="&#65;&#x42;"/>').root.get("x") == "AB"


class TestCharacterData:
    def test_predefined_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text == "<>&'\""

    def test_decimal_char_reference(self):
        assert parse("<a>&#9731;</a>").root.text == "☃"

    def test_hex_char_reference(self):
        assert parse("<a>&#x2603;</a>").root.text == "☃"

    def test_cdata_section(self):
        doc = parse("<a><![CDATA[<not> &markup;]]></a>")
        (cdata,) = doc.root.children
        assert isinstance(cdata, CData)
        assert cdata.data == "<not> &markup;"
        assert doc.root.text == "<not> &markup;"

    def test_line_ending_normalization(self):
        doc = parse("<a>x\r\ny\rz</a>")
        assert doc.root.text == "x\ny\nz"


class TestPrologAndMisc:
    def test_xml_declaration(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8" '
                    'standalone="yes"?><r/>')
        assert doc.xml_version == "1.0"
        assert doc.encoding == "UTF-8"
        assert doc.standalone is True

    def test_comment_in_prolog_and_content(self):
        doc = parse("<!-- before --><a><!-- inside --></a>")
        assert isinstance(doc.children[0], Comment)
        (inner,) = doc.root.children
        assert isinstance(inner, Comment)
        assert inner.data == " inside "

    def test_processing_instruction(self):
        doc = parse('<?go target stuff?><a/>')
        (pi, _root) = doc.children
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "go"
        assert pi.data == "target stuff"

    def test_pi_without_data(self):
        doc = parse("<a><?noop?></a>")
        (pi,) = doc.root.children
        assert pi.target == "noop"
        assert pi.data == ""

    def test_doctype_with_entity_declarations(self):
        doc = parse('<!DOCTYPE r [<!ENTITY who "world">]>'
                    "<r>hello &who;</r>")
        assert doc.doctype_name == "r"
        assert doc.root.text == "hello world"

    def test_nested_entity_expansion(self):
        doc = parse('<!DOCTYPE r [<!ENTITY a "x">'
                    '<!ENTITY b "&a;y">]><r>&b;</r>')
        assert doc.root.text == "xy"

    def test_whitespace_after_root_allowed(self):
        assert parse("<a/>\n\n").root.tag == "a"


class TestParseBytes:
    def test_utf8_default(self):
        assert parse_bytes("<a>é</a>".encode("utf-8")).root.text == "é"

    def test_utf8_bom(self):
        data = b"\xef\xbb\xbf<a/>"
        assert parse_bytes(data).root.tag == "a"

    def test_declared_latin1(self):
        data = ('<?xml version="1.0" encoding="ISO-8859-1"?>'
                "<a>\xe9</a>").encode("latin-1")
        assert parse_bytes(data).root.text == "é"

    def test_utf16_bom(self):
        data = "<a>hi</a>".encode("utf-16")  # adds BOM
        assert parse_bytes(data).root.text == "hi"

    def test_bad_encoding_rejected(self):
        with pytest.raises(XMLWellFormednessError):
            parse_bytes(b'<?xml version="1.0" encoding="no-such"?><a/>')


class TestTraversal:
    DOC = ("<cat><item n='1'/><box><item n='2'/></box>"
           "<item n='3'/></cat>")

    def test_iter_descends(self):
        doc = parse(self.DOC)
        assert [e.get("n") for e in doc.iter("item")] == ["1", "2", "3"]

    def test_find_direct_children_only(self):
        doc = parse(self.DOC)
        assert doc.root.find("item").get("n") == "1"
        assert len(doc.root.find_all("item")) == 2

    def test_len_counts_element_children(self):
        assert len(parse("<a>t<b/>t<c/></a>").root) == 2

    def test_text_content_recurses(self):
        doc = parse("<a>x<b>y</b>z</a>")
        assert doc.root.text_content() == "xyz"
        assert doc.root.text == "xz"


class TestErrorPrecedence:
    def test_a_later_well_formedness_error_wins_over_a_namespace_error(self):
        # namespaces resolve as the scanner reads, but a namespace
        # error waits for the end of the document, as when resolving
        # was a second pass
        with pytest.raises(XMLWellFormednessError, match="unterminated"):
            parse("<a><p:b/><c>")
