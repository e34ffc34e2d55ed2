"""XSD document parsing into the component model."""

import pytest

from repro.errors import SchemaParseError, XMLWellFormednessError
from repro.schema.model import FIXED, SCALAR, VARIABLE
from repro.schema.parser import parse_schema_text

XSD_NS = 'xmlns:xsd="http://www.w3.org/2001/XMLSchema"'


def wrap(body: str) -> str:
    return f"<xsd:schema {XSD_NS}>{body}</xsd:schema>"


class TestComplexTypes:
    def test_flattened_style(self):
        # the paper's Fig. 2 style: elements directly under complexType
        s = parse_schema_text(wrap("""
          <xsd:complexType name="ASDOffEvent">
            <xsd:element name="centerID" type="xsd:string" />
            <xsd:element name="airline" type="xsd:string" />
            <xsd:element name="flightNum" type="xsd:integer" />
            <xsd:element name="off" type="xsd:unsignedLong" />
          </xsd:complexType>"""))
        ct = s.complex_type("ASDOffEvent")
        assert ct.field_names() == ("centerID", "airline", "flightNum",
                                    "off")
        assert ct.element("off").type_name == "unsignedLong"

    def test_sequence_style(self):
        s = parse_schema_text(wrap("""
          <xsd:complexType name="T">
            <xsd:sequence>
              <xsd:element name="a" type="xsd:int" />
              <xsd:element name="b" type="xsd:float" />
            </xsd:sequence>
          </xsd:complexType>"""))
        assert s.complex_type("T").field_names() == ("a", "b")

    def test_bare_complex_type_root(self):
        s = parse_schema_text(
            f'<xsd:complexType {XSD_NS} name="T">'
            '<xsd:element name="a" type="xsd:int" /></xsd:complexType>')
        assert "T" in s.complex_types

    def test_user_type_reference(self):
        s = parse_schema_text(wrap("""
          <xsd:complexType name="Inner">
            <xsd:element name="v" type="xsd:int" />
          </xsd:complexType>
          <xsd:complexType name="Outer">
            <xsd:element name="inner" type="Inner" />
          </xsd:complexType>"""))
        assert s.complex_type("Outer").element("inner").type_name == \
            "Inner"

    def test_documentation_captured(self):
        s = parse_schema_text(wrap("""
          <xsd:complexType name="T">
            <xsd:annotation>
              <xsd:documentation>About T.</xsd:documentation>
            </xsd:annotation>
            <xsd:element name="a" type="xsd:int" />
          </xsd:complexType>"""))
        assert s.complex_type("T").documentation == "About T."

    def test_target_namespace_recorded(self):
        s = parse_schema_text(
            f'<xsd:schema {XSD_NS} targetNamespace="urn:me">'
            '<xsd:complexType name="T">'
            '<xsd:element name="a" type="xsd:int" />'
            "</xsd:complexType></xsd:schema>")
        assert s.target_namespace == "urn:me"


class TestArraySpecs:
    def make(self, attrs: str):
        s = parse_schema_text(wrap(f"""
          <xsd:complexType name="T">
            <xsd:element name="size" type="xsd:int" />
            <xsd:element name="data" type="xsd:float" {attrs} />
          </xsd:complexType>"""))
        return s.complex_type("T").element("data").array

    def test_scalar_by_default(self):
        assert self.make("").kind == SCALAR

    def test_numeric_max_occurs(self):
        spec = self.make('maxOccurs="12"')
        assert spec.kind == FIXED and spec.size == 12

    def test_max_occurs_one_is_scalar(self):
        assert self.make('maxOccurs="1"').kind == SCALAR

    def test_star_is_dynamic(self):
        spec = self.make('maxOccurs="*"')
        assert spec.kind == VARIABLE and spec.length_field is None

    def test_unbounded_is_dynamic(self):
        assert self.make('maxOccurs="unbounded"').kind == VARIABLE

    def test_named_field_max_occurs(self):
        # section 3.1: a string maxOccurs names the sizing field
        spec = self.make('maxOccurs="size"')
        assert spec.kind == VARIABLE and spec.length_field == "size"

    def test_dimension_name_fig4_style(self):
        spec = self.make('minOccurs="0" maxOccurs="*" '
                         'dimensionName="size" '
                         'dimensionPlacement="before"')
        assert spec.kind == VARIABLE
        assert spec.length_field == "size"
        assert spec.placement == "before"

    def test_dimension_name_with_fixed_max_occurs_rejected(self):
        with pytest.raises(SchemaParseError, match="contradictory"):
            self.make('maxOccurs="5" dimensionName="size"')

    def test_zero_max_occurs_rejected(self):
        with pytest.raises(SchemaParseError):
            self.make('maxOccurs="0"')


class TestSimpleTypes:
    def test_enumeration(self):
        s = parse_schema_text(wrap("""
          <xsd:simpleType name="Color">
            <xsd:restriction base="xsd:string">
              <xsd:enumeration value="red" />
              <xsd:enumeration value="green" />
              <xsd:enumeration value="blue" />
            </xsd:restriction>
          </xsd:simpleType>
          <xsd:complexType name="Pixel">
            <xsd:element name="c" type="Color" />
          </xsd:complexType>"""))
        enum = s.enumerations["Color"]
        assert enum.values == ("red", "green", "blue")
        assert s.resolve("Color") is enum

    def test_enumeration_without_restriction_rejected(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text(wrap(
                '<xsd:simpleType name="E"><xsd:list /></xsd:simpleType>'))


class TestParserErrors:
    def test_non_schema_root(self):
        with pytest.raises(SchemaParseError, match="expected an XML"):
            parse_schema_text("<not-a-schema/>")

    def test_unnamed_complex_type(self):
        with pytest.raises(SchemaParseError, match="name"):
            parse_schema_text(wrap(
                '<xsd:complexType><xsd:element name="a" '
                'type="xsd:int" /></xsd:complexType>'))

    def test_element_without_type(self):
        with pytest.raises(SchemaParseError, match="anonymous"):
            parse_schema_text(wrap(
                '<xsd:complexType name="T">'
                '<xsd:element name="a" /></xsd:complexType>'))

    def test_empty_complex_type(self):
        with pytest.raises(SchemaParseError, match="no fields"):
            parse_schema_text(wrap(
                '<xsd:complexType name="T"></xsd:complexType>'))

    def test_dangling_type_reference(self):
        with pytest.raises(Exception):
            parse_schema_text(wrap(
                '<xsd:complexType name="T">'
                '<xsd:element name="a" type="Ghost" />'
                "</xsd:complexType>"))

    def test_attribute_particles_rejected(self):
        with pytest.raises(SchemaParseError, match="attribute"):
            parse_schema_text(wrap(
                '<xsd:complexType name="T">'
                '<xsd:element name="a" type="xsd:int" />'
                '<xsd:attribute name="x" type="xsd:int" />'
                "</xsd:complexType>"))

    def test_negative_min_occurs(self):
        with pytest.raises(SchemaParseError):
            parse_schema_text(wrap(
                '<xsd:complexType name="T">'
                '<xsd:element name="a" type="xsd:int" '
                'minOccurs="-1" /></xsd:complexType>'))

    @pytest.mark.parametrize("inner", ["sequence", "all"])
    def test_nested_model_group_rejected(self, inner):
        # flattening would lose nothing here, but a dropped field would
        # silently change the record layout: refuse, naming the type
        with pytest.raises(SchemaParseError, match="'T'.*nested"):
            parse_schema_text(wrap(
                '<xsd:complexType name="T"><xsd:sequence>'
                '<xsd:element name="a" type="xsd:int" />'
                f'<xsd:{inner}><xsd:element name="b" type="xsd:int" />'
                f"</xsd:{inner}></xsd:sequence></xsd:complexType>"))

    @pytest.mark.parametrize("body", [
        '<xsd:sequence><xsd:element name="a" type="xsd:int" />'
        '</xsd:sequence><xsd:element name="b" type="xsd:int" />',
        '<xsd:element name="b" type="xsd:int" /><xsd:all>'
        '<xsd:element name="a" type="xsd:int" /></xsd:all>',
    ], ids=["group-first", "element-first"])
    def test_element_beside_a_model_group_rejected(self, body):
        # whether the direct or the grouped fields come first would
        # decide the record layout: refuse, naming the type
        with pytest.raises(SchemaParseError, match="'T'.*beside"):
            parse_schema_text(wrap(
                f'<xsd:complexType name="T">{body}</xsd:complexType>'))

    @pytest.mark.parametrize("body", [
        '<xsd:complexType name="T"><o:element name="a" type="xsd:int"/>'
        "</xsd:complexType>",
        '<xsd:complexType name="T"><xsd:sequence>'
        '<xsd:element name="a" type="xsd:int"/>'
        '<o:element name="b" type="xsd:int"/>'
        "</xsd:sequence></xsd:complexType>",
        '<xsd:simpleType name="E"><xsd:restriction base="xsd:string">'
        '<o:enumeration value="x"/></xsd:restriction></xsd:simpleType>',
    ], ids=["complexType", "sequence", "restriction"])
    def test_foreign_element_in_a_component_rejected(self, body):
        with pytest.raises(SchemaParseError, match="non-schema element"):
            parse_schema_text(
                f'<xsd:schema {XSD_NS} xmlns:o="urn:other">{body}'
                "</xsd:schema>")

    @pytest.mark.parametrize("body", [
        '<xsd:complexType name="T">'
        '<xsd:element name="a" type="nope:int" /></xsd:complexType>',
        '<xsd:simpleType name="E"><xsd:restriction base="nope:string">'
        '<xsd:enumeration value="x" /></xsd:restriction></xsd:simpleType>',
    ], ids=["type", "base"])
    def test_undeclared_type_prefix_rejected(self, body):
        with pytest.raises(SchemaParseError, match="undeclared prefix"):
            parse_schema_text(wrap(body))

    def test_a_later_well_formedness_error_still_wins(self):
        # the front-end reads as the scanner does, but its errors and
        # namespace errors wait for the end of the document
        with pytest.raises(XMLWellFormednessError, match="unterminated"):
            parse_schema_text(
                f'<xsd:schema {XSD_NS}><p:x /><xsd:complexType name="T">')

    def test_1999_namespace_accepted(self):
        s = parse_schema_text(
            '<xsd:schema '
            'xmlns:xsd="http://www.w3.org/1999/XMLSchema">'
            '<xsd:complexType name="T">'
            '<xsd:element name="a" type="xsd:int" />'
            "</xsd:complexType></xsd:schema>")
        assert "T" in s.complex_types
