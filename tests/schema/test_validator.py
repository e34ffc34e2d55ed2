"""Instance validation: XML instance documents against a schema."""

import pytest

from repro.errors import SchemaValidationError
from repro.schema.parser import parse_schema_text
from repro.schema.validator import load_instance, match_format
from repro.xmlcore import parse

SCHEMA = parse_schema_text("""
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Mode">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="fast" />
      <xsd:enumeration value="safe" />
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="Msg">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="label" type="xsd:string" minOccurs="0" />
    <xsd:element name="mode" type="Mode" />
    <xsd:element name="origin" type="Point" />
    <xsd:element name="size" type="xsd:int" />
    <xsd:element name="data" type="xsd:float" minOccurs="0"
                 maxOccurs="*" dimensionName="size" />
    <xsd:element name="pair" type="xsd:int" maxOccurs="2" />
  </xsd:complexType>
</xsd:schema>
""")


INSTANCE = """
<Msg>
  <id>5</id>
  <mode>safe</mode>
  <origin><x>0.5</x><y>1.5</y></origin>
  <size>3</size>
  <data>1.0</data><data>2.0</data><data>3.0</data>
  <pair>1</pair><pair>2</pair>
</Msg>
"""


class TestLoadInstance:
    def test_load(self):
        rec = load_instance(SCHEMA, "Msg", parse(INSTANCE).root)
        assert rec["id"] == 5
        assert rec["mode"] == "safe"
        assert rec["origin"] == {"x": 0.5, "y": 1.5}
        assert rec["data"] == [1.0, 2.0, 3.0]
        assert rec["pair"] == [1, 2]
        # an absent optional scalar reads back as None, the record
        # form the XML wire decodes too
        assert rec["label"] is None

    def test_duplicate_scalar_rejected(self):
        text = INSTANCE.replace("<id>5</id>", "<id>5</id><id>6</id>")
        with pytest.raises(SchemaValidationError, match="scalar"):
            load_instance(SCHEMA, "Msg", parse(text).root)

    def test_unexpected_element_rejected(self):
        text = INSTANCE.replace("<id>5</id>", "<id>5</id><zz>1</zz>")
        with pytest.raises(SchemaValidationError, match="zz"):
            load_instance(SCHEMA, "Msg", parse(text).root)

    def test_missing_required_rejected(self):
        text = INSTANCE.replace("<mode>safe</mode>", "")
        with pytest.raises(SchemaValidationError, match="mode"):
            load_instance(SCHEMA, "Msg", parse(text).root)

    def test_length_field_cross_check(self):
        text = INSTANCE.replace("<size>3</size>", "<size>2</size>")
        with pytest.raises(SchemaValidationError, match="length field"):
            load_instance(SCHEMA, "Msg", parse(text).root)

    def test_fixed_occurrence_count(self):
        text = INSTANCE.replace("<pair>2</pair>", "")
        with pytest.raises(SchemaValidationError, match="pair"):
            load_instance(SCHEMA, "Msg", parse(text).root)


class TestValidateRecord:
    """Value-level checks of the record an instance carries."""

    def load(self, old, new):
        text = INSTANCE.replace(old, new)
        return load_instance(SCHEMA, "Msg", parse(text).root)

    def test_type_violation(self):
        with pytest.raises(SchemaValidationError, match="Msg.id"):
            self.load("<id>5</id>", "<id>one</id>")

    def test_enum_violation(self):
        with pytest.raises(SchemaValidationError, match="reckless"):
            self.load("<mode>safe</mode>", "<mode>reckless</mode>")

    def test_nested_violation_reports_path(self):
        with pytest.raises(SchemaValidationError, match="Msg.origin.y"):
            self.load("<y>1.5</y>", "")

    def test_scalar_where_array_expected(self):
        # an array written as one space-separated element (xsd:list
        # style) is not three occurrences
        with pytest.raises(SchemaValidationError, match="data"):
            self.load("<data>1.0</data><data>2.0</data><data>3.0</data>",
                      "<data>1.0 2.0 3.0</data>")

    def test_float_instance_in_python_spelling_rejected(self):
        with pytest.raises(SchemaValidationError, match="Infinity"):
            self.load("<x>0.5</x>", "<x>Infinity</x>")
        with pytest.raises(SchemaValidationError, match="1_000"):
            self.load("<id>5</id>", "<id>1_000</id>")


class TestMatchFormat:
    def test_matches_by_structure(self):
        # the paper: schema checking applied to live messages "to
        # determine which of several structure definitions a message
        # best matches"
        assert match_format(SCHEMA, parse(INSTANCE).root) == "Msg"

    def test_match_point(self):
        doc = parse("<Anything><x>1.0</x><y>2.0</y></Anything>")
        assert match_format(SCHEMA, doc.root) == "Point"

    def test_no_match(self):
        doc = parse("<W><only>1</only></W>")
        assert match_format(SCHEMA, doc.root) is None

    def test_prefers_name_match(self):
        doc = parse("<Point><x>1.0</x><y>2.0</y></Point>")
        assert match_format(SCHEMA, doc.root) == "Point"
