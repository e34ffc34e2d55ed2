"""Metadata targets: pbio, python, java, c."""

import pytest

from repro.core.schema_compiler import compile_schema
from repro.core.targets import (
    available_targets, target_by_name,
)
from repro.core.targets.pbio_target import PBIOTarget
from repro.core.targets.python_target import (
    GENERATED_MODULE, PythonClassTarget,
)
from repro.core.targets.java_target import JavaSourceTarget
from repro.core.targets.c_target import CSourceTarget
from repro.errors import TargetError
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_32, X86_64
from repro.schema.parser import parse_schema_text

XSD = """
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
  <xsd:complexType name="Track">
    <xsd:element name="id" type="xsd:int" />
    <xsd:element name="mode" type="Mode" />
    <xsd:element name="origin" type="Point" />
    <xsd:element name="n" type="xsd:int" />
    <xsd:element name="path" type="Point" maxOccurs="*"
                 dimensionName="n" />
    <xsd:element name="label" type="xsd:string" />
  </xsd:complexType>
</xsd:schema>
"""


@pytest.fixture(scope="module")
def ir():
    return compile_schema(parse_schema_text(XSD))


class TestRegistry:
    def test_available(self):
        assert set(available_targets()) >= {"pbio", "python", "java",
                                            "c"}

    def test_unknown(self):
        with pytest.raises(TargetError, match="unknown"):
            target_by_name("cobol")

    def test_unknown_option_rejected(self, ir):
        with pytest.raises(TargetError, match="does not accept"):
            PBIOTarget().generate(ir, "Point", colour="blue")


class TestPBIOTarget:
    def test_generates_registerable_format(self, ir):
        token = PBIOTarget().generate(ir, "Track")
        ctx = IOContext(format_server=FormatServer())
        ctx.register(token.artifact)
        record = {"id": 1, "mode": "safe",
                  "origin": {"x": 0.0, "y": 0.0},
                  "path": [{"x": 1.0, "y": 2.0}], "label": "t"}
        out = ctx.roundtrip("Track", record)
        assert out == record | {"n": 1}

    def test_architecture_option(self, ir):
        t64 = PBIOTarget().generate(ir, "Point", architecture=X86_64)
        t32 = PBIOTarget().generate(ir, "Point",
                                    architecture=SPARC_32)
        assert t64.artifact.architecture is X86_64
        assert t32.artifact.architecture is SPARC_32

    def test_enum_table_attached(self, ir):
        token = PBIOTarget().generate(ir, "Track")
        assert token.artifact.enums["mode"] == ("fast", "safe")

    def test_subformats_in_details(self, ir):
        token = PBIOTarget().generate(ir, "Track")
        assert "Point" in token.details["subformats"]

    def test_type_strings(self, ir):
        token = PBIOTarget().generate(ir, "Track")
        fl = token.artifact.field_list
        assert fl["path"].type == "Point[n]"
        assert fl["mode"].type == "enumeration"
        assert fl["label"].type == "string"


class TestLayoutSharing:
    """A nested type is laid out once per (loaded IR, architecture),
    whichever targets and messages ask for it."""

    @pytest.fixture
    def fresh_ir(self):
        return compile_schema(parse_schema_text(XSD))

    def count_layouts(self, monkeypatch) -> list:
        from repro.core.targets import pbio_target
        calls = []

        def counting(specs, **kwargs):
            calls.append([spec[0] for spec in specs])
            return compute_layout(specs, **kwargs)
        compute_layout = pbio_target.compute_layout
        monkeypatch.setattr(pbio_target, "compute_layout", counting)
        return calls

    def test_one_layout_per_type_across_generates(self, fresh_ir,
                                                  monkeypatch):
        calls = self.count_layouts(monkeypatch)
        point = PBIOTarget().generate(fresh_ir, "Point")
        track = PBIOTarget().generate(fresh_ir, "Track")
        PBIOTarget().generate(fresh_ir, "Track")
        assert len(calls) == 2  # Point, Track: not 1 + 2 + 2
        assert track.artifact.field_list.subformat("Point") \
            is point.artifact.field_list
        assert track.details["subformats"]["Point"] \
            is point.artifact.field_list

    def test_per_architecture(self, fresh_ir, monkeypatch):
        calls = self.count_layouts(monkeypatch)
        for arch in (X86_64, SPARC_32, X86_64):
            token = PBIOTarget().generate(fresh_ir, "Track",
                                          architecture=arch)
            assert token.artifact.field_list.subformat("Point") \
                .architecture is arch
        assert len(calls) == 4

    def test_an_equal_but_distinct_architecture_is_laid_out_again(
            self, fresh_ir):
        import copy
        twin = copy.copy(X86_64)
        assert twin == X86_64 and twin is not X86_64
        PBIOTarget().generate(fresh_ir, "Track", architecture=X86_64)
        token = PBIOTarget().generate(fresh_ir, "Track",
                                      architecture=twin)
        assert token.artifact.architecture is twin

    def test_replacing_a_format_drops_the_layouts(self, fresh_ir):
        before = PBIOTarget().generate(fresh_ir, "Track")
        wider = compile_schema(parse_schema_text(XSD.replace(
            '<xsd:element name="y" type="xsd:double" />',
            '<xsd:element name="y" type="xsd:double" />'
            '<xsd:element name="z" type="xsd:double" />')))
        fresh_ir.add_format(wider.format("Point"))
        after = PBIOTarget().generate(fresh_ir, "Track")
        assert after.artifact == PBIOTarget().generate(
            wider, "Track").artifact
        assert after.artifact != before.artifact


class TestPythonTarget:
    def test_class_generated_and_installed(self, ir):
        token = PythonClassTarget().generate(ir, "Track")
        cls = token.artifact
        assert cls.__name__ == "Track"
        assert cls.FORMAT_NAME == "Track"
        module = __import__(GENERATED_MODULE, fromlist=["Track"])
        assert module.Track is cls

    def test_instances_and_record_bridge(self, ir):
        cls = PythonClassTarget().generate(ir, "Track").artifact
        point_cls = PythonClassTarget().generate(ir, "Point").artifact
        track = cls(id=7, mode="fast",
                    origin=point_cls(x=1.0, y=2.0),
                    path=[point_cls(x=3.0, y=4.0)], label="hello")
        record = track.to_record()
        assert record["origin"] == {"x": 1.0, "y": 2.0}
        assert record["n"] == 1  # sizing field auto-synced
        back = cls.from_record(record)
        assert back == track

    def test_defaults(self, ir):
        cls = PythonClassTarget().generate(ir, "Track").artifact
        track = cls()
        assert track.id == 0
        assert track.mode == "fast"  # first enum label
        assert track.path == []
        assert track.label is None

    def test_unknown_kwarg_rejected(self, ir):
        cls = PythonClassTarget().generate(ir, "Track").artifact
        with pytest.raises(TypeError, match="no fields"):
            cls(bogus=1)

    def test_slots_enforced(self, ir):
        cls = PythonClassTarget().generate(ir, "Point").artifact
        p = cls()
        with pytest.raises(AttributeError):
            p.z = 3.0

    def test_repr_and_eq(self, ir):
        cls = PythonClassTarget().generate(ir, "Point").artifact
        assert cls(x=1.0, y=2.0) == cls(x=1.0, y=2.0)
        assert cls(x=1.0, y=2.0) != cls(x=1.0, y=3.0)
        assert "x=1.0" in repr(cls(x=1.0, y=2.0))

    def test_pbio_integration(self, ir):
        """Generated class -> record -> PBIO -> record -> class."""
        cls = PythonClassTarget().generate(ir, "Point").artifact
        token = PBIOTarget().generate(ir, "Point")
        ctx = IOContext(format_server=FormatServer())
        ctx.register(token.artifact)
        wire = ctx.encode("Point", cls(x=2.5, y=-1.5).to_record())
        assert cls.from_record(ctx.decode(wire).record) == \
            cls(x=2.5, y=-1.5)


class TestJavaTarget:
    def test_source_shape(self, ir):
        token = JavaSourceTarget().generate(ir, "Track")
        source = token.artifact
        assert "public class Track implements java.io.Serializable" \
            in source
        assert "private String label;" in source
        assert "private Point origin;" in source
        assert "private Point[] path;" in source
        assert "public int getId()" in source
        assert "public void setId(int value)" in source

    def test_dependency_units(self, ir):
        token = JavaSourceTarget().generate(ir, "Track")
        assert set(token.details["units"]) == {"Point", "Track"}
        assert "public class Point" in token.details["units"]["Point"]

    def test_package_option(self, ir):
        token = JavaSourceTarget().generate(ir, "Point",
                                            package="org.example")
        assert token.artifact.startswith("package org.example;")

    def test_unsigned_widening(self, ir):
        # unsignedShort must widen to a type that can hold 65535
        xsd = XSD.replace('type="xsd:int" />',
                          'type="xsd:unsignedShort" />', 1)
        ir2 = compile_schema(parse_schema_text(xsd))
        token = JavaSourceTarget().generate(ir2, "Track")
        assert "private int id;" in token.artifact


class TestCTarget:
    def test_struct_matches_paper_fig2_shape(self, ir):
        source = CSourceTarget().generate(
            ir, "Track", architecture=SPARC_32).artifact
        assert "typedef struct _Track {" in source
        assert "char* label" in source
        assert "Point origin" in source
        assert "Point *path" in source
        assert "enum Mode { fast, safe };" in source

    def test_iofield_list_present(self, ir):
        source = CSourceTarget().generate(ir, "Track").artifact
        assert "IOField TrackFields[] = {" in source
        assert '{ "label", "string", 8, ' in source
        assert "{ NULL, NULL, 0, 0 }," in source

    def test_offsets_match_pbio_target(self, ir):
        c_src = CSourceTarget().generate(
            ir, "Point", architecture=X86_64).artifact
        token = PBIOTarget().generate(ir, "Point",
                                      architecture=X86_64)
        for field in token.artifact.field_list:
            assert (f'{{ "{field.name}", "{field.type}", '
                    f"{field.size}, {field.offset} }},") in c_src
