"""The XMIT facade: discovery, binding, refresh propagation."""

import pytest

from repro.core.toolkit import XMIT
from repro.errors import XMITError
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import publish_document
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_32
from repro.schema.parser import parse_schema_text

XSD_V1 = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="SimpleData">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="size" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" maxOccurs="*"
                 dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
"""

XSD_V2 = XSD_V1.replace(
    "</xsd:complexType>",
    '  <xsd:element name="units" type="xsd:string" />\n'
    "</xsd:complexType>")

#: Msg nests Point directly, Outer nests it through Msg, Other not at all
XSD_NESTED = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Point">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="Msg">
    <xsd:element name="at" type="Point" />
  </xsd:complexType>
  <xsd:complexType name="Outer">
    <xsd:element name="msg" type="Msg" />
    <xsd:element name="n" type="xsd:int" />
  </xsd:complexType>
  <xsd:complexType name="Other">
    <xsd:element name="n" type="xsd:int" />
  </xsd:complexType>
</xsd:schema>
"""

XSD_NESTED_V2 = XSD_NESTED.replace(
    '<xsd:element name="y" type="xsd:double" />',
    '<xsd:element name="y" type="xsd:double" />'
    '<xsd:element name="z" type="xsd:double" />')


class TestDiscovery:
    def test_load_text(self):
        xmit = XMIT()
        assert xmit.load_text(XSD_V1) == ("SimpleData",)
        assert xmit.format_names == ("SimpleData",)

    def test_load_mem_url(self):
        url = publish_document("toolkit-t1.xsd", XSD_V1)
        xmit = XMIT()
        assert xmit.load_url(url) == ("SimpleData",)

    def test_load_http_url(self):
        store = DocumentStore()
        store.put("/f.xsd", XSD_V1)
        with MetadataHTTPServer(store) as server:
            xmit = XMIT()
            assert xmit.load_url(server.url_for("/f.xsd")) == \
                ("SimpleData",)

    def test_load_file_url(self, tmp_path):
        path = tmp_path / "f.xsd"
        path.write_text(XSD_V1)
        xmit = XMIT()
        assert xmit.load_url(f"file://{path}") == ("SimpleData",)

    def test_multiple_documents_merge(self):
        other = XSD_V1.replace("SimpleData", "OtherData")
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        xmit.load_text(other)
        assert set(xmit.format_names) == {"SimpleData", "OtherData"}


class TestBinding:
    def test_bind_unknown_format(self):
        with pytest.raises(XMITError, match="not been discovered"):
            XMIT().bind("Ghost")

    def test_bind_caches_tokens(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        assert xmit.bind("SimpleData") is xmit.bind("SimpleData")

    def test_bind_cache_distinguishes_options(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        a = xmit.bind("SimpleData", architecture=SPARC_32)
        b = xmit.bind("SimpleData")
        assert a is not b
        assert a.artifact.architecture is SPARC_32

    def test_register_with_context(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        ctx = IOContext(format_server=FormatServer())
        fmt = xmit.register_with_context(ctx, "SimpleData")
        assert ctx.lookup_format("SimpleData") is fmt
        record = {"timestep": 1, "data": [2.0]}
        assert ctx.roundtrip("SimpleData", record)["data"] == [2.0]

    def test_generators(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        assert "class SimpleData" in \
            xmit.bind("SimpleData", target="java").artifact
        assert "typedef struct _SimpleData" in \
            xmit.generate_c_source("SimpleData")
        cls = xmit.generate_python_class("SimpleData")
        assert cls.FORMAT_NAME == "SimpleData"


class TestRefresh:
    def test_refresh_unchanged_is_noop(self):
        url = publish_document("toolkit-r1.xsd", XSD_V1)
        xmit = XMIT()
        xmit.load_url(url)
        assert xmit.refresh(url) == ()

    def test_refresh_detects_change_and_notifies(self):
        url = publish_document("toolkit-r2.xsd", XSD_V1)
        xmit = XMIT()
        xmit.load_url(url)
        events = []
        xmit.subscribe(lambda ev, name, fmt: events.append((ev, name)))
        publish_document("toolkit-r2.xsd", XSD_V2)
        assert xmit.refresh(url) == ("SimpleData",)
        assert events == [("changed", "SimpleData")]
        assert "units" in xmit.ir.format("SimpleData").field_names()

    def test_refresh_invalidates_bindings(self):
        url = publish_document("toolkit-r3.xsd", XSD_V1)
        xmit = XMIT()
        xmit.load_url(url)
        before = xmit.bind("SimpleData")
        publish_document("toolkit-r3.xsd", XSD_V2)
        xmit.refresh(url)
        after = xmit.bind("SimpleData")
        assert before is not after
        assert "units" in after.artifact.field_list

    def test_refresh_invalidates_dependents(self):
        """Regression: only Point's own IR changes, but Msg and Outer
        nest it — their cached tokens (and layouts) held the old
        16-byte Point."""
        url = publish_document("toolkit-r5.xsd", XSD_NESTED)
        xmit = XMIT()
        xmit.load_url(url)
        before = {name: xmit.bind(name) for name in xmit.format_names}
        assert before["Msg"].artifact.field_list.record_length == 16
        publish_document("toolkit-r5.xsd", XSD_NESTED_V2)
        assert xmit.refresh(url) == ("Point",)
        fresh = XMIT()
        fresh.load_text(XSD_NESTED_V2)
        for name in ("Point", "Msg", "Outer"):
            after = xmit.bind(name)
            assert after is not before[name]
            assert after.artifact == fresh.bind(name).artifact
        assert xmit.bind("Msg").artifact.field_list.record_length == 24
        assert xmit.bind("Other") is before["Other"]

    def test_refresh_that_removes_a_nested_format(self):
        """Msg stays loaded (its own document did not change) but the
        Point it nests is gone: its token must not outlive that."""
        point, msg = XSD_NESTED.split('  <xsd:complexType name="Msg">')
        point_url = publish_document(
            "toolkit-r6-point.xsd", point + "</xsd:schema>")
        msg_url = publish_document(
            "toolkit-r6-msg.xsd",
            '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
            '<xsd:include schemaLocation="toolkit-r6-point.xsd" />'
            '<xsd:complexType name="Msg">' + msg)
        xmit = XMIT()
        xmit.load_url(point_url)
        xmit.load_url(msg_url)
        assert xmit.bind("Msg").artifact.field_list.record_length == 16
        publish_document("toolkit-r6-point.xsd", XSD_V1)
        assert "Point" in xmit.refresh(point_url)
        assert not xmit.ir.layouts
        with pytest.raises(XMITError, match="Point"):
            xmit.bind("Msg")

    def test_refresh_reports_added_formats(self):
        url = publish_document("toolkit-r4.xsd", XSD_V1)
        xmit = XMIT()
        xmit.load_url(url)
        extra = XSD_V1.replace(
            "</xsd:schema>",
            '<xsd:complexType name="Extra">'
            '<xsd:element name="x" type="xsd:int" /></xsd:complexType>'
            "</xsd:schema>")
        publish_document("toolkit-r4.xsd", extra)
        assert set(xmit.refresh(url)) == {"Extra"}

    def test_refresh_of_a_document_that_gains_its_first_format(self):
        """A URL that loaded with no complexType is not a first load
        when it changes: the formats it gains are added and notified."""
        empty = ('<xsd:schema xmlns:xsd="http://www.w3.org/2001/'
                 'XMLSchema"></xsd:schema>')
        url = publish_document("toolkit-r7.xsd", empty)
        xmit = XMIT()
        assert xmit.load_url(url) == ()
        events = []
        xmit.subscribe(lambda ev, name, fmt: events.append((ev, name)))
        publish_document("toolkit-r7.xsd", empty.replace(
            "</xsd:schema>",
            '<xsd:complexType name="P">'
            '<xsd:element name="x" type="xsd:int" /></xsd:complexType>'
            "</xsd:schema>"))
        assert xmit.refresh(url) == ("P",)
        assert events == [("added", "P")]


class TestOneChangePath:
    """``load_url`` past its TTL and ``refresh`` are one fetch -> diff
    -> notify path, and what it serves is what the document says."""

    @pytest.mark.parametrize("lazy", [False, True],
                             ids=["eager", "lazy"])
    def test_a_revert_is_a_change(self, lazy):
        """v1 -> v2 -> v1: the second v1 has a digest the registry has
        compiled before, and must bring back v1's IR, not keep v2's."""
        path = f"toolkit-revert-{lazy}.xsd"
        url = publish_document(path, XSD_V1)
        xmit = XMIT(lazy=lazy)
        xmit.load_url(url)
        events = []
        xmit.subscribe(lambda ev, name, fmt: events.append((ev, name)))
        publish_document(path, XSD_V2)
        assert xmit.refresh(url) == ("SimpleData",)
        assert len(xmit.bind("SimpleData").artifact.field_list) == 4
        publish_document(path, XSD_V1)
        assert xmit.refresh(url) == ("SimpleData",)
        assert events == [("changed", "SimpleData")] * 2
        assert xmit.ir.format("SimpleData").field_names() == \
            ("timestep", "size", "data")
        assert len(xmit.bind("SimpleData").artifact.field_list) == 3

    def test_a_listener_binds_the_new_layout(self):
        """Bindings are dropped before any user listener runs."""
        url = publish_document("toolkit-listener.xsd", XSD_V1)
        xmit = XMIT()
        xmit.load_url(url)
        xmit.bind("SimpleData")
        seen = []
        xmit.subscribe(lambda ev, name, fmt: seen.append(
            xmit.bind(name).artifact.field_list.names()))
        publish_document("toolkit-listener.xsd", XSD_V2)
        xmit.refresh(url)
        assert seen == [("timestep", "size", "data", "units")]

    def test_load_url_past_its_ttl_is_a_refresh(self):
        url = publish_document("toolkit-ttl.xsd", XSD_V1)
        xmit = XMIT(cache_ttl=0.0)
        xmit.load_url(url)
        before = xmit.bind("SimpleData")
        events = []
        xmit.subscribe(lambda ev, name, fmt: events.append((ev, name)))
        publish_document("toolkit-ttl.xsd", XSD_V2)
        assert xmit.load_url(url) == ("SimpleData",)
        assert events == [("changed", "SimpleData")]
        after = xmit.bind("SimpleData")
        assert after is not before
        assert "units" in after.artifact.field_list

    @pytest.mark.parametrize("lazy", [False, True],
                             ids=["eager", "lazy"])
    def test_a_second_url_redefining_a_bound_name_is_a_change(self, lazy):
        """A URL's first load that redefines a format another URL
        served drops the stale binding and says so; one that
        redefines nothing fires no event."""
        point = ('<xsd:schema xmlns:xsd="http://www.w3.org/2001/'
                 'XMLSchema"><xsd:complexType name="P">{}'
                 '</xsd:complexType></xsd:schema>')
        field = '<xsd:element name="{}" type="xsd:int" />'
        xmit = XMIT(lazy=lazy)
        xmit.load_url(publish_document(f"toolkit-p-a-{lazy}.xsd",
                                       point.format(field.format("x"))))
        assert xmit.bind("P").artifact.field_list.names() == ("x",)
        events = []
        xmit.subscribe(lambda ev, name, fmt: events.append((ev, name)))
        xy = point.format(field.format("x") + field.format("y"))
        b = publish_document(f"toolkit-p-b-{lazy}.xsd", xy)
        assert xmit.load_url(b) == ("P",)
        assert events == [("changed", "P")]
        assert xmit.bind("P").artifact.field_list.names() == ("x", "y")
        c = publish_document(f"toolkit-p-c-{lazy}.xsd", xy)
        assert xmit.load_url(c) == ("P",)  # same IR: nothing changed
        assert events == [("changed", "P")]


class TestExport:
    def test_export_round_trips(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        text = xmit.export_schema()
        schema = parse_schema_text(text)
        assert "SimpleData" in schema.complex_types
        ct = schema.complex_type("SimpleData")
        assert ct.element("data").array.length_field == "size"

    def test_export_subset(self):
        xmit = XMIT()
        xmit.load_text(XSD_V1)
        xmit.load_text(XSD_V1.replace("SimpleData", "Other"))
        text = xmit.export_schema(["Other"])
        schema = parse_schema_text(text)
        assert set(schema.complex_types) == {"Other"}

    def test_export_feeds_another_toolkit(self):
        """Publish-and-rediscover loop: XMIT A exports, XMIT B loads."""
        a = XMIT()
        a.load_text(XSD_V1)
        url = publish_document("toolkit-x1.xsd", a.export_schema())
        b = XMIT()
        assert b.load_url(url) == ("SimpleData",)
        assert b.ir.format("SimpleData") == a.ir.format("SimpleData")
