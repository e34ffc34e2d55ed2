"""Client-customized format views (runtime type extension)."""

import pytest

from repro.core.toolkit import XMIT
from repro.core.views import derive_view, view_conversion_names
from repro.errors import XMITError
from repro.hydrology.formats import hydrology_xsd_for
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer


@pytest.fixture
def xmit():
    toolkit = XMIT()
    toolkit.load_text(hydrology_xsd_for("GridMeta", "SimpleData"))
    return toolkit


class TestDeriveView:
    def test_field_subset(self, xmit):
        view = derive_view(xmit.ir, "GridMeta",
                           fields=["timestep", "min_depth",
                                   "max_depth"])
        assert view.name == "GridMetaView"
        assert view.field_names() == ("timestep", "min_depth",
                                      "max_depth")

    def test_order_follows_base(self, xmit):
        view = derive_view(xmit.ir, "GridMeta",
                           fields=["max_depth", "timestep"])
        assert view.field_names() == ("timestep", "max_depth")

    def test_sizing_fields_pulled_in(self, xmit):
        view = derive_view(xmit.ir, "SimpleData", fields=["data"])
        assert set(view.field_names()) == {"size", "data"}

    def test_drop_arrays_removes_orphan_sizers(self, xmit):
        view = derive_view(xmit.ir, "SimpleData", drop_arrays=True)
        assert view.field_names() == ("timestep",)

    def test_reduce_floats(self, xmit):
        xmit.load_text("""
        <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
          <xsd:complexType name="Precise">
            <xsd:element name="a" type="xsd:double" />
            <xsd:element name="b" type="xsd:float" />
          </xsd:complexType>
        </xsd:schema>""")
        view = derive_view(xmit.ir, "Precise", reduce_floats=True)
        assert view.field("a").type.bits == 32
        assert view.field("b").type.bits == 32

    def test_unknown_field_rejected(self, xmit):
        with pytest.raises(XMITError, match="unknown fields"):
            derive_view(xmit.ir, "GridMeta", fields=["bogus"])

    def test_empty_view_rejected(self, xmit):
        with pytest.raises(XMITError, match="no fields"):
            derive_view(xmit.ir, "GridMeta", fields=[])

    def test_shadowing_rejected(self, xmit):
        with pytest.raises(XMITError, match="shadow"):
            derive_view(xmit.ir, "GridMeta", fields=["timestep"],
                        name="GridMeta")

    def test_conversion_names(self, xmit):
        view = derive_view(xmit.ir, "GridMeta", fields=["timestep"])
        kept, dropped = view_conversion_names(
            xmit.ir.format("GridMeta"), view)
        assert kept == ("timestep",)
        assert "gauges" in dropped


class TestHandheldScenario:
    """The paper's future-work scenario end to end: a handheld binds a
    reduced view and consumes full records from unmodified peers."""

    def test_full_records_project_onto_view(self, xmit):
        server = FormatServer()
        # unmodified sender: full GridMeta
        sender = IOContext(format_server=server)
        xmit.register_with_context(sender, "GridMeta")

        # handheld: derives and binds a 3-field view
        view = derive_view(xmit.ir, "GridMeta",
                           fields=["timestep", "min_depth",
                                   "max_depth"],
                           name="GridMetaHandheld")
        xmit.ir.add_format(view)
        handheld = IOContext(format_server=server)
        xmit.register_with_context(handheld, "GridMetaHandheld")

        full_record = {
            "timestep": 3, "nx": 64, "ny": 64, "west": 0.0,
            "east": 1920.0, "south": 0.0, "north": 1920.0,
            "cell_size": 30.0, "no_data": -9999.0,
            "min_depth": 0.25, "max_depth": 2.5, "mean_depth": 0.7,
            "total_volume": 4032.0, "gauge_count": 24,
            "gauges": [0.0] * 24}
        wire = sender.encode("GridMeta", full_record)
        small = handheld.decode_as(wire, "GridMetaHandheld")
        assert small == {"timestep": 3, "min_depth": 0.25,
                         "max_depth": 2.5}

    def test_view_binds_through_all_targets(self, xmit):
        view = derive_view(xmit.ir, "GridMeta",
                           fields=["timestep", "mean_depth"],
                           name="TinyMeta")
        xmit.ir.add_format(view)
        assert "TinyMeta" in xmit.generate_c_source("TinyMeta")
        assert "class TinyMeta" in \
            xmit.bind("TinyMeta", target="java").artifact
        cls = xmit.generate_python_class("TinyMeta")
        assert cls.FIELD_NAMES == ("timestep", "mean_depth")
