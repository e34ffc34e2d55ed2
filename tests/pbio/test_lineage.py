"""Lineage registry, server-side negotiation, context evolution and
the sender-side DownConverter — the version-skew machinery the fleet
scenario suite (tests/integration/test_evolution_fleet.py) exercises
end to end."""

import pytest

from repro.errors import (
    ConversionError, FormatRegistrationError, UnknownFormatError,
)
from repro.pbio.context import IOContext
from repro.pbio.evolution import (
    DownConverter, down_converter,
)
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.pbio.lineage import LineageRegistry
from repro.pbio.machine import NATIVE

V1 = [("timestep", "integer"), ("size", "integer"),
      ("data", "float[size]")]
V2 = V1 + [("units", "string")]
V3 = V2 + [("quality", "float", 8)]

REC_V2 = {"timestep": 9, "data": [1.5, -2.5, 4.0], "units": "m/s"}
REC_V3 = REC_V2 | {"quality": 0.75}


def fmt(specs, name="Grid", architecture=NATIVE) -> IOFormat:
    layout = compute_layout(specs, architecture=architecture)
    return IOFormat(name, layout.field_list)


@pytest.fixture
def versions():
    return fmt(V1), fmt(V2), fmt(V3)


class TestLineageRegistry:
    def test_chain_grows_oldest_first(self, versions):
        v1, v2, v3 = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v2, v3)
        chain = reg.chain("Grid")
        assert chain == (v1.format_id, v2.format_id, v3.format_id)
        assert chain[-1] == v3.format_id
        assert chain.index(v1.format_id) == 0
        assert reg.chain("Nope") == ()

    def test_append_is_idempotent_at_tail(self, versions):
        v1, v2, _ = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v1, v2)
        assert len(reg.chain("Grid")) == 2

    def test_rerecording_earlier_link_is_a_no_op(self, versions):
        # a second context sharing the server replays v1 -> v2 after
        # the chain has already grown to v3
        v1, v2, v3 = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v2, v3)
        reg.append(v1, v2)
        assert reg.chain("Grid") == (v1.format_id, v2.format_id,
                                     v3.format_id)

    def test_name_change_rejected(self, versions):
        v1, _, _ = versions
        other = fmt(V2, name="Other")
        reg = LineageRegistry()
        with pytest.raises(FormatRegistrationError,
                           match="keep the format name"):
            reg.append(v1, other)

    def test_field_removal_rejected(self, versions):
        v1, _, _ = versions
        shrunk = fmt([("timestep", "integer")])
        reg = LineageRegistry()
        with pytest.raises(FormatRegistrationError,
                           match="not a restricted evolution"):
            reg.append(v1, shrunk)

    def test_only_tail_evolves(self, versions):
        v1, v2, v3 = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v2, v3)
        with pytest.raises(FormatRegistrationError,
                           match="latest version"):
            reg.append(v1, fmt(V1 + [("fork", "integer")]))

    def test_devolution_rejected(self, versions):
        v1, v2, v3 = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v2, v3)
        # going back down the chain removes fields, which the
        # restricted-evolution rule itself forbids
        with pytest.raises(FormatRegistrationError,
                           match="not a restricted evolution"):
            reg.append(v3, v1)

    def test_highest_common(self, versions):
        v1, v2, v3 = versions
        reg = LineageRegistry()
        reg.append(v1, v2)
        reg.append(v2, v3)
        offered = {v1.format_id, v2.format_id}
        assert reg.highest_common("Grid", offered) == v2.format_id
        assert reg.highest_common("Grid", [v1.format_id]) \
            == v1.format_id
        assert reg.highest_common("Grid", []) is None
        assert reg.highest_common("Unknown", offered) is None

    def test_ensure_root_keeps_established_root(self, versions):
        # a same-digest append roots an unseen name at that version and
        # leaves an established root where it is
        v1, v2, _ = versions
        reg = LineageRegistry()
        assert reg.append(v1, v1) == v1.format_id
        assert reg.chain("Grid") == (v1.format_id,)
        reg.append(v1, v2)
        assert reg.append(v2, v2) == v2.format_id
        assert reg.chain("Grid") == (v1.format_id, v2.format_id)


class TestFormatServerNegotiation:
    def test_register_evolution_registers_both(self, versions):
        v1, v2, _ = versions
        server = FormatServer()
        assert server.register_evolution(v1, v2) == v2.format_id
        assert server.lookup(v1.format_id) == v1
        assert server.lookup(v2.format_id) == v2
        assert server.lineage("Grid") == (v1.format_id, v2.format_id)

    def test_negotiate_picks_newest_common(self, versions):
        v1, v2, v3 = versions
        server = FormatServer()
        server.register_evolution(v1, v2)
        server.register_evolution(v2, v3)
        assert server.negotiate(
            "Grid", [v1.format_id, v2.format_id]) == v2.format_id
        assert server.negotiate("Grid", [v1.format_id]) == v1.format_id
        assert server.negotiate(
            "Grid", [fmt(V1, name="X").format_id]) is None

    def test_negotiate_without_lineage_falls_back(self, versions):
        v1, _, _ = versions
        server = FormatServer()
        server.register(v1)
        assert server.negotiate("Grid", [v1.format_id]) == v1.format_id
        assert server.negotiate("Other", [v1.format_id]) is None


class TestContextEvolution:
    def test_register_evolution_rebinds_name(self, versions):
        v1, v2, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        ctx.register_evolution(v2)
        assert ctx.lookup_format("Grid") == v2
        assert ctx.decodable_versions("Grid") == (v1.format_id,
                                                  v2.format_id)
        assert ctx.version_for("Grid", v1.format_id) == v1

    def test_first_version_is_plain_registration(self, versions):
        v1, _, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register_evolution(v1)
        assert ctx.decodable_versions("Grid") == (v1.format_id,)

    def test_encode_uses_newest_version(self, versions):
        v1, v2, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        ctx.register_evolution(v2)
        wire = ctx.encode("Grid", REC_V2)
        assert ctx.decode(wire).format_id == v2.format_id

    def test_illegal_evolution_rejected(self, versions):
        v1, _, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        with pytest.raises(FormatRegistrationError):
            ctx.register_evolution(fmt([("timestep", "integer")]))

    def test_unregister_clears_versions(self, versions):
        v1, v2, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        ctx.register_evolution(v2)
        ctx.unregister("Grid")
        with pytest.raises(UnknownFormatError):
            ctx.decodable_versions("Grid")

    def test_version_for_unknown_raises(self, versions):
        v1, v2, _ = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        with pytest.raises(UnknownFormatError):
            ctx.version_for("Grid", v2.format_id)


class TestDownConverter:
    def test_record_projection_drops_appended(self, versions):
        v1, _, v3 = versions
        conv = DownConverter(v3, v1)
        out = conv.convert_record(REC_V3)
        assert set(out) == {"timestep", "data"}

    def test_encode_record_decodes_natively(self, versions):
        v1, _, v3 = versions
        ctx = IOContext(format_server=FormatServer())
        ctx.register(v1)
        wire = DownConverter(v3, v1).encode_record(REC_V3)
        decoded = ctx.decode(wire)
        assert decoded.format_id == v1.format_id
        assert decoded.record == {"timestep": 9, "size": 3,
                                  "data": [1.5, -2.5, 4.0]}

    def test_convert_wire_roundtrip(self, versions):
        v1, _, v3 = versions
        sender = IOContext(format_server=FormatServer())
        sender.register(v3)
        receiver = IOContext(format_server=FormatServer())
        receiver.register(v1)
        new_wire = sender.encode("Grid", REC_V3)
        old_wire = DownConverter(v3, v1).convert_wire(new_wire)
        assert receiver.decode(old_wire).record["data"] == \
            [1.5, -2.5, 4.0]

    def test_convert_wire_rejects_other_format(self, versions):
        v1, v2, v3 = versions
        sender = IOContext(format_server=FormatServer())
        sender.register(v2)
        wire = sender.encode("Grid", REC_V2)
        with pytest.raises(ConversionError, match="expects"):
            DownConverter(v3, v1).convert_wire(wire)

    def test_incompatible_pair_rejected(self, versions):
        v1, _, _ = versions
        shrunk = fmt([("timestep", "integer")])
        with pytest.raises(ConversionError):
            DownConverter(shrunk, v1)
        with pytest.raises(ConversionError):
            DownConverter(fmt(V1, name="Other"), v1)

    def test_identity(self, versions):
        v1, _, _ = versions
        conv = DownConverter(v1, v1)
        assert conv.is_identity
        assert conv.convert_record(REC_V3)["units"] == "m/s"

    def test_process_wide_cache_shares_plans(self, versions):
        v1, _, v3 = versions
        assert down_converter(v3, v1) is down_converter(v3, v1)
        assert down_converter(v3, v1) is not down_converter(v3, v3)
