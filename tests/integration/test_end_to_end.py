"""Whole-stack scenarios: discovery -> binding -> transport."""

import threading

import pytest

from repro.core.toolkit import XMIT
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import publish_document
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_32, SPARC_V9, X86_32, X86_64
from repro.transport.connection import Connection
from repro.transport.inproc import channel_pair
from repro.transport.tcp import tcp_pair

XSD = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Telemetry">
    <xsd:element name="source" type="xsd:string" />
    <xsd:element name="seq" type="xsd:unsignedInt" />
    <xsd:element name="n" type="xsd:int" />
    <xsd:element name="samples" type="xsd:double" maxOccurs="*"
                 dimensionName="n" />
  </xsd:complexType>
</xsd:schema>
"""


def endpoint(arch, server, schema_source):
    """An application endpoint: XMIT-discovered formats + context."""
    ctx = IOContext(architecture=arch, format_server=server)
    xmit = XMIT()
    for name in xmit.load_url(schema_source):
        xmit.register_with_context(ctx, name)
    return ctx


class TestDiscoveryToWire:
    def test_http_discovery_then_binary_exchange(self):
        store = DocumentStore()
        store.put("/telemetry.xsd", XSD)
        server = FormatServer()
        with MetadataHTTPServer(store) as http_server:
            url = http_server.url_for("/telemetry.xsd")
            sender_ctx = endpoint(SPARC_32, server, url)
            receiver_ctx = endpoint(X86_64, server, url)
        a_ch, b_ch = tcp_pair()
        sender = Connection(sender_ctx, a_ch)
        receiver = Connection(receiver_ctx, b_ch)
        record = {"source": "gauge-7", "seq": 41,
                  "samples": [1.5, -2.25, 3.75]}
        sender.send("Telemetry", record)
        msg = receiver.receive(timeout=5)
        assert msg.record == record | {"n": 3}
        sender.close()
        receiver.close()

    @pytest.mark.parametrize("sender_arch", [SPARC_32, SPARC_V9,
                                             X86_32, X86_64],
                             ids=lambda a: a.name)
    def test_every_architecture_interoperates(self, sender_arch):
        url = publish_document("e2e-interop.xsd", XSD)
        server = FormatServer()
        sender_ctx = endpoint(sender_arch, server, url)
        receiver_ctx = endpoint(X86_64, server, url)
        a_ch, b_ch = channel_pair()
        sender = Connection(sender_ctx, a_ch)
        receiver = Connection(receiver_ctx, b_ch)
        record = {"source": "s", "seq": 2**32 - 1,
                  "samples": [0.125] * 7}
        sender.send("Telemetry", record)
        assert receiver.receive(timeout=5).record["samples"] == \
            [0.125] * 7

    def test_amortization_many_messages_one_registration(self):
        """The paper's core amortization claim, observed directly:
        one metadata negotiation no matter how many records flow."""
        url = publish_document("e2e-amortize.xsd", XSD)
        sender_ctx = endpoint(X86_64, FormatServer(), url)
        receiver_ctx = IOContext(format_server=FormatServer())
        a_ch, b_ch = channel_pair()
        sender = Connection(sender_ctx, a_ch)
        receiver = Connection(receiver_ctx, b_ch)

        received = []

        def recv_loop():
            while True:
                msg = receiver.receive(timeout=5)
                if msg is None:
                    return
                received.append(msg)

        def pump_loop():
            # sender services metadata requests until the channel dies
            try:
                while sender.receive(timeout=2) is not None:
                    pass
            except Exception:
                pass

        rt = threading.Thread(target=recv_loop)
        pt = threading.Thread(target=pump_loop)
        rt.start()
        pt.start()
        for i in range(25):
            sender.send("Telemetry", {"source": "s", "seq": i,
                                      "samples": []})
        # wait for delivery before closing: a BYE racing ahead of the
        # FMT_RSP would abort the receiver's negotiation
        import time
        deadline = time.monotonic() + 10
        while len(received) < 25 and time.monotonic() < deadline:
            time.sleep(0.01)
        sender.close()
        rt.join(10)
        pt.join(10)
        assert len(received) == 25
        assert receiver.negotiations == 1


class TestFormatChangePropagation:
    def test_refresh_propagates_to_live_context(self):
        name = "e2e-refresh.xsd"
        url = publish_document(name, XSD)
        xmit = XMIT()
        xmit.load_url(url)
        ctx = IOContext(format_server=FormatServer())
        xmit.register_with_context(ctx, "Telemetry")

        updated = XSD.replace(
            "</xsd:complexType>",
            '<xsd:element name="units" type="xsd:string" />'
            "</xsd:complexType>")
        publish_document(name, updated)

        changed = xmit.refresh(url)
        assert changed == ("Telemetry",)
        # old registration still decodes old records; the new format
        # registers alongside (restricted evolution, new name binding)
        ctx2 = IOContext(format_server=ctx.format_server)
        new_fmt = xmit.bind("Telemetry").artifact
        ctx2.register(new_fmt)
        wire = ctx2.encode(new_fmt, {
            "source": "s", "seq": 1, "samples": [], "units": "m"})
        out = ctx.decode_as(wire, "Telemetry")
        assert "units" not in out
        assert out["seq"] == 1

    def test_refresh_of_a_nested_type_reaches_the_messages_using_it(self):
        """Point gains a field; Msg's own definition is untouched but
        its records grow, and a live context that re-registers it must
        marshal the new layout."""
        name = "e2e-refresh-nested.xsd"
        nested = XSD.replace(
            "</xsd:schema>",
            '<xsd:complexType name="Point">'
            '<xsd:element name="x" type="xsd:double" />'
            '<xsd:element name="y" type="xsd:double" />'
            "</xsd:complexType>"
            '<xsd:complexType name="Msg">'
            '<xsd:element name="at" type="Point" />'
            "</xsd:complexType></xsd:schema>")
        url = publish_document(name, nested)
        xmit = XMIT()
        xmit.load_url(url)
        server = FormatServer()
        old_ctx = IOContext(format_server=server)
        old = xmit.register_with_context(old_ctx, "Msg")
        assert old.field_list.record_length == 16

        publish_document(name, nested.replace(
            '<xsd:element name="y" type="xsd:double" />',
            '<xsd:element name="y" type="xsd:double" />'
            '<xsd:element name="z" type="xsd:double" />'))
        assert xmit.refresh(url) == ("Point",)

        new_ctx = IOContext(format_server=server)
        new = xmit.register_with_context(new_ctx, "Msg")
        assert new.field_list.record_length == 24
        assert new.format_id != old.format_id
        record = {"at": {"x": 1.0, "y": 2.0, "z": 3.0}}
        wire = new_ctx.encode("Msg", record)
        # the old endpoint learns the new format from the server
        assert old_ctx.decode(wire).record == record
