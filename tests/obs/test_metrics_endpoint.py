"""The live exposure paths: GET /metrics over a real socket and the
STATS_REQ/STATS_RSP frames on a broadcast publisher.

The acceptance check: after exercising discovery, codec and transport,
one scrape must contain at least one counter, one gauge and one
histogram from each of the three subsystems.
"""

from __future__ import annotations

import json
import socket
import urllib.request

from repro import obs
from repro.core.toolkit import XMIT
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import publish_document
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.connection import Connection
from repro.transport.messages import Frame, FrameType, frame_bytes
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames

XSD = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Reading">
    <xsd:element name="station" type="xsd:integer" />
    <xsd:element name="level" type="xsd:float" />
  </xsd:complexType>
</xsd:schema>
"""


def exercise_all_subsystems() -> IOContext:
    """Discovery (XMIT over a mem: URL), codec (encode/decode), and
    transport (one publisher, one subscriber)."""
    url = publish_document("obs-endpoint.xsd", XSD)
    xmit = XMIT()
    xmit.load_url(url)
    ctx = IOContext(format_server=FormatServer())
    xmit.register_with_context(ctx, "Reading")
    for station in range(32):
        wire = ctx.encode("Reading", {"station": station,
                                      "level": 1.5})
        ctx.decode(wire)
    with BroadcastPublisher(ctx) as pub:
        sub_ctx = IOContext(format_server=FormatServer())
        with Connection(sub_ctx, TCPChannel.connect(
                pub.host, pub.port)) as conn:
            pub.wait_for_subscribers(1, timeout=5)
            pub.publish("Reading", {"station": 1, "level": 2.0})
            pub.flush(timeout=5)
            msg = conn.receive(timeout=5)
            assert msg is not None and msg.format_name == "Reading"
    return ctx


def scrape(server: MetadataHTTPServer, path: str) -> tuple[int, bytes]:
    request = urllib.request.Request(server.url_for(path))
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read()


class TestMetricsEndpoint:
    def test_prometheus_scrape_covers_three_subsystems(self):
        exercise_all_subsystems()
        with MetadataHTTPServer(DocumentStore()) as server:
            status, body = scrape(server, "/metrics")
        assert status == 200
        text = body.decode("utf-8")

        # discovery: counter + histogram
        assert "# TYPE repro_discovery_events_total counter" in text
        assert 'repro_discovery_events_total{event="compiles"}' in text
        assert "repro_discovery_compile_seconds_bucket" in text
        # codec: counter + histogram (sampled marshal phase)
        assert 'repro_codec_events_total{event="records_encoded"}' \
            in text
        assert "repro_phase_seconds_bucket" in text
        # transport: gauge + counters + histogram
        assert "# TYPE repro_transport_clients gauge" in text
        assert 'repro_transport_frames_total{direction="out"}' in text
        assert "repro_transport_sendmsg_batch_frames_bucket" in text
        # broadcast counters rode along
        assert 'repro_broadcast_events_total{' \
            'event="messages_broadcast"}' in text

    def test_json_scrape_parses_and_matches_shape(self):
        with MetadataHTTPServer(DocumentStore()) as server:
            status, body = scrape(server, "/metrics.json")
        assert status == 200
        snapshot = obs.parse_json(body)
        assert "repro_discovery_events_total" in snapshot

    def test_metrics_can_be_disabled_per_server(self):
        store = DocumentStore()
        store.put("/metrics", "<not-the-registry/>")
        with MetadataHTTPServer(store, metrics=False) as server:
            status, body = scrape(server, "/metrics")
        assert status == 200
        assert body == b"<not-the-registry/>"

    def test_documents_still_served(self):
        store = DocumentStore()
        store.put("/f.xsd", XSD)
        with MetadataHTTPServer(store) as server:
            status, body = scrape(server, "/f.xsd")
        assert status == 200
        assert b"Reading" in body

    def test_http_requests_counter_moves(self):
        from repro.obs.metrics import HTTP_REQUESTS
        series = HTTP_REQUESTS.labels(status="200")
        before = series.value
        with MetadataHTTPServer(DocumentStore()) as server:
            scrape(server, "/metrics")
        assert series.value > before


class TestStatsFrame:
    def test_stats_req_returns_snapshot(self):
        ctx = IOContext(format_server=FormatServer())
        ctx.register_layout("Reading", [("station", "integer"),
                                        ("level", "float")])
        with BroadcastPublisher(ctx) as pub:
            with socket.create_connection((pub.host, pub.port),
                                          timeout=5) as sock:
                pub.wait_for_subscribers(1, timeout=5)
                pub.publish("Reading", {"station": 7, "level": 0.5})
                sock.sendall(frame_bytes(FrameType.STATS_REQ, b""))
                sock.settimeout(5)
                buffer = bytearray()
                reply: Frame | None = None
                while reply is None:
                    chunk = sock.recv(65536)
                    assert chunk, "publisher closed before STATS_RSP"
                    buffer.extend(chunk)
                    for frame in iter_frames(buffer):
                        if frame.type == FrameType.STATS_RSP:
                            reply = frame
                            break
        payload = json.loads(reply.payload.decode("utf-8"))
        assert set(payload) == {"metrics", "publisher"}
        assert payload["publisher"]["messages_broadcast"] >= 1
        snapshot = obs.parse_json(json.dumps(payload["metrics"]))
        assert "repro_broadcast_events_total" in snapshot
