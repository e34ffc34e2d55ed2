"""Failure injection: corrupt records, broken metadata, dead peers."""

import struct

import pytest

from repro.errors import (
    DecodeError, DiscoveryError, EncodeError, ProtocolError,
    SchemaParseError, TransportError, UnknownFormatError,
    XMLWellFormednessError,
)
from repro.core.toolkit import XMIT
from repro.http.retry import RetryPolicy
from repro.http.urls import publish_document, register_resolver
from repro.pbio.context import IOContext
from repro.pbio.encode import HEADER_LEN
from repro.pbio.format_server import FormatServer
from repro.testing import (
    DROP, FAIL, GARBAGE, HTTP_404, HTTP_500, TRUNCATE,
    FaultInjectingResolver, FaultyHTTPServer,
)
from repro.transport.connection import Connection
from repro.transport.inproc import channel_pair
from repro.transport.messages import Frame, FrameType

from tests.conftest import SIMPLE_DATA_SPECS, SIMPLE_DATA_XSD

#: tiny deterministic delays so fault storms resolve in milliseconds
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.001,
                         max_delay=0.01, seed=1)


@pytest.fixture
def ctx():
    context = IOContext(format_server=FormatServer())
    context.register_layout("SimpleData", SIMPLE_DATA_SPECS)
    return context


class TestCorruptRecords:
    def test_flipped_magic(self, ctx):
        wire = bytearray(ctx.encode("SimpleData",
                                    {"timestep": 1, "data": [1.0]}))
        wire[0] ^= 0xFF
        with pytest.raises(EncodeError, match="magic"):
            ctx.decode(bytes(wire))

    def test_corrupt_format_id(self, ctx):
        wire = bytearray(ctx.encode("SimpleData",
                                    {"timestep": 1, "data": [1.0]}))
        wire[4] ^= 0xFF
        with pytest.raises(UnknownFormatError):
            ctx.decode(bytes(wire))

    def test_corrupt_array_pointer(self, ctx):
        wire = bytearray(ctx.encode("SimpleData",
                                    {"timestep": 1, "data": [1.0]}))
        # the data pointer lives at body offset 8 (LP64 layout)
        struct.pack_into("<Q", wire, HEADER_LEN + 8, 1 << 30)
        with pytest.raises(DecodeError, match="outside"):
            ctx.decode(bytes(wire))

    def test_truncation_every_prefix_is_safe(self, ctx):
        """No prefix of a valid record may crash the decoder with
        anything but a typed error."""
        wire = ctx.encode("SimpleData",
                          {"timestep": 1, "data": [1.0, 2.0]})
        for cut in range(len(wire)):
            with pytest.raises((DecodeError, EncodeError,
                                UnknownFormatError)):
                ctx.decode(wire[:cut])

    def test_header_lies_about_length(self, ctx):
        wire = bytearray(ctx.encode("SimpleData",
                                    {"timestep": 1, "data": []}))
        struct.pack_into(">I", wire, 12, 10_000)
        with pytest.raises(DecodeError, match="truncated"):
            ctx.decode(bytes(wire))


class TestBrokenMetadata:
    def test_malformed_xml_document(self):
        url = publish_document("broken-1.xsd", "<xsd:schema")
        with pytest.raises(XMLWellFormednessError):
            XMIT().load_url(url)

    def test_wrong_document_kind(self):
        url = publish_document("broken-2.xsd", "<html><body/></html>")
        with pytest.raises(SchemaParseError):
            XMIT().load_url(url)

    def test_unreachable_url(self):
        with pytest.raises(DiscoveryError):
            XMIT().load_url("mem:never-published.xsd")

    def test_flaky_resolver_absorbed_by_retry(self):
        calls = {"n": 0}

        def flaky(url):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DiscoveryError("transient fetch failure")
            return SIMPLE_DATA_XSD.encode()

        register_resolver("flaky", flaky)
        # the toolkit's default policy retries the transient failure
        xmit = XMIT(retry=FAST_RETRY)
        assert xmit.load_url("flaky:doc") == ("SimpleData",)
        assert calls["n"] == 2
        assert xmit.discovery_stats.retries == 1

    def test_corrupted_server_metadata(self):
        server = FormatServer()
        with pytest.raises(UnknownFormatError):
            server.import_bytes(b"PBIOFMT\t1\nname\tX\ngarbage")


class TestProtocolViolations:
    def test_peer_requests_unknown_format(self, ctx):
        a_ch, b_ch = channel_pair()
        conn = Connection(ctx, a_ch)
        b_ch.send(Frame(FrameType.FMT_REQ, b"\x00" * 8))
        b_ch.send(Frame(FrameType.DATA, b"ignored"))
        with pytest.raises(ProtocolError, match="unknown format"):
            conn.receive(timeout=2)

    def test_garbage_frame_type(self, ctx):
        a_ch, b_ch = channel_pair()
        conn = Connection(ctx, a_ch)
        # raw bytes with an invalid type tag
        import queue
        # bypassed construction (a Frame is a tuple: no typed field)
        b_ch._outbox.put(tuple.__new__(Frame, (None, b"")))
        # a frame with invalid type cannot be built through the API;
        # instead check decode path via messages.decode_frame
        from repro.transport.messages import decode_frame
        with pytest.raises(ProtocolError):
            decode_frame(bytes([99]) + b"x")

    def test_send_on_closed_connection(self, ctx):
        a_ch, _b_ch = channel_pair()
        conn = Connection(ctx, a_ch)
        conn.close()
        with pytest.raises(TransportError):
            conn.send("SimpleData", {"timestep": 1, "data": []})

    def test_double_close_is_safe(self, ctx):
        a_ch, _b_ch = channel_pair()
        conn = Connection(ctx, a_ch)
        conn.close()
        conn.close()


class TestResilientDiscovery:
    """End-to-end drive of repro.testing.faults through the registry."""

    def _resolver(self, scheme):
        return FaultInjectingResolver(scheme, slow_delay=0.001) \
            .install()

    def test_flaky_then_healthy_within_retry_budget(self):
        resolver = self._resolver("flt-a")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD,
                               faults=[FAIL, FAIL])
        xmit = XMIT(retry=FAST_RETRY)
        assert xmit.load_url(url) == ("SimpleData",)
        stats = xmit.discovery_stats
        assert stats.fetch_attempts == 3
        assert stats.retries == 2
        assert stats.fetch_failures == 0
        assert resolver.calls["doc.xsd"] == 3

    def test_retry_budget_exhausted_raises(self):
        resolver = self._resolver("flt-b")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD,
                               faults=[FAIL, FAIL, FAIL])
        xmit = XMIT(retry=FAST_RETRY)
        with pytest.raises(DiscoveryError):
            xmit.load_url(url)
        assert xmit.discovery_stats.fetch_attempts == 3
        assert xmit.discovery_stats.fetch_failures == 1

    def test_permanently_dead_serves_last_known_good(self):
        resolver = self._resolver("flt-c")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD)
        xmit = XMIT(retry=FAST_RETRY)
        xmit.load_url(url)
        xmit.registry.cache_ttl = 0.0        # force real refetches
        xmit.registry.negative_ttl = 0.0
        resolver.set_faults("doc.xsd", [FAIL], repeat_last=True)

        # a failing refresh is a counted no-op, not an exception
        assert xmit.refresh(url) == ()
        assert xmit.discovery_stats.fallbacks == 1
        # formats remain resolvable and bindable
        assert xmit.load_url(url) == ("SimpleData",)
        ctx = IOContext(format_server=FormatServer())
        fmt = xmit.register_with_context(ctx, "SimpleData")
        wire = ctx.encode(fmt, {"timestep": 7, "data": [1.0]})
        assert ctx.decode(wire).record["timestep"] == 7

    def test_counters_match_injected_fault_sequence(self):
        resolver = self._resolver("flt-d")
        # 500 then truncated body then healthy: all retryable
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD,
                               faults=[HTTP_500, TRUNCATE])
        xmit = XMIT(retry=FAST_RETRY)
        assert xmit.load_url(url) == ("SimpleData",)
        stats = xmit.discovery_stats
        assert stats.fetch_attempts == 3
        assert stats.retries == 2
        assert stats.cache_misses == 1 and stats.cache_hits == 0
        assert stats.compiles == 1
        assert resolver.script_for("doc.xsd").history == \
            [HTTP_500, TRUNCATE, "ok"]
        # a reload inside the TTL is a pure cache hit: no new fetch
        assert xmit.load_url(url) == ("SimpleData",)
        assert stats.fetch_attempts == 3
        assert stats.cache_hits == 1

    def test_injected_404_is_not_retried(self):
        resolver = self._resolver("flt-e")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD,
                               faults=[HTTP_404])
        xmit = XMIT(retry=FAST_RETRY)
        with pytest.raises(DiscoveryError):
            xmit.load_url(url)
        assert xmit.discovery_stats.fetch_attempts == 1
        assert xmit.discovery_stats.retries == 0

    def test_garbage_bytes_are_not_retried(self):
        """A fetch that *succeeds* but yields a malformed document is
        a compile failure, not a transient network fault."""
        resolver = self._resolver("flt-f")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD,
                               faults=[GARBAGE])
        xmit = XMIT(retry=FAST_RETRY)
        with pytest.raises(XMLWellFormednessError):
            xmit.load_url(url)
        assert resolver.calls["doc.xsd"] == 1

    def test_garbage_refresh_falls_back(self):
        resolver = self._resolver("flt-g")
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD)
        xmit = XMIT(retry=FAST_RETRY)
        xmit.load_url(url)
        xmit.registry.cache_ttl = 0.0
        resolver.set_faults("doc.xsd", [GARBAGE], repeat_last=True)
        assert xmit.refresh(url) == ()
        assert xmit.discovery_stats.fallbacks == 1
        assert "SimpleData" in xmit.format_names

    def test_negative_cache_fails_fast(self):
        resolver = self._resolver("flt-h")
        url = resolver.publish("missing.xsd", SIMPLE_DATA_XSD,
                               faults=[FAIL], repeat_last=True)
        xmit = XMIT(retry=FAST_RETRY)
        with pytest.raises(DiscoveryError):
            xmit.load_url(url)
        fetches = resolver.calls["missing.xsd"]
        # within the negative TTL the dead URL is not fetched again
        with pytest.raises(DiscoveryError, match="negative-cached"):
            xmit.load_url(url)
        assert resolver.calls["missing.xsd"] == fetches
        assert xmit.discovery_stats.negative_hits == 1


class TestFaultyHTTPServerDiscovery:
    """Socket-level faults against the real HTTP client."""

    def _server(self, faults, **kwargs):
        from repro.http.server import DocumentStore
        store = DocumentStore()
        store.put("/f.xsd", SIMPLE_DATA_XSD)
        return FaultyHTTPServer(store, faults=faults,
                                slow_delay=0.001, **kwargs)

    def test_drop_then_500_then_healthy(self):
        with self._server([DROP, HTTP_500]) as server:
            xmit = XMIT(retry=FAST_RETRY)
            url = server.url_for("/f.xsd")
            assert xmit.load_url(url) == ("SimpleData",)
            assert xmit.discovery_stats.fetch_attempts == 3
            assert server.faults.history == [DROP, HTTP_500, "ok"]

    def test_truncated_body_retried_to_success(self):
        with self._server([TRUNCATE]) as server:
            xmit = XMIT(retry=FAST_RETRY)
            assert xmit.load_url(server.url_for("/f.xsd")) == \
                ("SimpleData",)
            assert xmit.discovery_stats.retries == 1

    def test_garbage_http_retried_to_success(self):
        with self._server([GARBAGE]) as server:
            xmit = XMIT(retry=FAST_RETRY)
            assert xmit.load_url(server.url_for("/f.xsd")) == \
                ("SimpleData",)

    def test_permanently_dead_http_server_serves_fallback(self):
        with self._server([]) as server:
            xmit = XMIT(retry=FAST_RETRY, cache_ttl=0.0)
            xmit.registry.negative_ttl = 0.0
            url = server.url_for("/f.xsd")
            xmit.load_url(url)
            server.faults.extend([DROP], repeat_last=True)
            assert xmit.refresh(url) == ()
            assert xmit.load_url(url) == ("SimpleData",)
            assert xmit.discovery_stats.fallbacks == 2
