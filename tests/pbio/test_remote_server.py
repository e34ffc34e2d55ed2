"""The networked format-server service."""

import pytest

from repro.errors import UnknownFormatError
from repro.pbio.context import IOContext
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import field_list_for
from repro.pbio.remote_server import (
    FormatServerService, RemoteFormatServer,
)


def make_format(name="T"):
    return IOFormat(name, field_list_for(
        [("a", "integer", 4), ("s", "string")]))


@pytest.fixture
def service():
    with FormatServerService() as svc:
        yield svc


@pytest.fixture
def remote(service):
    client = RemoteFormatServer.connect(service.host, service.port)
    yield client
    client.close()


class TestProtocol:
    def test_register_and_lookup(self, service, remote):
        fid = remote.register(make_format())
        assert service.backing.lookup(fid) == make_format()
        assert remote.lookup(fid) == make_format()

    def test_lookup_from_second_client(self, service, remote):
        fid = remote.register(make_format())
        other = RemoteFormatServer.connect(service.host, service.port)
        try:
            assert other.lookup(fid) == make_format()
        finally:
            other.close()

    def test_unknown_id_errors(self, remote):
        with pytest.raises(UnknownFormatError):
            remote.lookup(FormatID(0xDEAD))

    def test_lookup_cached_after_first_fetch(self, service, remote):
        fid = remote.register(make_format())
        other = RemoteFormatServer.connect(service.host, service.port)
        try:
            other.lookup(fid)
            other.lookup(fid)
            other.lookup(fid)
            assert other.network_lookups == 1
        finally:
            other.close()

    def test_register_idempotent_without_network(self, remote):
        remote.register(make_format())
        remote.register(make_format())
        assert remote.network_registrations == 1

    def test_import_bytes(self, remote):
        canonical = make_format().canonical_bytes()
        fid = remote.import_bytes(canonical)
        assert fid == make_format().format_id


class TestReconnectRetry:
    def _retry(self):
        from repro.http.retry import RetryPolicy
        return RetryPolicy(attempts=3, base_delay=0.001, seed=2)

    def test_request_survives_a_dropped_connection(self, service):
        client = RemoteFormatServer.connect(service.host, service.port,
                                            retry=self._retry())
        try:
            fid = client.register(make_format())
            # sever the TCP channel underneath the client; the next
            # uncached request must reconnect and succeed
            client._channel.close()
            client._cache.clear()
            assert client.lookup(fid) == make_format()
            assert client.network_retries >= 1
        finally:
            client.close()

    def test_without_retry_a_dropped_connection_raises(self, service):
        from repro.errors import TransportError
        client = RemoteFormatServer.connect(service.host, service.port)
        try:
            fid = client.register(make_format())
            client._channel.close()
            client._cache.clear()
            with pytest.raises(TransportError):
                client.lookup(fid)
        finally:
            client.close()

    def test_connect_retries_until_service_is_up(self, service):
        # connecting to a live service with a retry policy is a no-op
        client = RemoteFormatServer.connect(service.host, service.port,
                                            retry=self._retry())
        try:
            assert client.known_ids() == ()
        finally:
            client.close()


class TestContextIntegration:
    def test_contexts_share_formats_through_the_service(self, service):
        sender_server = RemoteFormatServer.connect(service.host,
                                                   service.port)
        receiver_server = RemoteFormatServer.connect(service.host,
                                                     service.port)
        try:
            sender = IOContext(format_server=sender_server)
            receiver = IOContext(format_server=receiver_server)
            sender.register_layout("Msg", [("x", "integer", 4),
                                           ("s", "string")])
            wire = sender.encode("Msg", {"x": 7, "s": "over the net"})
            out = receiver.decode(wire)
            assert out.record == {"x": 7, "s": "over the net"}
            assert receiver_server.network_lookups == 1
        finally:
            sender_server.close()
            receiver_server.close()

    def test_service_backed_by_existing_server(self):
        backing = FormatServer()
        fid = backing.register(make_format())
        with FormatServerService(backing) as svc:
            client = RemoteFormatServer.connect(svc.host, svc.port)
            try:
                assert client.lookup(fid) == make_format()
            finally:
                client.close()


class TestOnTheEventLoop:
    """What the service inherits by being an EventLoopServer handler:
    per-client error isolation and a close() that ends everything."""

    @staticmethod
    def _exchange(sock, frame: bytes):
        from tests.transport.frames import iter_frames
        sock.sendall(frame)
        buffer = bytearray()
        while True:
            chunk = sock.recv(65536)
            assert chunk, "service closed the connection"
            buffer.extend(chunk)
            for reply in iter_frames(buffer):
                return reply

    def test_bad_registration_gets_fmt_err_and_the_connection_lives(
            self, service):
        import socket
        from repro.transport.messages import FrameType, frame_bytes
        fid = service.backing.register(make_format())
        with socket.create_connection((service.host, service.port),
                                      timeout=5) as sock:
            reply = self._exchange(sock, frame_bytes(
                FrameType.FMT_REG, b"\xffnot canonical metadata"))
            assert reply.type == FrameType.FMT_ERR
            reply = self._exchange(sock, frame_bytes(
                FrameType.FMT_REQ, fid.to_bytes()))
            assert reply.type == FrameType.FMT_RSP
            assert reply.payload[:8] == fid.to_bytes()

    def test_oversized_prefix_closes_only_that_client(self, service,
                                                      remote):
        import socket
        from repro.errors import FrameTooLargeError
        with socket.create_connection((service.host, service.port),
                                      timeout=5) as hostile:
            assert service.server.wait_for_clients(2, timeout=5)
            port = hostile.getsockname()[1]
            (handle,) = [c for c in service.server.clients()
                         if c.addr[1] == port]
            hostile.sendall(b"\xff\xff\xff\xff")
            assert hostile.recv(1) == b""
        assert isinstance(handle.close_reason, FrameTooLargeError)
        fid = remote.register(make_format())
        assert remote.lookup(fid) == make_format()

    def test_close_ends_every_thread_and_client(self):
        import threading
        from repro.errors import TransportError
        from repro.http.retry import RetryPolicy
        before = set(threading.enumerate())
        policy = RetryPolicy(attempts=3, base_delay=0.001)
        with FormatServerService() as svc:
            plain = RemoteFormatServer.connect(svc.host, svc.port)
            retrying = RemoteFormatServer.connect(svc.host, svc.port,
                                                  retry=policy)
            for i in range(100):
                plain.register(make_format(f"T{i}"))
            retrying.register(make_format("mine"))
        try:
            assert set(threading.enumerate()) <= before
            # a closed service serves nobody: the connected clients
            # read EOF, and a reconnect is refused
            with pytest.raises(TransportError):
                plain.register(make_format("late"))
            with pytest.raises(TransportError, match="cannot connect"):
                retrying.register(make_format("later"))
            assert retrying.network_retries == policy.attempts - 1
            assert len(svc.backing) == 101
        finally:
            plain.close()
            retrying.close()
