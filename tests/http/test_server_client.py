"""HTTP server/client over loopback sockets."""

import socket
import threading
import time

import pytest

from repro.errors import HTTPError, ResponseTooLargeError
from repro.http.client import http_get
from repro.http.retry import RetryPolicy
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import fetch

REQUEST = b"GET /formats/a.xsd HTTP/1.0\r\nHost: test\r\n\r\n"
MEGABYTE = bytes(range(256)) * 4096


@pytest.fixture(scope="module")
def server():
    store = DocumentStore()
    store.put("/formats/a.xsd", "<a/>")
    store.put("b.xsd", "<b/>")  # leading slash added by put
    store.put("/big", "x" * 300_000)
    store.put("/megabyte", MEGABYTE)
    with MetadataHTTPServer(store) as srv:
        yield srv


def raw_exchange(server, segments, *, read_size=65536,
                 read_pause=0.0, kernel_buffer=None) -> bytes:
    """Send *segments* as separate TCP segments, then read to EOF.
    *kernel_buffer* shrinks both ends' socket buffers first (loopback
    otherwise swallows megabytes in one non-blocking send)."""
    with socket.socket() as sock:
        sock.settimeout(10)
        if kernel_buffer:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                            kernel_buffer)
        sock.connect((server.host, server.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if kernel_buffer:
            port, deadline = sock.getsockname()[1], time.monotonic() + 5
            while not (mine := [c for c in server._loop.clients()
                                if c.addr[1] == port]):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            mine[0].sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    kernel_buffer)
        for segment in segments:
            sock.sendall(segment)
            time.sleep(0.02)
        chunks = []
        while chunk := sock.recv(read_size):
            chunks.append(chunk)
            time.sleep(read_pause)
    return b"".join(chunks)


def reads_eof(sock: socket.socket) -> bool:
    sock.settimeout(5)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestDocumentStore:
    def test_put_normalizes_path(self):
        store = DocumentStore()
        assert store.put("rel.xsd", "x") == "/rel.xsd"
        assert store.get("/rel.xsd") == b"x"

    def test_hit_miss_counters(self):
        store = DocumentStore()
        store.put("/a", "1")
        store.get("/a")
        store.get("/nope")
        assert store.hits == 1 and store.misses == 1

    def test_paths(self):
        store = DocumentStore()
        store.put("/b", "1")
        store.put("/a", "1")
        assert store.paths() == ("/a", "/b")


class TestServer:
    def test_get_ok(self, server):
        response = http_get(server.host, server.port, "/formats/a.xsd")
        assert response.status == 200
        assert response.body == b"<a/>"
        assert response.headers["content-length"] == "4"

    def test_get_normalized_path(self, server):
        assert http_get(server.host, server.port, "b.xsd").body == \
            b"<b/>"

    def test_404(self, server):
        response = http_get(server.host, server.port, "/none")
        assert response.status == 404

    def test_large_body(self, server):
        response = http_get(server.host, server.port, "/big")
        assert len(response.body) == 300_000

    def test_megabyte_through_a_slow_reader(self, server):
        """More than one non-blocking send takes: the rest goes out
        from the loop's backlog, and the FIN only after all of it."""
        raw = raw_exchange(
            server, [b"GET /megabyte HTTP/1.0\r\n\r\n"],
            read_size=16384, read_pause=0.0005, kernel_buffer=8192)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert body == MEGABYTE
        assert server._loop.totals()["queue_high_water"] > 0

    @pytest.mark.parametrize("segments", [
        [REQUEST],
        [REQUEST[:6], REQUEST[6:31], REQUEST[31:]],
        [REQUEST + REQUEST],
        [REQUEST, REQUEST],
    ], ids=["whole", "head-in-three-segments", "pipelined-together",
            "pipelined-later"])
    def test_one_request_one_response(self, server, segments):
        """HTTP/1.0: however the head arrives it is answered once,
        and a second request on the connection is not."""
        raw = raw_exchange(server, segments)
        assert raw.count(b"HTTP/1.0 200 OK") == 1
        assert raw.endswith(b"\r\n\r\n<a/>")

    @pytest.mark.parametrize("request_bytes, status", [
        (b"BROKEN\r\n\r\n", 400),
        (b"GET /" + b"x" * 70_000, 400),          # over the head cap
        (b"POST /formats/a.xsd HTTP/1.0\r\n\r\n", 405),
        (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
    ])
    def test_error_statuses(self, server, request_bytes, status):
        raw = raw_exchange(server, [request_bytes])
        assert raw.startswith(f"HTTP/1.0 {status} ".encode())

    def test_url_for_and_fetch_integration(self, server):
        url = server.url_for("formats/a.xsd")
        assert fetch(url) == b"<a/>"

    def test_fetch_404_raises_with_status(self, server):
        with pytest.raises(HTTPError) as info:
            fetch(server.url_for("/gone"))
        assert info.value.status == 404

    def test_connection_refused(self):
        with pytest.raises(HTTPError, match="failed"):
            http_get("127.0.0.1", 1, "/x", timeout=2)

    def test_concurrent_requests(self, server):
        import threading
        results = []

        def get():
            results.append(
                http_get(server.host, server.port,
                         "/formats/a.xsd").status)
        threads = [threading.Thread(target=get) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [200] * 10

    def test_close_is_idempotent(self):
        srv = MetadataHTTPServer(DocumentStore())
        srv.close()
        srv.close()

    def test_close_ends_every_thread_and_connection(self):
        store = DocumentStore()
        store.put("/doc", "<ok/>")
        before = set(threading.enumerate())
        with MetadataHTTPServer(store) as srv:
            for _ in range(100):
                assert http_get(srv.host, srv.port, "/doc").status == 200
            idle = socket.create_connection((srv.host, srv.port))
            assert srv._loop.wait_for_clients(1, timeout=5)
        try:
            assert set(threading.enumerate()) <= before
            assert reads_eof(idle)
        finally:
            idle.close()
        with pytest.raises(HTTPError, match="failed"):
            http_get(srv.host, srv.port, "/doc", timeout=2)

    def test_silent_client_neither_delays_nor_survives_close(self):
        store = DocumentStore()
        store.put("/doc", "<ok/>")
        with MetadataHTTPServer(store) as srv:
            silent = socket.create_connection((srv.host, srv.port))
            # a server stuck on the silent client would time this out
            assert http_get(srv.host, srv.port, "/doc",
                            timeout=5).body == b"<ok/>"
        try:
            assert reads_eof(silent)
        finally:
            silent.close()

    def test_silent_client_is_closed_after_the_bound(self, monkeypatch):
        assert MetadataHTTPServer._CONNECTION_SECONDS == 10.0
        monkeypatch.setattr(MetadataHTTPServer, "_CONNECTION_SECONDS",
                            0.05)
        store = DocumentStore()
        store.put("/doc", "<ok/>")
        with MetadataHTTPServer(store) as srv:
            silent = socket.create_connection((srv.host, srv.port))
            try:
                silent.sendall(b"GET /doc HT")  # a head that never ends
                time.sleep(0.1)
                # lazily: the next connection sweeps the overdue one
                assert http_get(srv.host, srv.port, "/doc").status == 200
                assert reads_eof(silent)
            finally:
                silent.close()


class RawServer:
    """A one-off raw-socket server for probing the client."""

    #: connections the last _respond server accepted
    connections = 0

    def _respond(self, raw, **get_kwargs) -> "HTTPResponse":
        """GET from a one-off raw server that answers every connection
        with the bytes *raw* — or, when callable, by ``raw(conn)``."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()
        self.connections = 0

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed: the GET is over
                self.connections += 1
                with conn:
                    try:
                        conn.recv(65536)
                        if callable(raw):
                            raw(conn)
                        else:
                            conn.sendall(raw)
                    except OSError:
                        pass  # the client hung up on us: the point
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            get_kwargs.setdefault("timeout", 5)
            return http_get(host, port, "/x", **get_kwargs)
        finally:
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            thread.join(5)
            assert not thread.is_alive()


class TestClientParsing(RawServer):
    def test_body_truncated_to_content_length(self):
        response = self._respond(
            b"HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nabcEXTRA")
        assert response.body == b"abc"

    def test_short_body_rejected(self):
        from repro.errors import HTTPError
        with pytest.raises(HTTPError, match="truncated"):
            self._respond(
                b"HTTP/1.0 200 OK\r\nContent-Length: 99\r\n\r\nabc")

    def test_malformed_status_line(self):
        from repro.errors import HTTPError
        with pytest.raises(HTTPError, match="status"):
            self._respond(b"NOT-HTTP nonsense\r\n\r\n")

    def test_headers_case_insensitive(self):
        response = self._respond(
            b"HTTP/1.0 200 OK\r\nX-Custom: Value\r\n"
            b"Content-Length: 0\r\n\r\n")
        assert response.headers["x-custom"] == "Value"

    def test_no_header_terminator(self):
        from repro.errors import HTTPError
        with pytest.raises(HTTPError, match="terminator"):
            self._respond(b"HTTP/1.0 200 OK\r\nnever-ends")

    def test_non_numeric_content_length(self):
        """A garbage Content-Length must surface as HTTPError, not a
        bare ValueError (regression, alongside the truncated-body
        case above)."""
        from repro.errors import HTTPError
        with pytest.raises(HTTPError, match="[Cc]ontent-[Ll]ength"):
            self._respond(
                b"HTTP/1.0 200 OK\r\nContent-Length: banana\r\n\r\nabc")

    def test_non_numeric_content_length_is_typed(self):
        from repro.errors import DiscoveryError
        with pytest.raises(DiscoveryError):
            self._respond(
                b"HTTP/1.0 200 OK\r\nContent-Length: 12abc\r\n\r\nabc")


class TestClientCaps(RawServer):
    """A hostile endpoint cannot stream an unbounded head or body into
    the client: the caps hold while reading, and the typed error is
    permanent (an oversized document is not fetched once per attempt)
    and counted."""

    RETRY = RetryPolicy(attempts=3, base_delay=0.001)

    @staticmethod
    def _rejections(reason: str) -> int:
        from repro.obs.metrics import MALFORMED_DOCUMENTS
        return MALFORMED_DOCUMENTS.labels("http", reason).value

    def _rejected(self, raw, reason: str, match: str) -> None:
        before = self._rejections(reason)
        with pytest.raises(ResponseTooLargeError, match=match) as info:
            self._respond(raw, retry=self.RETRY)
        assert info.value.status is None
        assert self.connections == 1, "a cap violation is permanent"
        assert self._rejections(reason) == before + 1

    def test_head_that_never_ends(self):
        def endless_head(conn):
            conn.sendall(b"HTTP/1.0 200 OK\r\n")
            while True:
                conn.sendall(b"X-Padding: " + b"p" * 4096 + b"\r\n")
        self._rejected(endless_head, "oversized_head", "headers")

    def test_declared_gigabyte_is_refused_before_the_body(self):
        sent = []

        def gigabyte(conn):
            conn.sendall(b"HTTP/1.0 200 OK\r\n"
                         b"Content-Length: 1073741824\r\n\r\n")
            while True:
                sent.append(conn.send(b"b" * 65536))
        self._rejected(gigabyte, "oversized_body", "declares")
        # what the kernel buffered, not what the client read
        assert sum(sent) < 64 * 1024 * 1024

    def test_undeclared_body_is_capped_while_reading(self, monkeypatch):
        import repro.http.client as client
        monkeypatch.setattr(client, "_MAX_BODY_BYTES", 100_000)

        def endless_body(conn):
            conn.sendall(b"HTTP/1.0 200 OK\r\n\r\n")
            while True:
                conn.sendall(b"b" * 65536)
        self._rejected(endless_body, "oversized_body", "exceeds")

    def test_body_at_the_cap_is_accepted(self, monkeypatch):
        import repro.http.client as client
        monkeypatch.setattr(client, "_MAX_BODY_BYTES", 100_000)
        response = self._respond(
            b"HTTP/1.0 200 OK\r\n\r\n" + b"b" * 100_000)
        assert len(response.body) == 100_000


class TestClientRetry:
    def test_http_get_retries_dropped_connections(self):
        from repro.http.retry import RetryPolicy
        from repro.http.server import DocumentStore
        from repro.testing import DROP, FaultyHTTPServer

        store = DocumentStore()
        store.put("/doc", "<ok/>")
        with FaultyHTTPServer(store, faults=[DROP, DROP]) as server:
            response = http_get(
                server.host, server.port, "/doc",
                retry=RetryPolicy(attempts=3, base_delay=0.001))
            assert response.status == 200
            assert response.body == b"<ok/>"

    def test_http_get_without_retry_still_fails_fast(self):
        from repro.http.server import DocumentStore
        from repro.testing import DROP, FaultyHTTPServer

        store = DocumentStore()
        store.put("/doc", "<ok/>")
        with FaultyHTTPServer(store, faults=[DROP]) as server:
            with pytest.raises(HTTPError):
                http_get(server.host, server.port, "/doc")
