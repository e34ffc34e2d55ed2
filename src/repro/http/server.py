"""Minimal HTTP/1.0 server for hosting metadata documents.

Stands in for the Apache server of the paper's experimental setup.
Serves GET requests from a :class:`DocumentStore` on a loopback socket.
It is a handler on :class:`~repro.transport.eventloop.EventLoopServer`
— the loop owns the listener, the sockets and the one thread — whose
``parse`` hook reads a request head from the client's read buffer
where the framed services take length-prefixed frames; one request
per connection (HTTP/1.0 close semantics), which is entirely adequate
for the discovery path it exists to exercise.

Usage::

    store = DocumentStore()
    store.put("/formats/hydrology.xsd", xsd_text)
    with MetadataHTTPServer(store) as server:
        url = server.url_for("/formats/hydrology.xsd")
        ... XMIT.load_url(url) ...
"""

from __future__ import annotations

import threading
import time

from repro.errors import TransportError
from repro.obs import runtime as _obs
from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE, render_json, render_prometheus,
)
from repro.obs.metrics import HTTP_REQUESTS
from repro.obs.registry import REGISTRY
from repro.transport.eventloop import ClientHandle, EventLoopServer
from repro.transport.messages import FrameReader

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


class DocumentStore:
    """Thread-safe path -> document mapping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._docs: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def put(self, path: str, content: str | bytes) -> str:
        if not path.startswith("/"):
            path = "/" + path
        data = (content.encode("utf-8") if isinstance(content, str)
                else bytes(content))
        with self._lock:
            self._docs[path] = data
        return path

    def get(self, path: str) -> bytes | None:
        with self._lock:
            doc = self._docs.get(path)
            if doc is None:
                self.misses += 1
            else:
                self.hits += 1
            return doc

    def paths(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._docs))


class MetadataHTTPServer:
    """A loopback HTTP/1.0 server over a :class:`DocumentStore`.

    With ``metrics=True`` (the default) the server also exposes the
    process-wide telemetry registry: ``GET /metrics`` returns
    Prometheus text exposition and ``GET /metrics.json`` the same
    snapshot as JSON — the scrape endpoint for a running XMIT
    deployment.

    *snapshot_source* overrides where that snapshot comes from — e.g.
    :meth:`~repro.transport.sharded.ShardedBroadcastServer
    .metrics_snapshot` to expose a combined, worker-labeled view of a
    whole sharded fleet from one port.  It is called per scrape (on
    the loop thread: a slow source delays this server's other
    requests, nobody else's) and must return the registry snapshot
    shape; on failure the scrape falls back to this process's
    registry.
    """

    #: request heads larger than this are answered 400
    _MAX_HEAD_BYTES = 64 * 1024
    #: a connection older than this — silent, trickling its head, or
    #: not reading its answer — is closed.  Checked lazily, on the next
    #: connect or read, so it needs no timer.
    _CONNECTION_SECONDS = 10.0

    def __init__(self, store: DocumentStore, *,
                 host: str = "127.0.0.1", port: int = 0,
                 metrics: bool = True,
                 snapshot_source=None) -> None:
        self.store = store
        self.metrics = metrics
        self.snapshot_source = snapshot_source
        #: open connection -> [accepted at, answered]; oldest first,
        #: touched on the loop thread only
        self._connections: dict[ClientHandle, list] = {}
        self._loop = EventLoopServer(host=host, port=port,
                                     handler=self).start()
        self.host, self.port = self._loop.host, self._loop.port

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop serving: every connection is closed and the loop
        thread has exited when this returns."""
        self._loop.close()

    def __enter__(self) -> "MetadataHTTPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def url_for(self, path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        return f"http://{self.host}:{self.port}{path}"

    # -- event-loop handler callbacks (loop thread) -------------------------

    def on_connect(self, client: ClientHandle) -> None:
        self._close_overdue()
        self._connections[client] = [time.monotonic(), False]

    def on_disconnect(self, client: ClientHandle, reason) -> None:
        self._connections.pop(client, None)

    def parse(self, reader: FrameReader):
        """The loop's parse hook: the request head at the front of the
        client's *reader* as ``(method, path)``, or None for a head
        that is malformed or over the cap; nothing until it has all
        arrived.  Whatever follows the head is discarded — HTTP/1.0,
        one request per connection."""
        self._close_overdue()
        buffer = reader.unread()
        end = buffer.find(b"\r\n\r\n")
        if end < 0 and len(buffer) <= self._MAX_HEAD_BYTES:
            return
        request = None
        if 0 <= end <= self._MAX_HEAD_BYTES:
            line = buffer[:buffer.index(b"\r\n")]
            parts = line.decode("latin-1").split(" ")
            if len(parts) == 3 and parts[2].startswith("HTTP/"):
                request = parts[0], parts[1]
        reader.discard()
        yield request

    def on_frame(self, client: ClientHandle, request) -> None:
        state = self._connections[client]
        if state[1]:
            return  # a pipelined second request: already closing
        state[1] = True
        response = self._response(request)
        if response:
            self._loop.enqueue(client, response, droppable=False)
        self._loop.request_close(client, None, graceful=True)

    def _close_overdue(self) -> None:
        horizon = time.monotonic() - self._CONNECTION_SECONDS
        for client, (since, _answered) in self._connections.items():
            if since > horizon:
                break
            self._loop.request_close(client, TransportError(
                f"no complete exchange within "
                f"{self._CONNECTION_SECONDS} s"))

    # -- serving -------------------------------------------------------------

    def _response(self, request: tuple[str, str] | None) -> bytes:
        """The bytes that answer one parsed request head."""
        if request is None:
            return self._render(400, b"malformed request")
        method, path = request
        if method != "GET":
            return self._render(405, b"only GET is supported")
        if self.metrics and path in ("/metrics", "/metrics.json"):
            snapshot = None
            if self.snapshot_source is not None:
                try:
                    snapshot = self.snapshot_source()
                except Exception:
                    snapshot = None  # scrape must not 500
            if snapshot is None:
                snapshot = REGISTRY.snapshot()
            if path == "/metrics":
                return self._render(
                    200, render_prometheus(snapshot).encode("utf-8"),
                    content_type=PROMETHEUS_CONTENT_TYPE)
            return self._render(
                200, render_json(snapshot).encode("utf-8"),
                content_type="application/json")
        doc = self.store.get(path)
        if doc is None:
            return self._render(404, f"no document at {path}".encode())
        return self._render(200, doc)

    @staticmethod
    def _render(status: int, body: bytes, *,
                content_type: str = "text/xml") -> bytes:
        if _obs.enabled:
            HTTP_REQUESTS.labels(status=status).inc()
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        return head + body
