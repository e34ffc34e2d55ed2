"""A network format-server service.

The paper's PBIO deployment ran a *format server* process that every
endpoint registered formats with and fetched metadata from.  This
module provides that process boundary:

* :class:`FormatServerService` — serves a local
  :class:`~repro.pbio.format_server.FormatServer` to TCP clients
  (register + lookup RPCs over the frame protocol);
* :class:`RemoteFormatServer` — a client-side stand-in exposing the
  same interface as :class:`FormatServer`, so an
  :class:`~repro.pbio.context.IOContext` can be pointed at a remote
  server with no other changes::

      remote = RemoteFormatServer.connect(host, port)
      ctx = IOContext(format_server=remote)

Lookups are cached client-side (metadata is immutable — IDs are
content digests), so the network is touched once per format, matching
the amortization story of the rest of the system.
"""

from __future__ import annotations

import threading

from repro.errors import (
    FormatRegistrationError, TransportError, UnknownFormatError,
)
from repro.http.retry import RetryPolicy, call_with_retry
from repro.pbio.format import FormatID, IOFormat, deserialize_format
from repro.pbio.format_server import FormatServer
from repro.transport.eventloop import ClientHandle, EventLoopServer
from repro.transport.messages import Frame, FrameType, frame_bytes
from repro.transport.tcp import TCPChannel


class FormatServerService:
    """Serves register/lookup requests: a handler on an
    :class:`~repro.transport.eventloop.EventLoopServer`, which owns
    the listener, every client socket and the one thread."""

    def __init__(self, backing: FormatServer | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.backing = backing if backing is not None else FormatServer()
        self.server = EventLoopServer(host=host, port=port,
                                      handler=self).start()
        self.host, self.port = self.server.host, self.server.port

    def close(self) -> None:
        """Stop serving: every client is closed and the loop thread
        has exited when this returns."""
        self.server.close()

    def __enter__(self) -> "FormatServerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def on_frame(self, client: ClientHandle, frame: Frame) -> None:
        if frame.type == FrameType.BYE:
            self.server.request_close(client, None, graceful=True)
            return
        reply = self.backing.handle_frame(frame.type, frame.payload)
        if reply is not None:
            self.server.enqueue(client, frame_bytes(*reply),
                                droppable=False)


def _transient(exc: BaseException) -> bool:
    return isinstance(exc, TransportError)


class RemoteFormatServer:
    """FormatServer-compatible client over TCP, with a local cache."""

    def __init__(self, channel: TCPChannel, *,
                 retry: RetryPolicy | None = None,
                 endpoint: tuple[str, int, float] | None = None) -> None:
        self._channel = channel
        self._lock = threading.Lock()
        self._cache: dict[FormatID, bytes] = {}
        self._retry = retry
        self._endpoint = endpoint
        self.network_registrations = 0
        self.network_lookups = 0
        self.network_retries = 0

    @classmethod
    def connect(cls, host: str, port: int, *,
                timeout: float = 10.0,
                retry: RetryPolicy | None = None) \
            -> "RemoteFormatServer":
        """Connect to a format-server service.

        With *retry*, both the initial connect and later requests are
        retried under the policy; a dropped connection is transparently
        re-established before each retry (requests are idempotent:
        registration is digest-keyed and lookups are reads).
        """
        def connect_once() -> TCPChannel:
            return TCPChannel.connect(host, port, timeout=timeout)
        if retry is not None:
            channel = call_with_retry(connect_once, retry,
                                      retryable=_transient)
        else:
            channel = connect_once()
        return cls(channel, retry=retry,
                   endpoint=(host, port, timeout))

    # -- FormatServer interface ------------------------------------------------

    def register(self, fmt: IOFormat) -> FormatID:
        canonical = fmt.canonical_bytes()
        fid = fmt.format_id
        with self._lock:
            if fid in self._cache:
                return fid
            reply = self._request(Frame(FrameType.FMT_REG, canonical))
            self.network_registrations += 1
            if reply.type == FrameType.FMT_ERR:
                raise FormatRegistrationError(
                    reply.payload.decode("utf-8", errors="replace"))
            if reply.type != FrameType.FMT_ACK:
                raise FormatRegistrationError(
                    f"unexpected reply {reply.type.name}")
            acked = FormatID.from_bytes(reply.payload)
            if acked != fid:
                raise FormatRegistrationError(
                    f"server acknowledged {acked}, expected {fid}")
            self._cache[fid] = canonical
        return fid

    def lookup_bytes(self, fid: FormatID) -> bytes:
        with self._lock:
            cached = self._cache.get(fid)
            if cached is not None:
                return cached
            reply = self._request(Frame(FrameType.FMT_REQ,
                                        fid.to_bytes()))
            self.network_lookups += 1
            if reply.type == FrameType.FMT_ERR:
                raise UnknownFormatError(
                    reply.payload.decode("utf-8", errors="replace"))
            if reply.type != FrameType.FMT_RSP:
                raise UnknownFormatError(
                    f"unexpected reply {reply.type.name}")
            got = FormatID.from_bytes(reply.payload[:8])
            metadata = bytes(reply.payload[8:])
            if got != fid:
                raise UnknownFormatError(
                    f"server returned {got}, expected {fid}")
            self._cache[fid] = metadata
            return metadata

    def lookup(self, fid: FormatID) -> IOFormat:
        fmt = deserialize_format(self.lookup_bytes(fid))
        if fmt.format_id != fid:
            raise UnknownFormatError(
                f"metadata integrity failure for id {fid}")
        return fmt

    def import_bytes(self, canonical: bytes) -> FormatID:
        return self.register(deserialize_format(canonical))

    def known_ids(self) -> tuple[FormatID, ...]:
        with self._lock:
            return tuple(self._cache)

    # -- internals ---------------------------------------------------------------

    def _request(self, frame: Frame, timeout: float = 10.0) -> Frame:
        if self._retry is None or self._endpoint is None:
            return self._request_once(frame, timeout)
        attempts = 0

        def step() -> Frame:
            nonlocal attempts
            attempts += 1
            if attempts > 1:  # the failed attempt broke the channel
                self.network_retries += 1
                self._reconnect()
            return self._request_once(frame, timeout)
        return call_with_retry(step, self._retry, retryable=_transient)

    def _request_once(self, frame: Frame, timeout: float) -> Frame:
        self._channel.send(frame)
        reply = self._channel.recv(timeout)
        if reply is None:
            raise TransportError("format server closed the connection")
        return reply

    def _reconnect(self) -> None:
        # caller holds self._lock, so swapping the channel is safe
        try:
            self._channel.close()
        except TransportError:
            pass
        host, port, timeout = self._endpoint
        self._channel = TCPChannel.connect(host, port, timeout=timeout)

    def close(self) -> None:
        self._channel.close()
