"""TCP channel: frames over a loopback (or LAN) socket.

:class:`TCPListener` accepts connections and wraps them; ``tcp_pair``
builds a connected loopback pair in one call for tests and benches.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import TransportError
from repro.transport.base import Channel
from repro.transport.messages import MAX_FRAME, Frame, FrameReader

#: iovec entries per sendmsg call (conservative vs. the kernel's
#: IOV_MAX of 1024) and the join size the fallback path buffers at
#: once — bounds peak memory to one chunk, not the whole payload.
_SENDMSG_BATCH = 512
_FALLBACK_CHUNK = 1 * 1024 * 1024


class TCPChannel(Channel):
    """A channel over a connected TCP socket.

    Receives through a :class:`~repro.transport.messages.FrameReader`,
    so a ``recv`` that times out mid-frame keeps the bytes it has and a
    short-timeout poller (a control channel) never desynchronizes.
    Sends hold a lock, so two threads sharing one channel cannot
    interleave partial writes.  ``max_frame_len`` caps the length
    prefix :meth:`recv` accepts; a larger one raises
    :class:`FrameTooLargeError`, so a server can drop one bad client
    and keep its loop.
    """

    def __init__(self, sock: socket.socket, *,
                 max_frame_len: int = MAX_FRAME) -> None:
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        self._reader = FrameReader()
        #: whether the last settimeout left the socket blocking, so a
        #: blocking read costs no ioctl; unknown (False) until one ran
        self._blocking = False
        self._send_lock = threading.Lock()
        #: gather-send with sendmsg, or join chunks (non-POSIX)
        self._gather = hasattr(sock, "sendmsg")
        self.max_frame_len = max_frame_len
        self.bytes_sent = 0
        self.frames_sent = 0

    @classmethod
    def connect(cls, host: str, port: int, *,
                timeout: float = 10.0,
                max_frame_len: int = MAX_FRAME) -> "TCPChannel":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}") from None
        sock.settimeout(None)
        return cls(sock, max_frame_len=max_frame_len)

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, frame: Frame) -> None:
        """Gather-send ``[prefix, *payload parts]`` unjoined; returns
        once the kernel holds every byte, so the caller may then
        mutate the arrays the parts alias."""
        if self._closed:
            raise TransportError("send on closed channel")
        buffers = frame.buffers()
        total = sum(map(len, buffers))
        with self._send_lock:
            try:
                if self._gather:  # one sendmsg unless the kernel cuts it
                    sent = (self._sock.sendmsg(buffers)
                            if len(buffers) <= _SENDMSG_BATCH else 0)
                    if sent != total:
                        self._sendmsg_all(buffers, total, sent)
                else:  # a socket with no sendmsg (non-POSIX)
                    self._sendall_chunked(buffers)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from None
            self.bytes_sent += total
            self.frames_sent += 1

    def _sendmsg_all(self, pending: list, left: int, sent: int) -> None:
        """Drain the *left* bytes of *pending* through sendmsg, *sent*
        of them already written; a partial write resumes from a
        ``memoryview`` window of the cut buffer, never a copy."""
        start = 0
        while True:
            left -= sent
            if not left:
                return
            while sent >= len(pending[start]):
                sent -= len(pending[start])
                start += 1
            if sent:
                pending[start] = memoryview(pending[start])[sent:]
            sent = self._sock.sendmsg(pending[start:start + _SENDMSG_BATCH])

    def _sendall_chunked(self, buffers: list) -> None:
        chunk: list = []
        size = 0
        for buf in buffers:
            chunk.append(buf)
            size += len(buf)
            if size >= _FALLBACK_CHUNK:
                self._sock.sendall(b"".join(chunk))
                chunk, size = [], 0
        if chunk:
            self._sock.sendall(b"".join(chunk))

    def recv(self, timeout: float | None = None) -> Frame | None:
        """The next frame, None on an orderly close: one reader call
        for a frame already in hand, else ``fill`` then that call."""
        reader = self._reader
        frame = reader.frame(self.max_frame_len) if reader.held else None
        deadline = None if timeout is None else time.monotonic() + timeout
        while frame is None:
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout
                    self._sock.settimeout(remaining)
                    self._blocking = False
                elif not self._blocking:
                    self._sock.settimeout(None)
                    self._blocking = True
                got = reader.fill(self._sock.recv_into)
            except socket.timeout:
                raise TransportError(
                    f"recv timed out after {timeout}s") from None
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from None
            if not got:
                if not reader.held:
                    return None  # orderly close at a frame boundary
                raise TransportError("connection closed mid-frame")
            frame = reader.frame(self.max_frame_len)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # Lingering half-close: shut down the send side (FIN after
            # all queued data), then briefly drain the receive side
            # before closing the descriptor.  Closing with unread
            # inbound data (the peer's HELLO, say) makes Linux send a
            # RST, which can destroy frames still in flight to the
            # peer — a send-only endpoint closing early would corrupt
            # the very stream it just finished writing.
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            try:
                # clear anything already queued without blocking...
                self._sock.settimeout(0)
                try:
                    while self._sock.recv(65536):
                        pass
                except (BlockingIOError, socket.timeout):
                    pass
                # ...then give the peer a short window to FIN
                self._sock.settimeout(0.2)
                while self._sock.recv(65536):
                    pass
            except OSError:
                pass
            self._sock.close()


class TCPListener:
    """Accepts TCP channels on a bound port."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 max_frame_len: int = MAX_FRAME) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                                  1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()
        self.max_frame_len = max_frame_len

    def accept(self, timeout: float | None = None) -> TCPChannel:
        self._listener.settimeout(timeout)
        try:
            conn, _addr = self._listener.accept()
        except socket.timeout:
            raise TransportError(
                f"accept timed out after {timeout}s") from None
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from None
        conn.settimeout(None)
        return TCPChannel(conn, max_frame_len=self.max_frame_len)

    def close(self) -> None:
        self._listener.close()

    def __enter__(self) -> "TCPListener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def tcp_pair(*, max_frame_len: int = MAX_FRAME) \
        -> tuple[TCPChannel, TCPChannel]:
    """A connected loopback channel pair (client end, server end)."""
    with TCPListener(max_frame_len=max_frame_len) as listener:
        client = TCPChannel.connect(listener.host, listener.port,
                                    max_frame_len=max_frame_len)
        server = listener.accept(timeout=5)
    return client, server
