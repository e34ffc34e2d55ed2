"""TCP channel: frames over a loopback (or LAN) socket.

:class:`TCPListener` accepts connections and wraps them; ``tcp_pair``
builds a connected loopback pair in one call for tests and benches.
"""

from __future__ import annotations

import mmap
import socket
import struct
import threading
import time

from repro.errors import TransportError
from repro.transport.base import Channel
from repro.transport.messages import (
    FRAME_TYPES, MAX_FRAME, RECORD_FRAMES, Frame, frame_length_error,
)

_LEN = struct.Struct(">I")
_RECV_CHUNK = 64 * 1024
#: the receive window holds any frame of up to _RECV_CHUNK bytes whole
_WINDOW = 4 + _RECV_CHUNK
#: iovec entries per sendmsg call (conservative vs. the kernel's
#: IOV_MAX of 1024) and the join size the fallback path buffers at
#: once — bounds peak memory to one chunk, not the whole batch.
_SENDMSG_BATCH = 512
_FALLBACK_CHUNK = 1 * 1024 * 1024


class TCPChannel(Channel):
    """A channel over a connected TCP socket.

    Receives through a standing window, so a timed-out ``recv`` never
    discards partially arrived frame bytes — essential for callers
    that poll with short timeouts (control channels), where dropping a
    partial frame would desynchronize the stream.

    Sends hold a lock: two threads sharing one channel would otherwise
    interleave partial writes and corrupt the frame stream.

    ``max_frame_len`` caps the length prefix :meth:`recv` accepts
    (default :data:`~repro.transport.messages.MAX_FRAME`); an
    oversized prefix raises :class:`FrameTooLargeError` so servers can
    drop one bad client without tearing down their loop.
    """

    def __init__(self, sock: socket.socket, *,
                 max_frame_len: int = MAX_FRAME) -> None:
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        #: the receive window, mapped by the first recv (its pages take
        #: RAM only once a read writes them), and its unread [lo, hi)
        self._window: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._lo = self._hi = 0
        #: a large frame's own buffer and fill count, across recv calls
        self._frame: bytearray | None = None
        self._frame_have = 0
        #: whether the last settimeout left the socket blocking, so a
        #: blocking read costs no ioctl; unknown (False) until one ran
        self._blocking = False
        self._send_lock = threading.Lock()
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
        self._send_buffers(frame.buffers(), 1)

    def send_many(self, frames) -> None:
        """Send several frames with scatter-gather ``sendmsg`` (one
        syscall per :data:`_SENDMSG_BATCH` frames, no payload copy).
        Where ``sendmsg`` is unavailable the frames are joined and
        shipped in bounded chunks, so peak memory stays one chunk —
        not a second copy of the whole batch."""
        buffers = [frame.encode() for frame in frames]
        self._send_buffers(buffers, len(buffers))

    def _send_buffers(self, buffers: list, frames: int) -> None:
        if self._closed:
            raise TransportError("send on closed channel")
        total = sum(map(len, buffers))
        with self._send_lock:
            try:
                if not hasattr(self._sock, "sendmsg"):  # pragma: no cover
                    self._sendall_chunked(buffers)  # non-POSIX fallback
                else:  # a frame is one sendmsg unless the kernel cuts it
                    sent = (self._sock.sendmsg(buffers)
                            if len(buffers) <= _SENDMSG_BATCH else 0)
                    if sent != total:
                        self._sendmsg_all(buffers, total, sent)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from None
            self.bytes_sent += total
            self.frames_sent += frames

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
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            window, lo, hi = self._window, self._lo, self._hi
            need = 4
            if hi - lo >= 4:
                (length,) = _LEN.unpack_from(window, lo)
                if not 0 < length <= self.max_frame_len:
                    raise frame_length_error(length, self.max_frame_len)
                end = lo + 4 + length
                if end <= hi:
                    # the payload's one copy out of the window
                    frame = Frame(FRAME_TYPES[window[lo + 4]],
                                  window[lo + 5:end])
                    if end == hi:
                        self._lo = self._hi = 0
                    else:
                        self._lo = end
                    return frame
                if length > _RECV_CHUNK and hi - lo >= 5:
                    return self._recv_large(length - 1, deadline, timeout)
                need = 4 + length if length <= _RECV_CHUNK else 5
            if window is None:
                self._window = window = mmap.mmap(
                    -1, _WINDOW, mmap.MAP_PRIVATE)
                self._view = memoryview(window)
            elif lo + need > _WINDOW:
                # compact: the frame at lo would run past the end
                window.move(0, lo, hi - lo)
                self._lo, self._hi = lo, hi = 0, hi - lo
            got = self._read(deadline, timeout,
                             self._view[hi:] if hi else window)
            if not got:
                if lo == hi:
                    return None  # orderly close at a frame boundary
                raise TransportError("connection closed mid-frame")
            self._hi = hi + got

    def _recv_large(self, size: int, deadline, timeout) -> Frame:
        """A frame too large for the window: its payload is read
        straight into a buffer of its own — private (decoded arrays
        alias it for their lifetime) and starting at the payload, so
        those arrays stay aligned.  The prefix and type byte stay in
        the window, so a timed-out recv resumes here.

        The buffer only doubles, and only when full, so it never
        exceeds twice what the peer really sent, whatever the prefix
        announced; it starts at *size* halved towards the bytes in
        hand, so the doublings end on *size* with nothing to spare."""
        lo = self._lo
        if self._frame is None:
            head = bytearray(self._view[lo + 5:self._hi])
            self._hi = lo + 5
            room = size
            while (room + 1) // 2 >= max(len(head), _RECV_CHUNK):
                room = (room + 1) // 2
            self._frame = head + bytes(room - len(head))
            self._frame_have = len(head)
        frame = self._frame
        while self._frame_have < size:
            if self._frame_have == len(frame):
                frame *= 2
            with memoryview(frame) as view, \
                    view[self._frame_have:size] as window:
                got = self._read(deadline, timeout, window)
            if not got:
                raise TransportError("connection closed mid-frame")
            self._frame_have += got
        ftype = FRAME_TYPES[self._window[lo + 4]]
        payload = memoryview(frame)[:size].toreadonly()
        done = Frame(ftype, payload if ftype in RECORD_FRAMES
                     else bytes(payload))  # a control payload is bytes
        self._frame = None
        self._lo = self._hi = 0
        return done

    def _read(self, deadline, timeout, window) -> int:
        """One ``recv_into`` *window* under the caller's deadline: the
        byte count read, 0 on orderly EOF."""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"recv timed out after {timeout}s")
            self._sock.settimeout(remaining)
            self._blocking = False
        elif not self._blocking:
            self._sock.settimeout(None)
            self._blocking = True
        try:
            return self._sock.recv_into(window)
        except socket.timeout:
            raise TransportError(
                f"recv timed out after {timeout}s") from None
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from None

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
                    while self._sock.recv(_RECV_CHUNK):
                        pass
                except (BlockingIOError, socket.timeout):
                    pass
                # ...then give the peer a short window to FIN
                self._sock.settimeout(0.2)
                while self._sock.recv(_RECV_CHUNK):
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
