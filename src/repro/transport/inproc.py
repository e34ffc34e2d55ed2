"""In-process channel pair.

Two queue-backed endpoints with channel semantics.  Used by unit tests,
the latency benches (where a simulated per-byte link cost can be
injected to model the paper's network, see ``byte_time``), and the
single-process Hydrology pipeline.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.errors import TransportError
from repro.transport.base import Channel
from repro.transport.messages import Frame

_CLOSE = object()


class InProcChannel(Channel):
    """One endpoint of an in-process pair (build with
    :func:`channel_pair`)."""

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue", *,
                 byte_time: float = 0.0) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._closed = threading.Event()
        self._peer_closed = threading.Event()
        #: simulated transmission seconds per payload byte; lets the
        #: application-latency bench model a finite-bandwidth link.
        self.byte_time = byte_time
        self.bytes_sent = 0
        self.frames_sent = 0

    def send(self, frame: Frame) -> None:
        if self._closed.is_set():
            raise TransportError("send on closed channel")
        if type(frame.payload) is tuple:  # parts alias the sender's arrays
            frame = Frame(frame.type, b"".join(frame.payload))
        if self.byte_time:
            time.sleep(self.byte_time * (len(frame.payload) + 5))
        self.bytes_sent += len(frame.payload) + 5
        self.frames_sent += 1
        self._outbox.put(frame)

    def recv(self, timeout: float | None = None) -> Frame | None:
        if self._peer_closed.is_set() and self._inbox.empty():
            return None
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"recv timed out after {timeout}s") from None
        if item is _CLOSE:
            self._peer_closed.set()
            return None
        return item

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._outbox.put(_CLOSE)


def channel_pair(*, byte_time: float = 0.0) \
        -> tuple[InProcChannel, InProcChannel]:
    """Create a connected pair of in-process channels."""
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    a = InProcChannel(inbox=b_to_a, outbox=a_to_b, byte_time=byte_time)
    b = InProcChannel(inbox=a_to_b, outbox=b_to_a, byte_time=byte_time)
    return a, b
