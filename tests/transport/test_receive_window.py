"""The one frame reassembler, ``FrameReader``, behind its three
feeders: ``TCPChannel.recv`` (blocking, under a deadline), an
``EventLoopServer`` client (non-blocking) and a shard's
``ControlSocket`` (``recvmsg_into`` with ``SCM_RIGHTS``).  Whatever the
chunking of the byte stream, each yields exactly the frames the
reference parser (``tests/transport/frames.py``) takes from the same
bytes; a frame straddling the window's end, a timed-out read mid-frame,
EOF at any offset and every malformed prefix keep them in step.

``REPRO_FUZZ_ITERATIONS`` scales the number of random streams (one
per thousand iterations; CI's fuzz smoke runs 10 000).
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import struct
import threading

import pytest

from repro.errors import FrameTooLargeError, ProtocolError, TransportError
from repro.obs import runtime
from repro.obs.metrics import MALFORMED_FRAMES
from repro.transport.eventloop import EventLoopServer
from repro.transport.messages import MAX_FRAME, Frame, FrameType
from repro.transport.sharded import _MAX_CTL_FRAME, ControlSocket
from repro.transport.tcp import tcp_pair
from tests.transport.frames import iter_frames

ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "10000"))
STREAMS = max(1, ITERATIONS // 1000)
SEED = 20261017
WINDOW = 4 + 64 * 1024  # what the reader's window holds whole
CONTROL = [(FrameType.HELLO, b"x86_64"), (FrameType.FMT_REQ, bytes(8)),
           (FrameType.STATS_REQ, b""), (FrameType.LIN_REQ, b"\x01a\x00"),
           (FrameType.BYE, b"")]


def random_stream(rng: random.Random) -> list[Frame]:
    """Small DATA frames and control frames, one DATA frame up to
    4 KiB, one DATA and one control frame over 64 KiB and one DATA
    frame at the window's edge, in random order."""
    frames = [Frame(FrameType.DATA, rng.randbytes(rng.randint(0, 300)))
              for _ in range(rng.randint(5, 30))]
    frames += [Frame(*rng.choice(CONTROL)) for _ in range(3)]
    frames.append(Frame(FrameType.DATA,
                        rng.randbytes(rng.randint(16, 4096))))
    frames.append(Frame(FrameType.DATA, rng.randbytes(
        rng.randint(64 * 1024 + 1, 200 * 1024))))
    frames.append(Frame(FrameType.STATS_RSP, rng.randbytes(
        rng.randint(64 * 1024 + 1, 100 * 1024))))
    edge = WINDOW - 5 + rng.randint(-2, 2)  # small, large, or exact fit
    frames.append(Frame(FrameType.DATA, rng.randbytes(edge)))
    rng.shuffle(frames)
    return frames


def chunks(rng: random.Random, raw: bytes):
    """*raw* cut at random: 1 B to 100 KiB, small cuts as often as
    large ones."""
    start = 0
    while start < len(raw):
        size = rng.choice((rng.randint(1, 16), rng.randint(1, 100 * 1024)))
        yield raw[start:start + size]
        start += size


def as_tuples(frames) -> list[tuple]:
    return [(f.type, bytes(f.payload)) for f in frames]


def outcome(item):
    """What a reader produced, comparable across readers: a frame (or
    control message) as ``(type byte, payload)``, an error as ``(type,
    message)``, an orderly end as None."""
    if item is None:
        return None
    if isinstance(item, BaseException):
        return type(item), str(item)
    if isinstance(item, Frame):
        return int(item.type), bytes(item.payload)
    kind, payload, _fd = item
    return kind, payload


def close_both(a, b) -> None:
    """Close both ends at once: each sees the other's FIN at once
    instead of lingering for it."""
    closer = threading.Thread(target=a.close)
    closer.start()
    b.close()
    closer.join(5)


@pytest.fixture
def pair():
    a, b = tcp_pair()
    yield a, b
    close_both(a, b)


def send_all(sock, pieces, *, eof: bool) -> threading.Thread:
    """Write *pieces* one ``sendall`` each on a thread of their own,
    then half-close when *eof*."""
    def run():
        for piece in pieces:
            sock.sendall(piece)
        if eof:
            sock.shutdown(socket.SHUT_WR)
    writer = threading.Thread(target=run)
    writer.start()
    return writer


def through_channel(pieces, count=None, limit=MAX_FRAME) -> list:
    """``TCPChannel.recv`` on *pieces*: *count* frames, or (with no
    count) everything up to EOF or an error."""
    a, b = tcp_pair(max_frame_len=limit)
    writer = send_all(a._sock, pieces, eof=count is None)
    got: list = []
    try:
        while count is None or len(got) < count:
            try:
                item = b.recv(timeout=10)
            except TransportError as exc:
                item = exc
            got.append(item)
            if not isinstance(item, Frame):
                break
    finally:
        writer.join(10)
        close_both(a, b)
    return got


class Recorder:
    """Event-loop handler keeping what its one client delivered; the
    client's disconnect reason (None for an orderly close) ends it."""

    def __init__(self) -> None:
        self.items: list = []
        self.ended = False
        self.changed = threading.Condition()

    def on_frame(self, client, frame) -> None:
        with self.changed:
            self.items.append(frame)
            self.changed.notify_all()

    def on_disconnect(self, client, reason) -> None:
        with self.changed:
            self.items.append(reason)
            self.ended = True
            self.changed.notify_all()


def through_event_loop(pieces, count=None, limit=MAX_FRAME) -> list:
    """An ``EventLoopServer`` client fed *pieces*, as
    :func:`through_channel`."""
    recorder = Recorder()
    with EventLoopServer(handler=recorder, max_frame_len=limit) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        writer = send_all(sock, pieces, eof=count is None)
        with recorder.changed:
            assert recorder.changed.wait_for(
                lambda: recorder.ended or count is not None
                and len(recorder.items) >= count, 10)
            got = list(recorder.items)
        writer.join(10)
        sock.close()
    return got


def through_control_socket(pieces, count=None,
                           limit=_MAX_CTL_FRAME) -> list:
    """``ControlSocket.recv`` fed *pieces*, as :func:`through_channel`;
    its cap is fixed."""
    assert limit == _MAX_CTL_FRAME
    ours, theirs = socket.socketpair()
    reader = ControlSocket(theirs)
    writer = send_all(ours, pieces, eof=count is None)
    got: list = []
    try:
        while count is None or len(got) < count:
            try:
                item = reader.recv(10)
            except ProtocolError as exc:
                item = exc
            got.append(item)
            if type(item) is not tuple:
                break
    finally:
        writer.join(10)
        ours.close()
        reader.close()
    return got


FEEDERS = {"channel": through_channel, "event_loop": through_event_loop,
           "control_socket": through_control_socket}


def fuzzed_streams():
    """``STREAMS`` random streams back to back, cut at random, and the
    reference parser's reading of them."""
    rng = random.Random(SEED)
    frames = [frame for _ in range(STREAMS) for frame in random_stream(rng)]
    raw = b"".join(f.encode() for f in frames)
    expected = [outcome(f) for f in iter_frames(bytearray(raw))]
    assert expected == [outcome(f) for f in frames]
    return list(chunks(rng, raw)), expected


def only_records_are_views(got) -> bool:
    """Only a record payload may stay a view of a receive buffer."""
    return all(type(f.payload) is bytes for f in got
               if f.type != FrameType.DATA)


def test_recv_yields_what_iter_frames_parses():
    pieces, expected = fuzzed_streams()
    got = through_channel(pieces, len(expected))
    assert [outcome(f) for f in got] == expected
    assert only_records_are_views(got)


def test_event_loop_client_yields_what_iter_frames_parses():
    pieces, expected = fuzzed_streams()
    got = through_event_loop(pieces, len(expected))
    assert [outcome(f) for f in got] == expected
    assert only_records_are_views(got)


def test_control_socket_yields_what_iter_frames_parses():
    pieces, expected = fuzzed_streams()
    got = through_control_socket(pieces, len(expected))
    assert [outcome(m) for m in got] == expected
    assert all(type(m[1]) is bytes and m[2] is None for m in got)


def test_large_frame_read_together_with_small_ones(pair):
    """Small frames and the head of a large one in the same read: the
    small ones come out of the window, the head moves to the large
    frame's own buffer."""
    a, b = pair
    small = [Frame(FrameType.DATA, b"s%d" % i) for i in range(3)]
    large = Frame(FrameType.DATA, bytes(range(256)) * 400)  # 100 KiB
    raw = b"".join(f.encode() for f in small + [large])
    a._sock.sendall(raw[:20 * 1024])  # in the kernel before any recv
    assert as_tuples(b.recv(timeout=5) for _ in small) == \
        as_tuples(small)
    a._sock.sendall(raw[20 * 1024:])
    got = b.recv(timeout=5)
    assert got == large and got.payload.readonly


def test_frame_straddling_the_window_end_compacts(pair):
    a, b = pair
    first = Frame(FrameType.DATA, bytes(WINDOW - 5 - 10))  # ends 10 B short
    # the second frame runs far past the window's end, or by one byte
    for second in (Frame(FrameType.DATA, b"y" * 1000),
                   Frame(FrameType.DATA, b"z" * 6)):
        raw = first.encode() + second.encode()
        a._sock.sendall(raw[:WINDOW])  # the window fills up exactly
        assert b.recv(timeout=5) == first
        window = b._reader._window
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.01)  # 10 bytes of `second` in hand, no more
        a._sock.sendall(raw[WINDOW:])
        assert b.recv(timeout=5) == second
        assert b._reader._window is window  # moved to the front, not regrown


@pytest.mark.parametrize("size", [100, 200 * 1024], ids=["small", "large"])
def test_timeout_mid_frame_then_resume(pair, size):
    a, b = pair
    frame = Frame(FrameType.DATA, (bytes(range(256)) * 800)[:size])
    after = Frame(FrameType.HELLO, b"next")
    raw = frame.encode() + after.encode()
    cut = len(raw) // 2
    a._sock.sendall(raw[:cut])
    with pytest.raises(TransportError, match="timed out"):
        b.recv(timeout=0.01)
    a._sock.sendall(raw[cut:])
    assert b.recv(timeout=5) == frame
    assert b.recv(timeout=5) == after


def test_eof_at_every_offset():
    """Every frame whole before the cut comes out of every reader;
    then the channel reports an orderly close at a frame boundary and
    ``closed mid-frame`` anywhere else, and the event loop and the
    control socket just end."""
    frames = [Frame(FrameType.HELLO, b"arch"), Frame(FrameType.DATA, b""),
              Frame(FrameType.DATA, b"record bytes")]
    raw = b"".join(f.encode() for f in frames)
    ends = list(itertools.accumulate(len(f.encode()) for f in frames))
    for name, feed in FEEDERS.items():
        for cut in range(len(raw) + 1):
            got = [outcome(item) for item in feed([raw[:cut]])]
            assert got[:-1] == [outcome(f) for f, end in zip(frames, ends)
                                if end <= cut], (name, cut)
            if name == "channel" and cut not in (0, *ends):
                assert got[-1] == (TransportError,
                                   "connection closed mid-frame"), cut
            else:
                assert got[-1] is None, (name, cut)


def test_eof_inside_a_large_frame():
    large = Frame(FrameType.DATA, bytes(100 * 1024))
    raw = large.encode()
    mid_frame = {"channel": (TransportError, "connection closed mid-frame"),
                 "event_loop": None, "control_socket": None}
    for name, feed in FEEDERS.items():
        for cut in (1, 4, 5, 6, WINDOW, len(raw) - 1):
            got = [outcome(item) for item in feed([raw[:cut]])]
            assert got == [mid_frame[name]], (name, cut)
        assert [outcome(item) for item in feed([raw])] == \
            [outcome(large), None], name


def malformed(case: str, limit: int) -> bytes:
    return {"zero_length": struct.pack(">I", 0),
            "oversized": struct.pack(">IB", limit + 1, FrameType.DATA),
            "unknown_type": struct.pack(">IB", 3, 99) + b"xy",
            # 9 carried shared-header record batches; it is retired
            "retired_type_9": struct.pack(">IB", 3, 9) + b"xy"}[case]


#: each reader's frame cap here (the control socket's is fixed)
LIMITS = {"channel": 1024, "event_loop": 1024,
          "control_socket": _MAX_CTL_FRAME}
#: the malformed-frame counter the event loop bumps for each case
REASONS = {"zero_length": "zero_length_frame",
           "oversized": "oversized_frame", "unknown_type": "bad_frame",
           "retired_type_9": "bad_frame"}


@pytest.mark.parametrize("case", list(REASONS))
def test_one_error_for_one_malformed_prefix(case):
    """Every reader rejects each bad prefix with the reference
    parser's error type and message — except a type byte on the
    control socket, whose kinds are not frame types: it is handed on
    for the worker to act on (9 is its STOP) or ignore.  The event
    loop counts each rejection under the reason its error names."""
    saved, runtime.enabled = runtime.enabled, True
    try:
        for name, feed in FEEDERS.items():
            limit = LIMITS[name]
            raw = malformed(case, limit)
            with pytest.raises(ProtocolError) as parsed:
                list(iter_frames(bytearray(raw), limit))
            counter = MALFORMED_FRAMES.labels("eventloop", REASONS[case])
            before = counter.value
            got = [outcome(item) for item in feed([raw], limit=limit)]
            if name == "control_socket" and case in ("unknown_type",
                                                     "retired_type_9"):
                assert got == [(raw[4], b"xy"), None]
                continue
            assert got == [outcome(parsed.value)], name
            assert isinstance(parsed.value, FrameTooLargeError) == \
                (case == "oversized")
            if case == "retired_type_9":
                assert str(parsed.value) == "unknown frame type 9"
            assert counter.value == before + (name == "event_loop"), name
    finally:
        runtime.enabled = saved
