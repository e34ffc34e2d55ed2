"""The TCP receive window: ``TCPChannel.recv`` reads into one standing
``bytearray`` with ``lo``/``hi`` cursors.  Whatever the chunking of the
byte stream, it yields exactly the frames ``iter_frames`` parses from
the same bytes; a frame straddling the window's end, a timed-out read
mid-frame and EOF at any offset keep the stream in step.

``REPRO_FUZZ_ITERATIONS`` scales the number of random streams (one
per thousand iterations; CI's fuzz smoke runs 10 000).
"""

from __future__ import annotations

import itertools
import os
import random
import struct
import threading

import pytest

from repro.errors import FrameTooLargeError, ProtocolError, TransportError
from repro.transport.eventloop import iter_frames
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import tcp_pair

ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "10000"))
STREAMS = max(1, ITERATIONS // 1000)
SEED = 20261017
WINDOW = 4 + 64 * 1024  # what the channel's window holds whole
CONTROL = [(FrameType.HELLO, b"x86_64"), (FrameType.FMT_REQ, bytes(8)),
           (FrameType.STATS_REQ, b""), (FrameType.LIN_REQ, b"\x01a\x00"),
           (FrameType.BYE, b"")]


def random_stream(rng: random.Random) -> list[Frame]:
    """Small DATA frames and control frames, one DATA_BATCH, one DATA
    and one control frame over 64 KiB and one DATA frame at the
    window's edge, in random order."""
    frames = [Frame(FrameType.DATA, rng.randbytes(rng.randint(0, 300)))
              for _ in range(rng.randint(5, 30))]
    frames += [Frame(*rng.choice(CONTROL)) for _ in range(3)]
    frames.append(Frame(FrameType.DATA_BATCH,
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


def test_recv_yields_what_iter_frames_parses(pair):
    a, b = pair
    rng = random.Random(SEED)
    for _ in range(STREAMS):
        frames = random_stream(rng)
        raw = b"".join(f.encode() for f in frames)
        expected = as_tuples(iter_frames(bytearray(raw)))
        assert expected == as_tuples(frames)
        writer = threading.Thread(target=lambda: [
            a._sock.sendall(chunk) for chunk in chunks(rng, raw)])
        writer.start()
        got = [b.recv(timeout=10) for _ in frames]
        writer.join(10)
        assert as_tuples(got) == expected
        # only a record payload may stay a view of a receive buffer
        assert all(type(f.payload) is bytes for f in got
                   if f.type not in (FrameType.DATA, FrameType.DATA_BATCH))


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
    second = Frame(FrameType.DATA, b"y" * 1000)
    raw = first.encode() + second.encode()
    a._sock.sendall(raw[:WINDOW])  # the window fills up exactly
    assert b.recv(timeout=5) == first
    window = b._window
    with pytest.raises(TransportError, match="timed out"):
        b.recv(timeout=0.01)  # 10 bytes of `second` in hand, no more
    a._sock.sendall(raw[WINDOW:])
    assert b.recv(timeout=5) == second
    assert b._window is window  # moved to the front, never regrown


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


def eof_case(raw: bytes, cut: int) -> list:
    """Frames received from *raw* cut at *cut* and then closed; the
    last entry is None (orderly EOF) or the error raised."""
    a, b = tcp_pair()
    try:
        a._sock.sendall(raw[:cut])
        a._sock.shutdown(2)
        out = []
        while True:
            try:
                frame = b.recv(timeout=5)
            except TransportError as exc:
                out.append(exc)
                return out
            out.append(frame)
            if frame is None:
                return out
    finally:
        a._sock.close()
        b.close()


def test_eof_at_every_offset():
    frames = [Frame(FrameType.HELLO, b"arch"), Frame(FrameType.DATA, b""),
              Frame(FrameType.DATA, b"record bytes")]
    raw = b"".join(f.encode() for f in frames)
    ends = list(itertools.accumulate(len(f.encode()) for f in frames))
    for cut in range(len(raw) + 1):
        got = eof_case(raw, cut)
        assert got[:-1] == [f for f, end in zip(frames, ends)
                            if end <= cut], cut
        if cut in (0, *ends):
            assert got[-1] is None, cut
        else:
            assert isinstance(got[-1], TransportError), cut
            assert "closed mid-frame" in str(got[-1])


def test_eof_inside_a_large_frame():
    large = Frame(FrameType.DATA, bytes(100 * 1024))
    raw = large.encode()
    for cut in (1, 4, 5, 6, WINDOW, len(raw) - 1):
        (error,) = eof_case(raw, cut)
        assert isinstance(error, TransportError)
        assert "closed mid-frame" in str(error)
    assert eof_case(raw, len(raw)) == [large, None]


MALFORMED = {
    "zero_length": struct.pack(">I", 0),
    "oversized": struct.pack(">IB", 1025, FrameType.DATA) + bytes(1024),
    "unknown_type": struct.pack(">IB", 3, 99) + b"xy",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_one_error_for_one_malformed_prefix(case):
    """The channel and the event loop's parser reject each bad prefix
    with the same error type and message."""
    raw = MALFORMED[case]
    with pytest.raises(ProtocolError) as parsed:
        list(iter_frames(bytearray(raw), 1024))
    a, b = tcp_pair(max_frame_len=1024)
    try:
        a._sock.sendall(raw)
        with pytest.raises(ProtocolError) as received:
            b.recv(timeout=5)
    finally:
        close_both(a, b)
    assert type(received.value) is type(parsed.value)
    assert str(received.value) == str(parsed.value)
    assert isinstance(received.value, FrameTooLargeError) == \
        (case == "oversized")
