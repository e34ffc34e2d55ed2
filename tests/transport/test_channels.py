"""Channel semantics: in-process and TCP."""

import threading

import pytest

from repro.errors import TransportError
from repro.transport.inproc import channel_pair
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import TCPChannel, TCPListener, tcp_pair


def data(payload: bytes) -> Frame:
    return Frame(FrameType.DATA, payload)


@pytest.fixture(params=["inproc", "tcp"])
def pair(request):
    if request.param == "inproc":
        a, b = channel_pair()
    else:
        a, b = tcp_pair()
    yield a, b
    a.close()
    b.close()


class TestChannelSemantics:
    def test_send_recv(self, pair):
        a, b = pair
        a.send(data(b"hello"))
        assert b.recv(timeout=5).payload == b"hello"

    def test_bidirectional(self, pair):
        a, b = pair
        a.send(data(b"ping"))
        assert b.recv(timeout=5).payload == b"ping"
        b.send(data(b"pong"))
        assert a.recv(timeout=5).payload == b"pong"

    def test_ordering(self, pair):
        a, b = pair
        for i in range(20):
            a.send(data(str(i).encode()))
        got = [b.recv(timeout=5).payload for _ in range(20)]
        assert got == [str(i).encode() for i in range(20)]

    def test_close_delivers_none(self, pair):
        a, b = pair
        a.send(data(b"last"))
        a.close()
        assert b.recv(timeout=5).payload == b"last"
        assert b.recv(timeout=5) is None

    def test_send_after_close_raises(self, pair):
        a, _b = pair
        a.close()
        with pytest.raises(TransportError):
            a.send(data(b"x"))

    def test_recv_timeout(self, pair):
        _a, b = pair
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)

    def test_large_frame(self, pair):
        a, b = pair
        payload = bytes(range(256)) * 4096  # 1 MiB
        a.send(data(payload))
        assert b.recv(timeout=10).payload == payload

    def test_parts_payload_arrives_as_one_buffer(self, pair):
        a, b = pair
        source = bytearray(b"body" * 10)
        parts = (b"head", memoryview(source), b"tail")
        a.send(Frame(FrameType.DATA, parts))
        expected = b"".join(parts)
        source[:] = bytes(len(source))  # the receiver holds its own copy
        got = b.recv(timeout=5).payload
        assert isinstance(got, bytes) and got == expected
        assert a.bytes_sent == 5 + len(expected)

    def test_stats_counters(self, pair):
        a, _b = pair
        a.send(data(b"xyz"))
        assert a.frames_sent == 1
        assert a.bytes_sent >= 3


class TestTCPSpecifics:
    def test_connect_refused(self):
        with pytest.raises(TransportError, match="cannot connect"):
            TCPChannel.connect("127.0.0.1", 1, timeout=2)

    def test_listener_accept_timeout(self):
        with TCPListener() as listener:
            with pytest.raises(TransportError, match="timed out"):
                listener.accept(timeout=0.05)

    def test_threaded_exchange(self):
        a, b = tcp_pair()
        received = []

        def reader():
            while True:
                frame = b.recv(timeout=5)
                if frame is None:
                    break
                received.append(frame.payload)

        t = threading.Thread(target=reader)
        t.start()
        for i in range(50):
            a.send(data(f"m{i}".encode()))
        a.close()
        t.join(5)
        assert received == [f"m{i}".encode() for i in range(50)]
        b.close()


class TestInprocSpecifics:
    def test_byte_time_slows_send(self):
        import time
        a, _b = channel_pair(byte_time=1e-5)
        start = time.perf_counter()
        a.send(data(b"x" * 1000))
        assert time.perf_counter() - start >= 0.01


class TestTCPCloseSemantics:
    def test_send_only_close_does_not_destroy_in_flight_frames(self):
        """Regression: a sender that never reads (its peer's HELLO is
        unread) closing right after large sends must not RST the
        stream — every frame plus end-of-stream must arrive."""
        payload = bytes(range(256)) * 512  # 128 KiB per frame
        a, b = tcp_pair()
        b.send(data(b"unread-greeting"))  # sits unread at a's socket
        for i in range(6):
            a.send(data(payload + bytes([i])))
        a.close()  # immediately after the sends
        got = []
        while True:
            frame = b.recv(timeout=10)
            if frame is None:
                break
            got.append(frame.payload)
        assert len(got) == 6
        assert all(g[:-1] == payload for g in got)
        b.close()

    def test_partial_frame_survives_recv_timeout(self):
        """Regression: a short-timeout recv that fires mid-frame must
        not desynchronize the stream."""
        import time
        a, b = tcp_pair()
        raw = data(b"x" * 100).encode()
        a._sock.sendall(raw[:7])  # first half of a frame
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)
        a._sock.sendall(raw[7:])
        frame = b.recv(timeout=5)
        assert frame.payload == b"x" * 100
        a.close()
        b.close()


class TestConcurrentSenders:
    def test_two_threads_one_channel_no_interleaving(self):
        """Regression: concurrent send() calls used to interleave
        partial writes and corrupt the frame stream."""
        a, b = tcp_pair()
        received = []

        def reader():
            while True:
                frame = b.recv(timeout=10)
                if frame is None:
                    break
                received.append(bytes(frame.payload))

        def writer(tag):
            payload = tag * 8000  # large enough to split sendall
            for i in range(150):
                a.send(data(payload + str(i).encode()))

        r = threading.Thread(target=reader)
        w1 = threading.Thread(target=writer, args=(b"x",))
        w2 = threading.Thread(target=writer, args=(b"y",))
        r.start()
        w1.start()
        w2.start()
        w1.join(30)
        w2.join(30)
        a.close()
        r.join(30)
        assert len(received) == 300
        expected = sorted(
            tag * 8000 + str(i).encode()
            for tag in (b"x", b"y") for i in range(150))
        assert sorted(received) == expected
        b.close()


class _NoSendmsgSocket:
    """Socket proxy without sendmsg — forces the chunked-join path."""

    def __init__(self, sock):
        self._real = sock

    def __getattr__(self, name):
        if name == "sendmsg":
            raise AttributeError(name)
        return getattr(self._real, name)


class TestSendMany:
    def test_fallback_without_sendmsg_chunks_the_join(self):
        """Where sendmsg is unavailable a parts payload ships via
        bounded joins — same bytes on the wire, no whole-frame copy.
        The channel picks its send path when it is built."""
        client, b = tcp_pair()
        a = TCPChannel(_NoSendmsgSocket(client._sock))
        received = []

        def reader():
            while True:
                frame = b.recv(timeout=10)
                if frame is None:
                    break
                received.append(bytes(frame.payload))

        r = threading.Thread(target=reader)
        r.start()
        # three parts of 600 KiB exceed the 1 MiB fallback chunk
        parts = tuple(bytes([i]) * (600 * 1024) for i in range(3))
        a.send(data(parts))
        a.close()
        r.join(30)
        assert received == [b"".join(parts)]
        b.close()


class TestFrameCap:
    def test_oversized_frame_raises_named_error(self):
        from repro.errors import FrameTooLargeError

        a, b = tcp_pair(max_frame_len=1024)
        a.send(data(b"z" * 2048))
        with pytest.raises(FrameTooLargeError) as info:
            b.recv(timeout=5)
        assert info.value.length == 2048 + 1
        assert info.value.limit == 1024
        a.close()
        b.close()

    def test_frames_under_the_cap_still_flow(self):
        a, b = tcp_pair(max_frame_len=1024)
        a.send(data(b"k" * 512))
        assert b.recv(timeout=5).payload == b"k" * 512
        a.close()
        b.close()


class _CountingSocket:
    """Socket proxy that counts sendmsg calls."""

    def __init__(self, sock):
        self._real = sock
        self.sendmsg_calls = 0

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        return self._real.sendmsg(buffers)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _drain(channel, into, *, pause=0.0):
    import time
    while True:
        frame = channel.recv(timeout=20)
        if frame is None:
            return
        into.append(bytes(frame.payload))
        time.sleep(pause)


class TestLargeFrames:
    """Frames above the receive chunk: read by recv_into into a buffer
    of their own, sent as gathered parts."""

    def test_large_frame_in_bursts_survives_recv_timeouts(self):
        a, b = tcp_pair()
        payload = bytes(range(256)) * (8 * 1024)  # 2 MiB
        raw = data(payload).encode()
        cuts = [0, 300 * 1024, 1000 * 1024, len(raw)]
        for start, end in zip(cuts, cuts[1:-1]):
            a._sock.sendall(raw[start:end])
            with pytest.raises(TransportError, match="timed out"):
                b.recv(timeout=0.05)
        tail = threading.Thread(target=a._sock.sendall,
                                args=(raw[cuts[-2]:],))
        tail.start()
        frame = b.recv(timeout=10)
        tail.join(10)
        assert frame.payload == payload
        a.send(data(b"next"))  # and the stream is still in step
        assert b.recv(timeout=5).payload == b"next"
        a.close()
        b.close()

    def test_lying_prefix_costs_what_was_sent(self):
        import struct
        import tracemalloc
        a, b = tcp_pair()
        announced = 200 * 1024 * 1024  # under the 256 MiB cap
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a._sock.sendall(struct.pack(">IB", announced, FrameType.DATA)
                            + b"k" * 1024)
            with pytest.raises(TransportError, match="timed out"):
                b.recv(timeout=0.2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, peak
        a.close()
        b.close()

    def test_partial_sendmsg_resumes_inside_a_part(self):
        import socket
        a, b = tcp_pair()
        a._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                           16 * 1024)
        a._sock.settimeout(20)  # timeout mode: sendmsg writes partially
        a._sock = _CountingSocket(a._sock)
        received = []
        reader = threading.Thread(target=_drain, args=(b, received),
                                  kwargs={"pause": 0.01})
        reader.start()
        grid = bytearray(bytes(range(256)) * (32 * 1024))  # 8 MiB
        parts = (b"head" * 4, memoryview(grid), b"tail")
        a.send(Frame(FrameType.DATA, parts))
        assert a._sock.sendmsg_calls > 1
        assert a.bytes_sent == 5 + sum(len(p) for p in parts)
        assert a.frames_sent == 1
        expected = b"".join(parts)
        grid[:] = bytes(len(grid))  # send returned: source is ours again
        a.close()
        reader.join(30)
        assert not reader.is_alive()
        assert received == [expected]
        b.close()

    def test_two_threads_large_parts_frames_do_not_interleave(self):
        a, b = tcp_pair()
        received = []
        reader = threading.Thread(target=_drain, args=(b, received))
        reader.start()

        def writer(tag):
            body = memoryview(tag * (300 * 1024))
            for i in range(12):
                a.send(Frame(FrameType.DATA,
                             (tag * 16, body, b"%02d" % i)))

        writers = [threading.Thread(target=writer, args=(tag,))
                   for tag in (b"x", b"y")]
        for w in writers:
            w.start()
        for w in writers:
            w.join(30)
            assert not w.is_alive()
        a.close()
        reader.join(30)
        assert not reader.is_alive()
        assert sorted(received) == sorted(
            tag * (16 + 300 * 1024) + b"%02d" % i
            for tag in (b"x", b"y") for i in range(12))
        b.close()
