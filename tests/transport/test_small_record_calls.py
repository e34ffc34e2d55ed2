"""Call budgets of the small-record path ``stream_small`` measures.

A ``Flow``-shaped record (eleven scalars, 56 bytes) is one fused run:
one ``Struct.pack`` of header and fields out, one ``unpack_from`` of
the wire in, and a frame already in the receive window comes out of
one reader call; a publish to N subscribers is one write-through pass.
These pins count Python-level calls with ``sys.setprofile``, so a
change that puts a layer of calls back on the path fails here rather
than only as a slower benchmark.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.obs import runtime
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.connection import Connection
from repro.transport.messages import Frame, FrameReader, FrameType
from repro.transport.tcp import TCPChannel, tcp_pair

FLOW = [("seq", "unsigned integer", 4), ("timestep", "integer", 4),
        ("nx", "integer", 2), ("ny", "integer", 2), ("dx", "float", 4),
        ("dy", "float", 4), ("dt", "float", 8), ("viscosity", "float", 4),
        ("rainfall", "float", 4), ("iterations", "integer", 4),
        ("elapsed", "float", 8)]
RECORD = {"seq": 1, "timestep": 2, "nx": 3, "ny": 4, "dx": 0.5,
          "dy": 0.25, "dt": 0.125, "viscosity": 1.5, "rainfall": 2.5,
          "iterations": 7, "elapsed": 9.5}


def python_calls(work) -> Counter:
    """Python-level function calls made while *work()* runs, by name:
    ``Class.method`` for a method, the bare name otherwise (``co_name``
    and the frame's ``self``; ``co_qualname`` is 3.11+)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_name
            owner = frame.f_locals.get("self")
            if owner is not None:
                name = f"{type(owner).__name__}.{name}"
            calls[name] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    calls[work.__code__.co_name] -= 1
    return +calls


@pytest.fixture
def telemetry_off():
    """Sampled phase timings add calls to one message in N; the pin
    counts the path without them."""
    saved, runtime.enabled = runtime.enabled, False
    yield
    runtime.enabled = saved


def test_flow_send_and_receive_stay_within_14_python_calls(telemetry_off):
    """14 calls per ``Connection.send`` + ``receive``: no converter call
    for an exact ``int`` or ``float``, the frame built in C each way,
    the context's sampling and counter row inline, and the record one
    generated unpack at offset 16 of the wire.  With a converter call
    per integer field, ``Frame.__init__``, ``sample_t0`` / ``Tally.row``
    calls and ``RecordDecoder.decode`` around the unpack, it took 24."""
    server = FormatServer()
    tx_ctx = IOContext(format_server=server)
    rx_ctx = IOContext(format_server=server)
    tx_ctx.register_layout("Flow", FLOW)
    a, b = tcp_pair()
    tx, rx = Connection(tx_ctx, a), Connection(rx_ctx, b)
    try:
        for _ in range(3):  # HELLO serviced, plans bound
            tx.send("Flow", RECORD)
            assert rx.receive(timeout=5).record == RECORD
        messages = 20

        def work():
            for _ in range(messages):
                tx.send("Flow", RECORD)
                rx.receive(timeout=5)
        calls = python_calls(work)
        assert sum(calls.values()) <= 14 * messages, calls
        assert calls["FrameReader.frame"] == messages
        # the bound entry is the generated wire decoder itself
        assert calls["_decode"] == messages
        assert "RecordDecoder.decode" not in calls
    finally:
        tx.close()
        rx.close()


def test_fan_out_to_four_is_one_write_through_pass(telemetry_off):
    """``publish`` to four subscribers plus their four receives
    stay within 36 Python calls: the frames go out in **one**
    write-through pass (one lock round trip), not one ``enqueue`` per
    subscriber, and each subscriber's record is its ``recv`` plus one
    unpack."""
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("Flow", FLOW)
    pub = BroadcastPublisher(ctx).start()
    subs = [Connection(IOContext(format_server=FormatServer()),
                       TCPChannel.connect(pub.host, pub.port))
            for _ in range(4)]
    try:
        assert pub.wait_for_subscribers(4, timeout=5)
        for _ in range(3):  # announced, plans bound
            assert pub.publish("Flow", RECORD) == 4
            assert [s.receive(timeout=5).record for s in subs] == \
                [RECORD] * 4
        messages = 20

        def work():
            for _ in range(messages):
                pub.publish("Flow", RECORD)
                for sub in subs:
                    sub.receive(timeout=5)
        calls = python_calls(work)
        assert sum(calls.values()) <= 36 * messages, calls
        assert calls["EventLoopServer.write_through"] == messages
        assert "EventLoopServer.enqueue" not in calls
        assert calls["_decode"] == 4 * messages
    finally:
        for sub in subs:
            sub.close()
        pub.close()


def test_a_frame_in_the_window_comes_out_of_one_call():
    frames = [Frame(FrameType.DATA, b"first"), Frame(FrameType.HELLO, b"x"),
              Frame(FrameType.DATA, bytes(77))]
    wire = b"".join(f.encode() for f in frames)
    reader = FrameReader()

    def read(space):
        space[:len(wire)] = wire
        return len(wire)

    assert reader.fill(read) == len(wire)
    for frame in frames:
        got = []
        calls = python_calls(lambda: got.append(reader.frame(1024)))
        assert got == [frame]
        reader_calls = {name: n for name, n in calls.items()
                        if name.startswith("FrameReader.")}
        assert reader_calls == {"FrameReader.frame": 1}
    assert reader.held == 0 and reader.frame(1024) is None


def test_channel_recv_takes_a_held_frame_without_a_fill():
    a, b = tcp_pair()
    try:
        frames = [Frame(FrameType.DATA, b"one"), Frame(FrameType.DATA, b"two")]
        a._sock.sendall(b"".join(f.encode() for f in frames))
        assert b.recv(timeout=5) == frames[0]
        if not b._reader.held:  # the kernel split the two frames
            pytest.skip("second frame not read with the first")
        got = []
        calls = python_calls(lambda: got.append(b.recv(timeout=5)))
        assert got == [frames[1]]
        assert "FrameReader.fill" not in calls
        assert calls["FrameReader.frame"] == 1
    finally:
        a.close()
        b.close()
