"""Write-through fan-out: ``EventLoopServer.enqueue`` sends on the
caller's thread while the client's queue is empty; the loop thread
only drains what the kernel would not take.  Counter- and byte-exact:
nothing here passes or fails on timing."""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import SlowConsumerError, TransportError
from repro.pbio.context import IOContext
from repro.pbio.encode import BULK_STATS
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.connection import Connection
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames
from tests.transport.test_broadcast import SPECS, wait_until

#: far more than a 4 KiB SO_SNDBUF / SO_RCVBUF pair absorbs (~12 KiB
#: on loopback), so a stalled reader always leaves the head partial
BIG = 8192


def record(step: int, n: int = 2) -> dict:
    return {"timestep": step, "data": [0.5 * step] * n}


def make_publisher(cls=BroadcastPublisher, **kwargs):
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("SimpleData", SPECS)
    return cls(ctx, **kwargs).start()


class Reader(threading.Thread):
    """Collects one subscriber socket's raw bytes until EOF / reset;
    ``resume`` unset makes it a stalled reader until set."""

    def __init__(self, sock: socket.socket, *, stalled: bool = False):
        super().__init__(daemon=True)
        self.sock = sock
        self.buf = bytearray()
        self.resume = threading.Event()
        if not stalled:
            self.resume.set()
        self.start()

    def run(self):
        self.resume.wait()
        try:
            while True:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    return
                self.buf.extend(chunk)
        except OSError:
            pass  # evicted: what arrived before the reset is kept

    def frames(self) -> list[Frame]:
        """Every whole frame received; raises if the stream lost its
        framing, and insists nothing is left over after a clean EOF."""
        assert not self.is_alive()
        return list(iter_frames(self.buf))


def subscribe(pub, *, sndbuf=None, stalled=False):
    """One raw-socket subscriber; *sndbuf* shrinks the publisher-side
    send buffer so frames stop writing through after a few KiB."""
    before = {c.id for c in pub.server.clients()}
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if sndbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, sndbuf)
    sock.connect((pub.host, pub.port))
    assert pub.wait_for_subscribers(len(before) + 1, timeout=5)
    (client,) = [c for c in pub.server.clients()
                 if c.id not in before]
    if sndbuf is not None:
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                               sndbuf)
    return Reader(sock, stalled=stalled), client


def spy_on_wake(pub) -> list:
    """Count ``Poller.wake`` calls from here on."""
    poller, calls = pub.server._poller, []
    wake = poller.wake

    def spy():
        calls.append(threading.get_ident())
        wake()

    poller.wake = spy
    return calls


def data_steps(pub, frames) -> list[int]:
    """Timesteps of the DATA frames, each checked byte for byte
    against what the publisher's context encodes for that step."""
    sub = IOContext(format_server=FormatServer())
    steps = []
    for frame in frames:
        if frame.type == FrameType.FMT_RSP:
            sub.format_server.import_bytes(bytes(frame.payload[8:]))
        elif frame.type == FrameType.DATA:
            got = sub.decode(frame.payload).record
            n = len(got["data"])
            assert bytes(frame.payload) == pub.context.encode(
                "SimpleData", record(got["timestep"], n))
            steps.append(got["timestep"])
    return steps


# -- (a) steady state: no wake-ups, nothing queued ---------------------------

def spy_calls(monkeypatch, owner, name: str) -> list:
    """Count calls of *owner*'s attribute *name* from here on."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_steady_state_never_wakes_the_loop_or_queues(monkeypatch):
    pub = make_publisher()
    subs = [subscribe(pub) for _ in range(4)]
    clients = [client for _reader, client in subs]
    assert pub.publish("SimpleData", record(0)) == 4  # announcements
    base = [(c.frames_enqueued, c.frames_sent, c.sent_bytes)
            for c in clients]
    stats0 = pub.stats.as_dict()
    frame_len = 5 + len(pub.context.encode("SimpleData", record(1)))
    wakes = spy_on_wake(pub)
    # the steady state is one enqueue per subscriber and nothing else:
    # no client-list copy, no policy branch, no announcement probe that
    # runs Python, no FormatID hashed
    spies = {name: spy_calls(monkeypatch, owner, name)
             for owner, name in ((pub.server, "enqueue"),
                                 (pub.server, "clients"),
                                 (pub, "_offer"), (pub, "_announce_id"),
                                 (FormatID, "__hash__"))}
    for step in range(1, 1001):
        assert pub.publish("SimpleData", record(step)) == 4
        assert [c.queued_bytes for c in clients] == [0, 0, 0, 0]
    monkeypatch.undo()
    assert wakes == []
    assert {name: len(calls) for name, calls in spies.items()} == {
        "enqueue": 4000, "clients": 0, "_offer": 0, "_announce_id": 0,
        "__hash__": 0}
    for client, (enqueued, sent, sent_bytes) in zip(clients, base):
        assert client.frames_enqueued - enqueued == 1000
        assert client.frames_sent - sent == 1000
        assert client.sent_bytes - sent_bytes == 1000 * frame_len
        assert not client.write_queue and client.head_offset == 0
    stats = pub.stats.as_dict()
    assert stats["frames_enqueued"] - stats0["frames_enqueued"] == 4000
    assert stats["bytes_queued"] - stats0["bytes_queued"] == \
        4000 * frame_len
    assert stats["queue_high_water"] == 0  # nothing waited in user space
    totals = pub.server.totals()
    assert totals["frames_enqueued"] == totals["frames_sent"]
    pub.close()
    for reader, _client in subs:
        reader.join(10)
        frames = reader.frames()
        assert not reader.buf
        assert data_steps(pub, frames) == list(range(1001))
        assert frames[-1].type == FrameType.BYE


# -- (b) the write-through / queue boundary, once per policy -----------------

QUEUE = 256 * 1024


def stall(policy, **kwargs):
    """A publisher with one stalled subscriber whose first big frame
    wrote partially; later frames queue behind it on one wake."""
    pub = make_publisher(policy=policy, max_queue_bytes=QUEUE,
                         **kwargs)
    reader, client = subscribe(pub, sndbuf=4096, stalled=True)
    wakes = spy_on_wake(pub)
    assert pub.publish("SimpleData", record(0, BIG)) == 1
    assert client.head_offset > 0 and len(client.write_queue) == 1
    assert client.queued_bytes == \
        len(client.write_queue[0][0]) - client.head_offset
    assert pub.stats.queue_high_water == client.queued_bytes
    for step in (1, 2, 3):
        assert pub.publish("SimpleData", record(step, BIG)) == 1
    # only the empty -> non-empty transition woke the loop, and it
    # came from the publishing thread
    assert wakes == [threading.get_ident()]
    assert len(client.write_queue) == 4
    assert client.frames_sent == 2  # HELLO and the announcement
    return pub, reader, client


def test_block_policy_waits_then_delivers_everything_in_order():
    pub, reader, client = stall("block", block_timeout=30.0)
    resumer = threading.Thread(
        target=lambda: (wait_until(lambda: pub.stats.block_waits > 0),
                        reader.resume.set()), daemon=True)
    resumer.start()
    for step in range(4, 40):
        assert pub.publish("SimpleData", record(step, BIG)) == 1
    resumer.join(10)
    stats = pub.stats.as_dict()
    assert stats["block_waits"] > 0
    assert stats["frames_dropped"] == stats["clients_evicted"] == 0
    pub.close(timeout=30)
    reader.join(30)
    frames = reader.frames()
    assert not reader.buf
    assert data_steps(pub, frames) == list(range(40))
    assert client.frames_sent == client.frames_enqueued
    assert client.close_reason is None


def test_drop_oldest_never_drops_the_partial_head():
    pub, reader, client = stall("drop-oldest")
    step = 4
    while pub.stats.frames_dropped < 5:
        assert pub.publish("SimpleData", record(step, BIG)) == 1
        step += 1
        assert step < 200
    assert client.head_offset > 0  # still the frame of step 0
    assert client.queued_bytes <= QUEUE
    assert pub.stats.clients_evicted == 0
    dropped = client.frames_dropped
    reader.resume.set()
    pub.close(timeout=30)
    reader.join(30)
    frames = reader.frames()
    assert not reader.buf
    steps = data_steps(pub, frames)
    assert steps[0] == 0  # the half-written head went out whole
    assert steps == sorted(set(steps))
    assert len(steps) == step - dropped
    assert frames[-1].type == FrameType.BYE


def test_disconnect_slow_evicts_with_the_named_error():
    pub, reader, client = stall("disconnect-slow")
    step = 4
    while pub.stats.clients_evicted == 0:
        pub.publish("SimpleData", record(step, BIG))
        step += 1
        assert step < 200
    assert wait_until(lambda: not client.open)
    assert isinstance(client.close_reason, SlowConsumerError)
    assert pub.stats.frames_dropped == 0
    assert pub.publish("SimpleData", record(step, BIG)) == 0
    reader.resume.set()
    reader.join(10)
    # whatever reached the peer before the close is an exact prefix
    # of the stream: whole frames in order, then at most a torn one
    steps = data_steps(pub, list(iter_frames(reader.buf)))
    assert steps == list(range(len(steps)))
    pub.close()


# -- (c) two threads, one client ---------------------------------------------

@pytest.mark.parametrize("sndbuf", [None, 4096])
def test_publisher_and_loop_replies_interleave_framed(sndbuf):
    """The publishing thread's DATA frames and the loop thread's
    FMT_RSP replies share one socket; whichever side of the
    write-through/queue boundary each lands on, the stream stays
    whole frames with each thread's frames in its own order."""
    pub = make_publisher(block_timeout=30.0)
    fid = pub.context.lookup_format("SimpleData").format_id
    reader, client = subscribe(pub, sndbuf=sndbuf)
    request = Frame(FrameType.FMT_REQ, fid.to_bytes()).encode()
    storm = threading.Thread(
        target=lambda: [reader.sock.sendall(request * 10)
                        for _ in range(50)], daemon=True)
    storm.start()
    n = 8 if sndbuf is None else 2048
    for step in range(500):
        assert pub.publish("SimpleData", record(step, n)) == 1
    storm.join(30)
    assert wait_until(lambda: client.frames_received == 500)
    pub.close(timeout=30)
    reader.join(30)
    frames = reader.frames()
    assert not reader.buf
    assert data_steps(pub, frames) == list(range(500))
    replies = [f for f in frames if f.type == FrameType.FMT_RSP]
    assert len(replies) == 501  # the announcement + one per request
    assert len({bytes(f.payload) for f in replies}) == 1
    assert client.frames_sent == client.frames_enqueued == len(frames)
    if sndbuf is not None:  # both sides of the boundary were used
        assert 0 < client.queue_high_water
        assert client.sent_bytes > client.queue_high_water


# -- (d) send errors belong to the loop thread -------------------------------

class RecordingPublisher(BroadcastPublisher):
    def __init__(self, context, **kwargs):
        self.disconnects = []
        super().__init__(context, **kwargs)

    def on_disconnect(self, client, reason):
        self.disconnects.append(
            (client.id, threading.get_ident(), reason))


def test_peer_reset_before_publish_closes_on_the_loop_thread():
    pub = make_publisher(RecordingPublisher)
    reader, client = subscribe(pub, stalled=True)
    reader.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
    reader.sock.close()  # RST, not FIN
    pub.publish("SimpleData", record(1))  # must not raise
    # the loop clears client.open before it runs on_disconnect, so
    # wait for the callback itself
    assert wait_until(lambda: pub.disconnects)
    assert not client.open
    pub.publish("SimpleData", record(2))
    ((cid, thread, reason),) = pub.disconnects
    assert cid == client.id
    assert thread == pub.server._thread.ident
    assert isinstance(reason, TransportError)
    reader.resume.set()
    pub.close()


class BrokenPipeSock:
    """The accepted socket, except that every write fails."""

    def __init__(self, sock):
        self._sock = sock
        self.send_threads = []

    def send(self, data):
        self.send_threads.append(threading.get_ident())
        raise BrokenPipeError(32, "Broken pipe")

    def sendmsg(self, buffers):
        return self.send(buffers)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_send_error_on_the_publishing_thread_never_raises_there():
    """The peer is alive and silent, so only the publisher's own
    ``send`` can discover the error: it must come back as a queued
    frame, and the close must happen once, on the loop thread."""
    pub = make_publisher(RecordingPublisher)
    reader, client = subscribe(pub)
    healthy, healthy_client = subscribe(pub)
    assert pub.publish("SimpleData", record(0)) == 2  # announced
    client.sock = BrokenPipeSock(client.sock)
    assert pub.publish("SimpleData", record(1)) == 2
    assert wait_until(lambda: pub.disconnects)  # see the test above
    assert not client.open
    loop = pub.server._thread.ident
    assert client.sock.send_threads == [threading.get_ident()]
    ((cid, thread, reason),) = pub.disconnects
    assert (cid, thread) == (client.id, loop)
    assert isinstance(reason, TransportError)
    assert "send failed" in str(reason)
    assert pub.publish("SimpleData", record(2)) == 1
    assert healthy_client.open
    pub.close()
    healthy.join(10)
    reader.join(10)
    assert data_steps(pub, healthy.frames()) == [0, 1, 2]


# -- (e) a large frame: partial write, loop drains, still one copy -----------

def test_large_grid_writes_partially_and_the_loop_drains_the_rest():
    cells = 256 * 1024  # float32 -> 1 MiB
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("Grid", [("step", "integer"), ("n", "integer"),
                                 ("cells", "float[n]", 4)])
    pub = BroadcastPublisher(ctx).start()
    reader, client = subscribe(pub, sndbuf=64 * 1024, stalled=True)
    grid = {"step": 3, "n": cells,
            "cells": np.arange(cells, dtype=np.float32)}
    before = BULK_STATS.snapshot()
    wakes = spy_on_wake(pub)
    assert pub.publish("Grid", grid) == 1
    delta = {key: value - before[key]
             for key, value in BULK_STATS.snapshot().items()}
    # the codec copied nothing; the frame join is the single copy
    assert delta["copied_bytes"] == 0 and delta["copied_arrays"] == 0
    assert delta["spilled_segments"] == 1
    assert delta["spilled_bytes"] == grid["cells"].nbytes
    assert 0 < client.head_offset < grid["cells"].nbytes
    assert len(wakes) == 1
    assert pub.stats.queue_high_water >= client.queued_bytes > 0
    sub = Connection(IOContext(format_server=FormatServer()),
                     TCPChannel(reader.sock), arrays="numpy")
    got = sub.receive(timeout=30)
    assert got.record["step"] == 3
    assert np.array_equal(got.record["cells"], grid["cells"])
    assert pub.flush(timeout=10)
    assert client.queued_bytes == 0 and client.head_offset == 0
    assert client.frames_sent == client.frames_enqueued == 3
    assert BULK_STATS.snapshot()["copied_bytes"] == \
        before["copied_bytes"]
    pub.close()
    sub.close()
    reader.resume.set()


# -- (f) cutover ordering across the boundary --------------------------------

@pytest.mark.parametrize("backlog", [False, True])
def test_cutover_announcements_precede_the_first_new_record(backlog):
    v1 = SPECS
    v2 = SPECS + [("units", "string")]
    ctx = IOContext(format_server=FormatServer())

    def grid_format(specs):
        layout = compute_layout(specs, architecture=ctx.architecture)
        return IOFormat("Grid", layout.field_list)

    ctx.register_evolution(grid_format(v1))
    pub = BroadcastPublisher(ctx, block_timeout=30.0).start()
    reader, client = subscribe(
        pub, sndbuf=4096 if backlog else None, stalled=backlog)
    n = BIG if backlog else 4
    for step in range(3):
        assert pub.publish("Grid", record(step, n)) == 1
    assert bool(client.queued_bytes) == backlog
    v2_fmt = grid_format(v2)
    assert pub.cutover(v2_fmt) == 1
    for step in range(3, 6):
        assert pub.publish(
            "Grid", dict(record(step, n), units="m")) == 1
    assert bool(client.queued_bytes) == backlog
    reader.resume.set()
    pub.close(timeout=30)
    reader.join(30)
    frames = reader.frames()
    assert not reader.buf
    v1_id = frames[1].payload[:8]
    v2_id = v2_fmt.format_id.to_bytes()
    kinds = [(f.type, bytes(f.payload[:8]))
             if f.type == FrameType.FMT_RSP else f.type
             for f in frames]
    assert kinds == [
        FrameType.HELLO, (FrameType.FMT_RSP, bytes(v1_id)),
        FrameType.DATA, FrameType.DATA, FrameType.DATA,
        (FrameType.FMT_RSP, v2_id), FrameType.LIN_RSP,
        FrameType.DATA, FrameType.DATA, FrameType.DATA,
        FrameType.BYE]
    sub = IOContext(format_server=FormatServer())
    sub.register_evolution(grid_format(v1))
    sub.register_evolution(grid_format(v2))
    decoded = [sub.decode(f.payload) for f in frames
               if f.type == FrameType.DATA]
    assert [d.record["timestep"] for d in decoded] == list(range(6))
    assert [d.format_id.to_bytes() == v2_id for d in decoded] == \
        [False] * 3 + [True] * 3


# -- (f) HELLO is a subscriber's first frame ----------------------------------

class SlowHello(BroadcastPublisher):
    """``on_connect`` held until ``released``: a publisher thread that
    sees the subscriber meanwhile could write ahead of its HELLO."""

    released = threading.Event()

    def on_connect(self, client):
        assert self.released.wait(10)
        super().on_connect(client)


def test_hello_precedes_anything_published_to_a_new_subscriber():
    SlowHello.released.clear()
    pub = make_publisher(SlowHello)
    releaser = threading.Timer(0.2, SlowHello.released.set)
    releaser.start()
    sock = socket.create_connection((pub.host, pub.port))
    # the subscriber becomes visible once on_connect has run, so this
    # publish cannot overtake the HELLO, however long the handler takes
    assert pub.wait_for_subscribers(1, timeout=10)
    assert pub.publish("SimpleData", record(1)) == 1
    reader = Reader(sock)
    pub.close(timeout=10)
    reader.join(10)
    releaser.join()
    sock.close()
    assert [f.type for f in reader.frames()] == [
        FrameType.HELLO, FrameType.FMT_RSP, FrameType.DATA,
        FrameType.BYE]
