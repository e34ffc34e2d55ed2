"""Broadcast publisher: encode-once fan-out, announcements, policies."""

import socket
import threading

import pytest

from repro.errors import SlowConsumerError
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import (
    BackpressurePolicy, BroadcastPublisher,
)
from repro.transport.connection import Connection
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]
RECORD = {"timestep": 1, "data": [1.5, 2.5]}
BIG_RECORD = {"timestep": 2, "data": [0.25] * 8192}


def make_publisher(**kwargs) -> BroadcastPublisher:
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("SimpleData", SPECS)
    return BroadcastPublisher(ctx, **kwargs).start()


def drain_socket(sock: socket.socket) -> list[Frame]:
    """Read until EOF, return the parsed frames."""
    buf = bytearray()
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        buf.extend(chunk)
    return list(iter_frames(buf))


class _Reader(threading.Thread):
    """Keeps one subscriber socket drained; collects its frames."""

    def __init__(self, sock: socket.socket):
        super().__init__(daemon=True)
        self.sock = sock
        self.frames: list[Frame] = []
        self.start()

    def run(self):
        try:
            self.frames = drain_socket(self.sock)
        except OSError:
            pass


class TestBroadcastBasics:
    def test_connection_subscribers_zero_negotiations(self):
        """Pre-announced formats mean ordinary Connections decode the
        stream without a single FMT_REQ round trip."""
        with make_publisher() as pub:
            results = []

            def subscribe():
                ctx = IOContext(format_server=FormatServer())
                with Connection(ctx, TCPChannel.connect(
                        pub.host, pub.port)) as conn:
                    records = []
                    while True:
                        msg = conn.receive(timeout=10)
                        if msg is None:
                            break
                        records.append(msg)
                    results.append((records, conn.negotiations))

            threads = [threading.Thread(target=subscribe)
                       for _ in range(5)]
            for t in threads:
                t.start()
            assert pub.wait_for_subscribers(5, timeout=5)
            for i in range(7):
                assert pub.publish(
                    "SimpleData",
                    {"timestep": i, "data": [float(i)]}) == 5
            pub.close()
            for t in threads:
                t.join(10)
        assert len(results) == 5
        for records, negotiations in results:
            assert negotiations == 0
            assert [m.record["timestep"] for m in records] == \
                list(range(7))
            assert all(m.format_name == "SimpleData" for m in records)

    def test_sustains_128_socket_subscribers_on_one_thread(self):
        pub = make_publisher()
        socks = [socket.create_connection((pub.host, pub.port))
                 for _ in range(128)]
        readers = [_Reader(s) for s in socks]
        try:
            assert pub.wait_for_subscribers(128, timeout=10)
            for i in range(10):
                assert pub.publish(
                    "SimpleData",
                    {"timestep": i, "data": [1.0]}) == 128
            assert pub.flush(timeout=30)
            stats = pub.stats_dict()
            assert stats["subscriber_high_water"] == 128
            assert stats["messages_broadcast"] == 10
            assert stats["formats_announced"] == 128
            assert stats["clients_evicted"] == 0
        finally:
            pub.close()
            for r in readers:
                r.join(10)
            for s in socks:
                s.close()
        for reader in readers:
            kinds = [f.type for f in reader.frames]
            assert kinds[0] == FrameType.HELLO
            assert kinds[1] == FrameType.FMT_RSP  # announced once
            assert kinds.count(FrameType.DATA) == 10
            assert kinds[-1] == FrameType.BYE

    def test_format_requests_served_from_the_same_loop(self):
        with make_publisher() as pub:
            fmt = pub.context.lookup_format("SimpleData")
            sock = socket.create_connection((pub.host, pub.port))
            sock.sendall(
                Frame(FrameType.FMT_REQ,
                      fmt.format_id.to_bytes()).encode())
            buf = bytearray()
            reply = None
            while reply is None:
                chunk = sock.recv(4096)
                assert chunk
                buf.extend(chunk)
                for frame in iter_frames(buf):
                    if frame.type == FrameType.FMT_RSP:
                        reply = frame
            assert reply.payload[:8] == fmt.format_id.to_bytes()
            # the metadata round-trips into a fresh server
            other = FormatServer()
            fid = other.import_bytes(bytes(reply.payload[8:]))
            assert fid == fmt.format_id
            sock.close()

    def test_publish_many_ships_one_batch_frame(self):
        with make_publisher() as pub:
            sock = socket.create_connection((pub.host, pub.port))
            reader = _Reader(sock)
            assert pub.wait_for_subscribers(1, timeout=5)
            records = [{"timestep": i, "data": [0.5]} for i in range(4)]
            assert pub.publish_many("SimpleData", records) == 1
            pub.close()
            reader.join(10)
            sock.close()
        kinds = [f.type for f in reader.frames]
        assert kinds.count(FrameType.DATA_BATCH) == 1

    def test_publish_encoded_matches_publish(self):
        with make_publisher() as pub:
            sock = socket.create_connection((pub.host, pub.port))
            reader = _Reader(sock)
            assert pub.wait_for_subscribers(1, timeout=5)
            wire = pub.context.encode("SimpleData", RECORD)
            assert pub.publish_encoded(wire) == 1
            assert pub.publish("SimpleData", RECORD) == 1
            pub.close()
            reader.join(10)
            sock.close()
        payloads = [f.payload for f in reader.frames
                    if f.type == FrameType.DATA]
        assert len(payloads) == 2
        assert bytes(payloads[0]) == bytes(payloads[1]) == wire

    def test_announced_once_per_client_not_per_message(self):
        with make_publisher() as pub:
            socks = [socket.create_connection((pub.host, pub.port))
                     for _ in range(2)]
            readers = [_Reader(s) for s in socks]
            assert pub.wait_for_subscribers(2, timeout=5)
            for i in range(3):
                pub.publish("SimpleData",
                            {"timestep": i, "data": [1.0]})
            assert pub.stats_dict()["formats_announced"] == 2
            pub.close()
            for r in readers:
                r.join(10)
            for s in socks:
                s.close()
        for reader in readers:
            kinds = [f.type for f in reader.frames]
            assert kinds.count(FrameType.FMT_RSP) == 1

    def test_policy_coercion(self):
        assert BackpressurePolicy.coerce("drop-oldest") is \
            BackpressurePolicy.DROP_OLDEST
        assert BackpressurePolicy.coerce(
            BackpressurePolicy.BLOCK) is BackpressurePolicy.BLOCK
        with pytest.raises(ValueError, match="unknown backpressure"):
            BackpressurePolicy.coerce("bogus")


def slow_socket(pub) -> socket.socket:
    """A subscriber that never reads, with a tiny receive buffer so
    the kernel stops absorbing the broadcast quickly."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((pub.host, pub.port))
    return sock


def flood_until(pub, healthy_handle, predicate, limit=300) -> bool:
    """Publish big records until *predicate* holds on the stats.

    Paces on the healthy subscriber's queue (not wall clock) so only
    the deliberately-stuck client can ever exceed the limit."""
    for _ in range(limit):
        pub.publish("SimpleData", BIG_RECORD)
        assert pub.server.wait_queue_below(healthy_handle, 0, 10)
        if predicate(pub.stats_dict()):
            return True
    return False


def wait_until(condition, timeout=5.0) -> bool:
    """Poll for an event applied asynchronously by the loop thread
    (an eviction requested via ``request_close`` lands one poll
    iteration later)."""
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


class TestSlowConsumers:
    """One stuck subscriber must never stall the healthy ones."""

    QUEUE = 128 * 1024

    def _setup(self, policy, **kwargs):
        pub = make_publisher(policy=policy,
                             max_queue_bytes=self.QUEUE, **kwargs)
        healthy_sock = socket.create_connection((pub.host, pub.port))
        healthy = _Reader(healthy_sock)
        slow = slow_socket(pub)
        assert pub.wait_for_subscribers(2, timeout=5)
        handles = {c.addr: c for c in pub.server.clients()}
        healthy_handle = handles[healthy_sock.getsockname()]
        slow_handle = handles[slow.getsockname()]
        return pub, healthy, healthy_handle, slow, slow_handle

    def test_disconnect_slow_evicts_immediately(self):
        pub, healthy, healthy_handle, slow, slow_handle = \
            self._setup("disconnect-slow")
        assert flood_until(
            pub, healthy_handle, lambda s: s["clients_evicted"] >= 1)
        stats = pub.stats_dict()
        assert stats["clients_evicted"] == 1
        assert stats["frames_dropped"] == 0
        # the slow handle closed with the named error; healthy client
        # is still subscribed and keeps receiving
        assert wait_until(lambda: not slow_handle.open)
        assert pub.server.clients() == [healthy_handle]
        assert isinstance(slow_handle.close_reason, SlowConsumerError)
        sent = pub.publish("SimpleData", RECORD)
        assert sent == 1
        pub.close()
        healthy.join(10)
        assert any(f.type == FrameType.BYE for f in healthy.frames)
        slow.close()

    def test_drop_oldest_keeps_client_with_gaps(self):
        pub, healthy, healthy_handle, slow, _slow_handle = \
            self._setup("drop-oldest")
        assert flood_until(
            pub, healthy_handle, lambda s: s["frames_dropped"] >= 5)
        stats = pub.stats_dict()
        assert stats["clients_evicted"] == 0
        assert stats["subscribers"] == 2  # slow client still attached
        broadcast = stats["messages_broadcast"]
        # unstick the slow consumer, then shut down cleanly
        slow_reader = _Reader(slow)
        pub.close()
        healthy.join(10)
        slow_reader.join(10)
        slow.close()
        healthy_data = sum(
            1 for f in healthy.frames if f.type == FrameType.DATA)
        slow_data = sum(
            1 for f in slow_reader.frames if f.type == FrameType.DATA)
        assert healthy_data == broadcast  # healthy saw everything
        assert slow_data < broadcast      # slow saw a gap, not an error
        assert any(f.type == FrameType.BYE for f in slow_reader.frames)

    def test_drop_oldest_stream_stays_framed_under_trickle_reader(self):
        """Drops racing an in-flight ``sendmsg`` must never corrupt
        the wire: a subscriber that reads slowly (so windows are
        regularly mid-send while the publisher floods and drops) has
        to see a parseable stream of whole records, in order."""
        import time

        pub = make_publisher(policy="drop-oldest",
                             max_queue_bytes=64 * 1024)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((pub.host, pub.port))
        assert pub.wait_for_subscribers(1, timeout=5)
        # frames write through to the kernel while it takes them:
        # without this loopback's multi-MB send buffer absorbs the
        # whole flood and nothing ever queues, let alone drops
        pub.server.clients()[0].sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        buf = bytearray()

        def trickle():
            while True:
                chunk = sock.recv(512)  # keep a send always in flight
                if not chunk:
                    return
                buf.extend(chunk)
                time.sleep(0.0005)

        reader = threading.Thread(target=trickle, daemon=True)
        reader.start()
        for i in range(400):
            pub.publish("SimpleData",
                        {"timestep": i, "data": [0.5] * 512})
        dropped = pub.stats_dict()["frames_dropped"]
        pub.close(timeout=30)
        reader.join(30)
        assert not reader.is_alive()
        sock.close()
        assert dropped > 0  # the race path was actually exercised
        frames = list(iter_frames(buf))  # raises if the stream desynced
        sub = IOContext(format_server=FormatServer())
        steps = []
        for frame in frames:
            if frame.type == FrameType.FMT_RSP:
                sub.format_server.import_bytes(frame.payload[8:])
            elif frame.type == FrameType.DATA:
                steps.append(sub.decode(frame.payload)
                             .record["timestep"])
        assert steps == sorted(set(steps))  # whole records, in order
        assert any(f.type == FrameType.BYE for f in frames)

    def test_block_waits_then_evicts_the_stuck_client(self):
        pub, healthy, healthy_handle, slow, _slow_handle = \
            self._setup("block", block_timeout=0.2)
        assert flood_until(
            pub, healthy_handle, lambda s: s["clients_evicted"] >= 1)
        stats = pub.stats_dict()
        assert stats["block_waits"] >= 1
        assert stats["clients_evicted"] == 1
        assert wait_until(lambda: pub.subscriber_count == 1)
        assert pub.publish("SimpleData", RECORD) == 1
        pub.close()
        healthy.join(10)
        assert any(f.type == FrameType.BYE for f in healthy.frames)
        slow.close()


def test_client_snapshot_holds_under_subscriber_churn():
    """The loop thread replaces ``open_clients`` as subscribers come
    and go while the publishing thread reads it without the lock.  A
    subscriber must see HELLO, FMT_RSP, then one unbroken run of
    records, and the snapshot must end equal to the client table."""
    import sys
    import time
    pub = make_publisher()
    stop = threading.Event()
    runs: list[list[int]] = []

    errors: list[BaseException] = []

    def visit(sub):
        sock = socket.create_connection((pub.host, pub.port))
        sock.settimeout(0.01)
        buf = bytearray()
        end = time.monotonic() + 0.03
        try:
            while time.monotonic() < end:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buf.extend(chunk)
        except (socket.timeout, OSError):
            pass
        sock.close()
        frames = list(iter_frames(buf))
        kinds = [f.type for f in frames[:2]]
        assert kinds == [FrameType.HELLO, FrameType.FMT_RSP][:len(kinds)]
        if len(frames) > 1:
            sub.format_server.import_bytes(frames[1].payload[8:])
        runs.append([sub.decode(f.payload).record["timestep"]
                     for f in frames[2:]])

    def churn():
        # an assert in this thread would only kill it: hand it over
        sub = IOContext(format_server=FormatServer())
        try:
            while not stop.is_set():
                visit(sub)
        except BaseException as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=churn, daemon=True)
               for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        step, end = 0, time.monotonic() + 1.0
        while time.monotonic() < end:
            pub.publish("SimpleData", {"timestep": step, "data": [0.5]})
            step += 1
    finally:
        stop.set()
        sys.setswitchinterval(switch)
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert errors == []
    assert wait_until(lambda: pub.server.client_count == 0)
    with pub.server._lock:
        assert pub.server.open_clients == tuple(
            pub.server._clients.values()) == ()
    assert len(runs) > 6
    for steps in filter(None, runs):
        assert steps == list(range(steps[0], steps[0] + len(steps)))
    pub.close()
