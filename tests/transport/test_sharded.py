"""Sharded broadcast: control plane and multi-process e2e."""

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ProtocolError, TransportError
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.transport.connection import Connection
from repro.obs import runtime
from repro.obs.metrics import MALFORMED_FRAMES
from repro.transport.messages import (
    Frame, FrameReader, FrameType, frame_bytes,
)
from repro.transport.sharded import (
    ShardedBroadcastServer, WorkerConfig, _pack_name, _shard,
    _ShardWorkerPublisher, _unpack_name, _WorkerHandle, Shard,
)
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]
V2_SPECS = SPECS + [("units", "string")]


def make_context() -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("SimpleData", SPECS)
    return ctx


def make_server(**kwargs) -> ShardedBroadcastServer:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("start_timeout", 120.0)
    return ShardedBroadcastServer(make_context(), **kwargs)


class Subscriber(threading.Thread):
    """Connects, drains until BYE, records everything."""

    def __init__(self, host: str, port: int,
                 context: IOContext | None = None, *,
                 negotiate: str | None = None):
        super().__init__(daemon=True)
        self.context = context or IOContext(
            format_server=FormatServer())
        self.negotiate = negotiate
        self.conn = Connection(self.context,
                               TCPChannel.connect(host, port))
        self.chosen = None
        #: set once the LIN_RSP is read: from then on the pin holds
        self.negotiated = threading.Event()
        self.records: list = []
        self.error: BaseException | None = None

    def run(self):
        # idle receive timeouts retry against one overall deadline so
        # a loaded machine cannot knock a subscriber off its shard
        # before the test's first publish
        deadline = time.monotonic() + 150
        try:
            if self.negotiate:
                self.chosen = self.conn.negotiate_version(
                    self.negotiate, timeout=60)
                self.negotiated.set()
            while time.monotonic() < deadline:
                try:
                    msg = self.conn.receive(timeout=10)
                except TransportError as exc:
                    if "timed out" in str(exc):
                        continue
                    raise
                if msg is None:
                    break
                self.records.append((msg.format_id, msg.record))
        except BaseException as exc:  # noqa: BLE001 - asserted later
            self.error = exc
        finally:
            self.conn.close()


# ---------------------------------------------------------------------------
# Control-plane framing
# ---------------------------------------------------------------------------

class Upstream:
    """The publisher's view of a shard's control socket in a unit test:
    what the shard reports, frame by frame."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = FrameReader()

    def frames(self, count: int, timeout: float = 10) -> list:
        """The next *count* reports as ``(type, payload)``; None at EOF,
        and nothing more after it."""
        self.sock.settimeout(timeout)
        out: list = []
        while len(out) < count:
            frame = self.reader.frame(1 << 20)
            if frame is not None:
                out.append((frame.type, bytes(frame.payload)))
            elif not self.reader.fill(self.sock.recv_into):
                out.append(None)
                break
        return out


def control_pair():
    """A shard serving on a thread of its own, without a listener, and
    the publisher's end of its control socket."""
    ours, theirs = socket.socketpair()
    shard = _ShardWorkerPublisher(make_context(), theirs,
                                  listen=False).start()
    return _WorkerHandle(0, ours), shard, Upstream(ours)

class TestControlProtocol:
    def test_name_roundtrip(self):
        packed = _pack_name("Grid") + b"tail"
        name, offset = _unpack_name(packed, 0)
        assert name == "Grid"
        assert packed[offset:] == b"tail"

    def test_truncated_name_raises(self):
        packed = _pack_name("GridData")
        with pytest.raises(ProtocolError):
            _unpack_name(packed[:4], 0)
        with pytest.raises(ProtocolError):
            _unpack_name(b"\xff", 0)

    def test_oversized_name_raises(self):
        with pytest.raises(ProtocolError):
            _pack_name("x" * 70000)

    @pytest.mark.timeout(30)
    def test_control_socket_roundtrip(self):
        """A barrier is answered on the loop thread, then BYE stops the
        shard: its loop exits and closes the control socket."""
        handle, shard, upstream = control_pair()
        try:
            handle.send(_shard(Shard.BARRIER, b"\x00\x00\x00\x07"))
            handle.send(frame_bytes(FrameType.BYE, b""))
            assert upstream.frames(1) == [
                (FrameType.SHARD, bytes((Shard.ACK,)) + b"\x00\x00\x00\x07\x01")]
            shard.server._thread.join(10)
            assert not shard.server._thread.is_alive()
            assert upstream.frames(1) == [None]  # EOF: the shard is gone
        finally:
            shard.close()
            handle.sock.close()

    @pytest.mark.timeout(30)
    def test_control_socket_fd_passing_order(self):
        handle, shard, upstream = control_pair()
        pipes = [socket.socketpair() for _ in range(3)]
        try:
            for i, (ours, theirs) in enumerate(pipes):
                handle.send(_shard(Shard.BARRIER, struct.pack(">I", i)))
                handle.send(_shard(Shard.CONN, f"peer{i}".encode()),
                            theirs.fileno())
            assert shard.server.wait_for_clients(3, timeout=10)
            by_addr = {c.addr: c for c in shard.server.clients()}
            for i, (ours, theirs) in enumerate(pipes):
                # prove the k-th fd really is the k-th socket: the
                # client adopted for the k-th CONN frame shares the
                # k-th pipe end's inode
                client = by_addr[f"peer{i}"]
                assert os.fstat(client.sock.fileno()).st_ino == \
                    os.fstat(theirs.fileno()).st_ino
            acks = [payload for ftype, payload in upstream.frames(6)
                    if payload[0] == Shard.ACK]
            assert acks == [bytes((Shard.ACK,)) + struct.pack(">I", i)
                            + b"\x01" for i in range(3)]
        finally:
            shard.close()
            handle.sock.close()
            for ours, theirs in pipes:
                ours.close()
                theirs.close()

    @pytest.mark.timeout(30)
    def test_bad_length_raises(self):
        """A zero-length frame on the control socket is a protocol
        error like anywhere else: the loop counts it, closes the
        control socket, and the shard shuts down."""
        saved, runtime.enabled = runtime.enabled, True
        counter = MALFORMED_FRAMES.labels("eventloop", "zero_length_frame")
        before = counter.value
        handle, shard, upstream = control_pair()
        try:
            handle.sock.sendall(struct.pack(">IB", 0, 0))
            shard.server._thread.join(10)
            assert not shard.server._thread.is_alive()
            assert isinstance(shard.upstream.close_reason, ProtocolError)
            assert counter.value == before + 1
        finally:
            runtime.enabled = saved
            shard.close()
            handle.sock.close()

    def test_worker_config_is_picklable(self):
        import pickle
        config = WorkerConfig(index=3, policy="block",
                              max_queue_bytes=1024,
                              block_timeout=1.0,
                              max_frame_len=1 << 20)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.label == "w3"


# ---------------------------------------------------------------------------
# End-to-end across processes
# ---------------------------------------------------------------------------

class TestShardedEndToEnd:
    @pytest.mark.timeout(180)
    def test_fan_out_across_shards(self):
        with make_server() as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(8)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(8, timeout=60)
            for t in range(5):
                assert srv.publish(
                    "SimpleData",
                    {"timestep": t, "data": [t * 0.5]}) == 2
            # the relay entry point of the shared publish front: wire
            # bytes encoded elsewhere reach every shard the same way
            wire = srv.context.encode(
                "SimpleData", {"timestep": 5, "data": [2.5]})
            assert srv.publish_encoded(wire) == 2
            assert srv.flush(timeout=60)
            # round-robin: a 2-way split of 8 is exactly 4+4
            stats = srv.worker_stats(timeout=60)
            counts = sorted(s["server"]["clients"]
                            for s in stats.values())
            assert counts == [4, 4]
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert [r["timestep"] for _, r in sub.records] == \
                list(range(6))
            assert sub.conn.negotiations == 0, \
                "announcements must pre-empt FMT_REQ on every shard"

    @pytest.mark.timeout(180)
    def test_encode_once_across_workers(self):
        with make_server(workers=2) as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(4)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(4, timeout=60)
            before = srv.context.stats.as_dict()["records_encoded"]
            for t in range(10):
                srv.publish("SimpleData",
                            {"timestep": t, "data": [1.0, 2.0]})
            assert srv.flush(timeout=60)
            after = srv.context.stats.as_dict()["records_encoded"]
            assert after - before == 10, \
                "publisher must marshal each record exactly once"
            stats = srv.worker_stats(timeout=60)
            for shard in stats.values():
                assert shard["codec"]["records_encoded"] == 0
                assert shard["codec"]["records_decoded"] == 0
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert len(sub.records) == 10

    @pytest.mark.timeout(180)
    def test_worker_stats_and_metrics_merge(self):
        with make_server(workers=2) as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(2)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(2, timeout=60)
            srv.publish("SimpleData", {"timestep": 0, "data": [1.0]})
            assert srv.flush(timeout=60)
            stats = srv.worker_stats(timeout=60)
            assert set(stats) == {"w0", "w1"}
            total_clients = sum(s["server"]["clients"]
                                for s in stats.values())
            assert total_clients == 2
            # every worker answered with its own replica + publisher
            for label, shard in stats.items():
                assert shard["worker"] == label
                assert shard["codec"]["records_encoded"] == 0, \
                    "workers must never re-encode"
            merged = srv.metrics_snapshot(timeout=60)
            workers_seen = {
                series["labels"].get("worker")
                for metric in merged.values()
                for series in metric["series"]}
            assert {"publisher"} <= workers_seen
        for sub in subs:
            sub.join(30)

    @pytest.mark.timeout(180)
    def test_worker_crash_does_not_stall_the_rest(self):
        with make_server(workers=2) as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(4)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(4, timeout=60)
            srv.publish("SimpleData", {"timestep": 0, "data": [1.0]})
            assert srv.flush(timeout=60)
            victim = srv._workers[0]
            victim.process.terminate()
            victim.process.join(30)
            deadline = 100
            while victim.alive and deadline:
                threading.Event().wait(0.1)
                deadline -= 1
            assert not victim.alive
            assert srv.worker_failures == 1
            # publishing keeps reaching the surviving shard
            assert srv.publish("SimpleData",
                               {"timestep": 1, "data": [2.0]}) == 1
            assert srv.flush(timeout=60)
            survivors = [s for s in subs]
            stats = srv.stats_dict()
            assert stats["workers_alive"] == 1
        for sub in subs:
            sub.join(30)
        # the surviving shard's subscribers saw both records
        full = [sub for sub in subs
                if [r["timestep"] for _, r in sub.records] == [0, 1]]
        assert len(full) == 2

    @pytest.mark.timeout(180)
    def test_new_subscribers_skip_a_dead_worker(self):
        with make_server(workers=2) as srv:
            victim = srv._workers[0]
            victim.process.terminate()
            victim.process.join(30)
            with srv._census:
                assert srv._census.wait_for(lambda: not victim.alive, 30)
            subs = [Subscriber(srv.host, srv.port) for _ in range(4)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(4, timeout=60)
            stats = srv.worker_stats(timeout=60)
            assert {label: shard["server"]["clients_accepted"]
                    for label, shard in stats.items()} == {"w1": 4}
            assert srv.publish("SimpleData",
                               {"timestep": 0, "data": [1.0]}) == 1
            assert srv.flush(timeout=60)
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert [r["timestep"] for _, r in sub.records] == [0]

    @pytest.mark.timeout(180)
    def test_each_format_is_announced_once_per_subscriber(self):
        with make_server(workers=2) as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(4)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(4, timeout=60)
            for t in range(100):
                assert srv.publish(
                    "SimpleData", {"timestep": t, "data": [0.5]}) == 2
            assert srv.flush(timeout=60)
            stats = srv.worker_stats(timeout=60)
            # one format, four subscribers: one FMT_RSP each, however
            # many records follow it
            assert sum(shard["publisher"]["formats_announced"]
                       for shard in stats.values()) == 4 * 1
            assert sum(shard["publisher"]["subscriber_high_water"]
                       for shard in stats.values()) == 4
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert [r["timestep"] for _, r in sub.records] == \
                list(range(100))


@pytest.mark.timeout(180)
def test_a_block_wait_a_barrier_and_a_stop_on_one_shard():
    """One shard, ``block`` policy: a subscriber that never reads is
    waited for, then evicted, while a draining one gets every record
    in order; then a barrier and the shard's close go through."""
    with make_server(workers=1, policy="block", max_queue_bytes=4096,
                     block_timeout=0.5) as srv:
        # small buffers at both ends of the stuck connection, fixed
        # by the handshake (the shard's end inherits the listener's),
        # fill after ~12 KiB instead of megabytes
        srv._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                 4096)
        stuck = socket.socket()
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stuck.connect((srv.host, srv.port))
        srv._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                 1 << 20)
        draining = Subscriber(srv.host, srv.port)
        draining.start()
        try:
            assert srv.wait_for_subscribers(2, timeout=60)
            for t in range(400):
                assert srv.publish("SimpleData", {
                    "timestep": t, "data": [t * 0.5] * 128}) == 1
            assert srv.flush(timeout=60)
            (shard,) = srv.worker_stats(timeout=60).values()
            assert shard["publisher"]["block_waits"] >= 1
            assert shard["publisher"]["clients_evicted"] == 1
        finally:
            srv.close()
            stuck.close()
        # close() put BYE on the draining subscriber's stream: its
        # receive loop ends on it
        draining.join(30)
        assert not draining.is_alive()
    assert draining.error is None
    assert [r["timestep"] for _, r in draining.records] == \
        list(range(400))


@pytest.mark.timeout(180)
@pytest.mark.parametrize("workers", [2, 4])
def test_one_thread_per_worker_and_one_for_the_publisher(workers):
    """A shard worker is one thread; the publisher's control loop is
    the one thread ``start()`` adds."""
    before = set(threading.enumerate())
    with make_server(workers=workers) as srv:
        added = [t.name for t in set(threading.enumerate()) - before]
        assert len(added) <= 2, added
        stats = srv.worker_stats(timeout=60)
        assert {label: shard["threads"] for label, shard in stats.items()} \
            == {f"w{i}": 1 for i in range(workers)}


@pytest.mark.timeout(180)
def test_a_subscriber_cannot_send_control_frames():
    """A SHARD frame from a subscriber is refused: the subscriber is
    closed and counted, and the frame is never acted on — here a BCAST
    that, obeyed, would reach the other subscriber."""
    with make_server(workers=1) as srv:
        bystander = Subscriber(srv.host, srv.port)
        bystander.start()
        rogue = socket.create_connection((srv.host, srv.port))
        try:
            assert srv.wait_for_subscribers(2, timeout=60)
            forged = frame_bytes(FrameType.DATA, srv.context.encode(
                "SimpleData", {"timestep": 99, "data": [9.0]}))
            rogue.sendall(_shard(Shard.BCAST, forged))
            rogue.settimeout(30)
            buf = bytearray()
            while chunk := rogue.recv(1 << 16):
                buf.extend(chunk)  # the shard closes the rogue
            assert FrameType.DATA not in \
                [f.type for f in iter_frames(buf)]
            assert srv.publish("SimpleData",
                               {"timestep": 0, "data": [1.0]}) == 1
            assert srv.flush(timeout=60)
            (shard,) = srv.worker_stats(timeout=60).values()
            assert shard["server"]["clients"] == 1
            worker_counts = [
                s["value"] for s in shard["metrics"][
                    "repro_malformed_frames_total"]["series"]
                if s["labels"] == {"layer": "shard",
                                   "reason": "unexpected_frame"}]
            assert worker_counts == [1]
        finally:
            rogue.close()
    bystander.join(30)
    assert bystander.error is None
    assert [r["timestep"] for _, r in bystander.records] == [0]


class HeldAfterConnect(_ShardWorkerPublisher):
    """A shard's loop thread parks after ``on_connect`` returns, before
    the new client joins the loop's client table."""

    def __init__(self, *args, **kwargs):
        self.held = threading.Event()
        self.released = threading.Event()
        super().__init__(*args, **kwargs)

    def on_connect(self, client):
        super().on_connect(client)
        self.held.set()
        assert self.released.wait(10)


def test_census_counts_a_subscriber_only_once_a_publish_reaches_it():
    """The census feeds the publisher's ``wait_for_subscribers``; a
    subscriber it counts must be one the very next publish reaches."""
    ours, theirs = socket.socketpair()
    upstream = Upstream(ours)
    ctx = make_context()
    worker = HeldAfterConnect(ctx, theirs).start()
    frame = frame_bytes(FrameType.DATA, ctx.encode(
        "SimpleData", {"timestep": 0, "data": [1.0]}))

    def census(timeout):
        """Subscribers the next COUNT reports; None if none comes."""
        try:
            ((ftype, payload),) = upstream.frames(1, timeout)
        except TimeoutError:
            return None
        assert (ftype, payload[0]) == (FrameType.SHARD, Shard.COUNT)
        return struct.unpack_from(">I", payload, 1)[0]

    sub = socket.create_connection((worker.host, worker.port))
    try:
        assert worker.held.wait(10)
        # a publish now would miss the client, so nothing may count it
        assert census(0.2) is None
        worker.released.set()
        assert census(10) == 1
        # the publisher's fan-out, then its BYE: in order, on the loop
        ours.sendall(_shard(Shard.BCAST, frame))
        ours.sendall(frame_bytes(FrameType.BYE, b""))
        sub.settimeout(10)
        buf = bytearray()
        while chunk := sub.recv(1 << 16):
            buf.extend(chunk)
        assert [f.type for f in iter_frames(buf)] == [
            FrameType.HELLO, FrameType.FMT_RSP, FrameType.DATA,
            FrameType.BYE]
    finally:
        worker.released.set()
        worker.close()
        sub.close()
        ours.close()


#: a publisher process for the parent-kill test: prints its port and
#: worker pids, then "flushed" once three publishes reached 4
#: subscribers, then waits to be killed
PARENT_SCRIPT = f"""
import time
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.sharded import ShardedBroadcastServer

ctx = IOContext(format_server=FormatServer())
ctx.register_layout("SimpleData", {SPECS!r})
srv = ShardedBroadcastServer(ctx, workers=2, start_timeout=120.0).start()
print(srv.port, *(h.process.pid for h in srv._workers), flush=True)
assert srv.wait_for_subscribers(4, timeout=60)
for t in range(3):
    srv.publish("SimpleData", {{"timestep": t, "data": [1.0]}})
assert srv.flush(timeout=60)
print("flushed", flush=True)
time.sleep(600)
"""


def running(pid: int) -> bool:
    """Is *pid* a live process (an unreaped zombie is not)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.timeout(180)
@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process state from /proc")
def test_workers_exit_when_the_parent_is_killed():
    """A SIGKILLed publisher runs no cleanup; its workers must still
    go, on the EOF of their control sockets, not linger as orphans."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    parent = subprocess.Popen([sys.executable, "-c", PARENT_SCRIPT],
                              stdout=subprocess.PIPE, text=True, env=env)
    socks = []
    try:
        port, *workers = map(int, parent.stdout.readline().split())
        assert len(workers) == 2
        socks = [socket.create_connection(("127.0.0.1", port))
                 for _ in range(4)]
        assert parent.stdout.readline().strip() == "flushed"
        assert all(running(pid) for pid in workers)
        parent.kill()
        parent.wait(30)
        deadline = time.monotonic() + 2.0
        while any(map(running, workers)) and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(running(pid) for pid in workers)
    finally:
        parent.kill()
        parent.wait(30)
        parent.stdout.close()
        for sock in socks:
            sock.close()


class TestShardedEvolution:
    @staticmethod
    def grid_format(specs, architecture) -> IOFormat:
        layout = compute_layout(specs, architecture=architecture)
        return IOFormat("Grid", layout.field_list)

    def make_evolved_server(self) -> ShardedBroadcastServer:
        ctx = IOContext(format_server=FormatServer())
        ctx.register_evolution(
            self.grid_format(SPECS, ctx.architecture))
        ctx.register_evolution(
            self.grid_format(V2_SPECS, ctx.architecture))
        return ShardedBroadcastServer(ctx, workers=2, start_timeout=120.0)

    @pytest.mark.timeout(180)
    def test_lineage_negotiation_served_from_every_shard(self):
        with self.make_evolved_server() as srv:
            chain = srv.context.format_server.lineage("Grid")
            assert len(chain) == 2

            def v1_context() -> IOContext:
                ctx = IOContext(format_server=FormatServer())
                ctx.register_evolution(
                    self.grid_format(SPECS, ctx.architecture))
                return ctx

            # one v1-pinned subscriber lands on each shard
            subs = [Subscriber(srv.host, srv.port, v1_context(),
                               negotiate="Grid")
                    for _ in range(2)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(2, timeout=60)
            # a pin holds once its LIN_RSP is read
            for sub in subs:
                assert sub.negotiated.wait(60)
            modern = Subscriber(srv.host, srv.port)
            modern.start()
            assert srv.wait_for_subscribers(3, timeout=60)
            queued = 0
            for t in range(4):
                record = {"timestep": t, "data": [t * 1.0],
                          "units": "mm"}
                assert srv.publish("Grid", record) == 2
                # each shard gets the current frame only
                queued += 2 * len(frame_bytes(
                    FrameType.DATA, srv.context.encode("Grid", record)))
            assert srv.flush(timeout=60)
            assert srv.stats.frames_down_converted == 0
            assert srv.stats.bytes_queued == queued
            # each shard holds one pinned subscriber and down-converts
            # once per message for it, as the single loop does
            assert {label: shard["publisher"]["frames_down_converted"]
                    for label, shard in srv.worker_stats(60).items()} \
                == {"w0": 4, "w1": 4}
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert sub.chosen == chain[0]
            assert len(sub.records) == 4
            for fid, record in sub.records:
                assert fid == chain[0]
                assert "units" not in record
        modern.join(30)
        assert modern.error is None
        assert len(modern.records) == 4
        for fid, record in modern.records:
            assert fid == chain[1]
            assert record["units"] == "mm"

    @pytest.mark.timeout(180)
    def test_cutover_reannounces_on_every_shard(self):
        ctx = IOContext(format_server=FormatServer())
        ctx.register_evolution(
            self.grid_format(SPECS, ctx.architecture))
        with ShardedBroadcastServer(ctx, workers=2,
                                    start_timeout=120.0) as srv:
            subs = [Subscriber(srv.host, srv.port) for _ in range(4)]
            for sub in subs:
                sub.start()
            assert srv.wait_for_subscribers(4, timeout=60)
            assert srv.publish("Grid",
                               {"timestep": 0, "data": [0.5]}) == 2
            v2 = self.grid_format(V2_SPECS, ctx.architecture)
            assert srv.cutover(v2) == 2
            assert srv.publish(
                "Grid", {"timestep": 1, "data": [1.5],
                         "units": "mm"}) == 2
            assert srv.flush(timeout=60)
            chain = ctx.format_server.lineage("Grid")
        for sub in subs:
            sub.join(30)
            assert sub.error is None
            assert [r["timestep"] for _, r in sub.records] == [0, 1]
            assert sub.records[0][0] == chain[0]
            assert sub.records[1][0] == chain[1]
            assert sub.records[1][1]["units"] == "mm"


class TestFormatMissProxy:
    @pytest.mark.timeout(180)
    def test_cold_fmt_req_is_proxied_upstream(self):
        """A format the publisher learned after the shards were seeded
        resolves through the shard's read-through replica."""
        ctx = make_context()
        with ShardedBroadcastServer(ctx, workers=1,
                                    start_timeout=120.0) as srv:
            # registered post-start: the replica has never seen it
            extra = ctx.register_layout("ExtraFormat",
                                        [("value", "integer")])
            sock = socket.create_connection((srv.host, srv.port))
            try:
                assert srv.wait_for_subscribers(1, timeout=60)
                sock.sendall(Frame(
                    FrameType.FMT_REQ,
                    extra.format_id.to_bytes()).encode())
                sock.settimeout(30)
                buf = bytearray()
                fmt_rsp = None
                while fmt_rsp is None:
                    chunk = sock.recv(1 << 16)
                    assert chunk, "worker closed the connection"
                    buf.extend(chunk)
                    for frame in iter_frames(buf):
                        if frame.type == FrameType.FMT_RSP:
                            fmt_rsp = frame
                assert fmt_rsp.payload.startswith(
                    extra.format_id.to_bytes())
            finally:
                sock.close()

    @pytest.mark.timeout(180)
    def test_unknown_fmt_req_gets_fmt_err(self):
        with make_server(workers=1) as srv:
            sock = socket.create_connection((srv.host, srv.port))
            try:
                assert srv.wait_for_subscribers(1, timeout=60)
                sock.sendall(Frame(FrameType.FMT_REQ,
                                   b"\xde\xad\xbe\xef" * 2).encode())
                sock.settimeout(30)
                buf = bytearray()
                reply = None
                while reply is None:
                    chunk = sock.recv(1 << 16)
                    assert chunk, "worker closed the connection"
                    buf.extend(chunk)
                    for frame in iter_frames(buf):
                        if frame.type == FrameType.FMT_ERR:
                            reply = frame
                assert b"no format" in reply.payload
            finally:
                sock.close()
