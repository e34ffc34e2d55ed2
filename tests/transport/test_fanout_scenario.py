"""A seeded fan-out scenario, pinned frame by frame and cell by cell.

One :class:`BroadcastPublisher` serves a mixed set of subscribers:

* ``plain`` — keeps up, never negotiates;
* ``pinned`` — negotiated (LIN_REQ) down to the older lineage version,
  so it receives down-converted frames;
* ``late`` — joins mid-stream, so its first record needs an
  announcement the others had long ago;
* ``slow`` — a reader that takes a few random bytes per loop pass and
  goes over its queue bound under the publisher's policy;
* ``closer`` — closed by the loop while a publish is fanning out.

The event loop is never started: the test thread plays the loop
thread (``_register_client``, ``on_frame``, ``_apply_requests``,
``_writable``) between publishes, and every subscriber socket is a
:class:`Peer` that takes only the bytes it has room for.  So the run is
deterministic, and a plain model of the write queues predicts every
byte each subscriber receives and every :class:`BroadcastStats` cell.

``REPRO_FUZZ_ITERATIONS`` scales the number of seeded rounds per
policy (one per thousand iterations; CI's fuzz smoke runs 10 000).
"""

from __future__ import annotations

import os
import random
import socket

import pytest

from repro.errors import SlowConsumerError
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.transport.broadcast import BroadcastPublisher, BroadcastStats
from repro.transport.messages import (
    Frame, FrameType, decode_lineage_rsp, encode_lineage_req, frame_bytes,
    lineage_reply,
)
from tests.transport.frames import iter_frames

ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "10000"))
ROUNDS = max(1, ITERATIONS // 1000)
SEED = 20261031
MAX_QUEUE = 1200
V1 = [("timestep", "integer"), ("size", "integer"),
      ("data", "float[size]")]
V2 = V1 + [("units", "string")]


class Peer:
    """A subscriber socket as the server sees it: it takes at most
    ``room`` more bytes (None: any amount) and keeps what it took."""

    def __init__(self, room: int | None = None) -> None:
        self.sock, self.far = socket.socketpair()
        self.room = room
        self.wire = bytearray()

    def send(self, data) -> int:
        take = len(data) if self.room is None else min(len(data),
                                                         self.room)
        if not take:
            raise BlockingIOError
        self.wire += data[:take]
        if self.room is not None:
            self.room -= take
        return take

    def sendmsg(self, buffers) -> int:
        return self.send(b"".join(buffers))

    def __getattr__(self, name):
        return getattr(self.sock, name)


class Queue:
    """The model of one client's write queue behind a :class:`Peer`."""

    def __init__(self, room: int | None = None) -> None:
        self.room = room
        self.wire = bytearray()
        self.entries: list[list] = []  # [frame, droppable]
        self.head = 0
        self.open = True
        self.evicted = False
        self.announced: set = set()

    @property
    def queued(self) -> int:
        return sum(len(frame) for frame, _ in self.entries) - self.head

    def _take(self, frame: bytes, start: int) -> int:
        n = len(frame) - start
        if self.room is not None:
            n = min(n, self.room)
            self.room -= n
        self.wire += frame[start:start + n]
        return n

    def enqueue(self, frame: bytes, droppable: bool = True) -> bool:
        if not self.open:
            return False
        if not self.entries:
            sent = self._take(frame, 0)
            if sent == len(frame):
                return True
            self.head = sent
        self.entries.append([frame, droppable])
        return True

    def drain(self) -> None:
        while self.entries and self.room != 0:
            frame = self.entries[0][0]
            self.head += self._take(frame, self.head)
            if self.head == len(frame):
                self.entries.pop(0)
                self.head = 0

    def drop_oldest(self, need: int) -> tuple[int, int]:
        freed = dropped = 0
        index = 1 if self.head else 0
        while freed < need and index < len(self.entries):
            if self.entries[index][1]:
                freed += len(self.entries.pop(index)[0])
                dropped += 1
            else:
                index += 1
        return freed, dropped

    def close(self) -> None:
        self.open = False
        self.entries.clear()
        self.head = 0


def grid_format(specs, ctx: IOContext) -> IOFormat:
    layout = compute_layout(specs, architecture=ctx.architecture)
    return IOFormat("Grid", layout.field_list)


def run_round(policy: str, rng: random.Random) -> None:
    ctx = IOContext(format_server=FormatServer())
    v1 = ctx.register_evolution(grid_format(V1, ctx))
    v2 = ctx.register_evolution(grid_format(V2, ctx))
    old = IOContext(format_server=FormatServer())
    old.register(grid_format(V1, old))
    block_timeout = 0.0 if policy == "block-evict" else 5.0
    pub = BroadcastPublisher(
        ctx, policy="block" if policy.startswith("block") else policy,
        max_queue_bytes=MAX_QUEUE, block_timeout=block_timeout)
    server = pub.server
    n = rng.randint(20, 40)
    join_at = rng.randint(1, n - 2)
    close_at = rng.randint(1, n - 1)
    records = [{"timestep": step,
                "data": [rng.random() for _ in range(rng.randint(0, 40))],
                "units": rng.choice(["m", "km", "furlong"])}
               for step in range(n)]

    stats = dict.fromkeys(BroadcastStats._CELLS, 0)
    names = ["plain", "pinned", "slow", "closer", "late"]
    peers = {name: Peer() for name in names}
    peers["slow"].room = rng.randint(0, 600)
    model = {name: Queue(peers[name].room) for name in names}
    clients = {}
    hello = Frame(FrameType.HELLO,
                  ctx.architecture.name.encode()).encode()

    def connect(name):
        before = set(server._clients)
        server._register_client(peers[name], (name, 0))
        (cid,) = set(server._clients) - before
        clients[name] = server._clients[cid]
        model[name].enqueue(hello, droppable=False)

    def loop_step():
        """One loop pass: the slow reader reads a little, then the
        loop applies requests and drains every backlog."""
        if peers["slow"].room is not None:
            more = rng.randint(0, 150)
            peers["slow"].room += more
            model["slow"].room += more
        server._apply_requests()
        for client in list(server._clients.values()):
            if client.write_queue:
                server._writable(client)
        for queue in model.values():
            if queue.evicted and queue.open:
                queue.close()
            queue.drain()

    for name in names[:4]:
        connect(name)
    pub.on_frame(clients["pinned"], Frame(
        FrameType.LIN_REQ, encode_lineage_req("Grid", [v1.format_id])))
    lin_rsp = frame_bytes(FrameType.LIN_RSP, lineage_reply(
        "Grid", v1.format_id, ctx.format_server.lineage("Grid")))
    model["pinned"].enqueue(lin_rsp, droppable=False)
    stats["lineage_negotiations"] += 1

    # the loop closes ``closer`` while publish ``close_at`` fans out
    # (as the write-through pass that carries ``plain``'s data frame
    # begins), and the loop drains the slow reader while the publisher
    # waits under ``block``
    real_write, real_wait = server.write_through, server.wait_queue_below
    step_now = [0]

    def write_through(sends, *args, **kwargs):
        if (step_now[0] == close_at and clients["closer"].open
                and any(c is clients["plain"] for c, _ in sends)):
            server._close_client(clients["closer"], None)
        return real_write(sends, *args, **kwargs)

    def wait_queue_below(client, limit, timeout):
        if policy == "block":
            peers["slow"].room = None
            server._writable(client)
        return real_wait(client, limit, timeout)

    server.write_through = write_through
    server.wait_queue_below = wait_queue_below

    def announce(queue, fid):
        if fid.value not in queue.announced:
            frame = frame_bytes(FrameType.FMT_RSP, fid.to_bytes(),
                                ctx.format_server.lookup_bytes(fid))
            if queue.enqueue(frame, droppable=False):
                queue.announced.add(fid.value)
                stats["formats_announced"] += 1

    def offer(name, frame) -> bool:
        queue = model[name]
        over = queue.queued + len(frame) - MAX_QUEUE
        if over > 0:
            if policy == "drop-oldest":
                freed, dropped = queue.drop_oldest(over)
                stats["frames_dropped"] += dropped
                if not freed:
                    return evict(queue)
            elif policy == "disconnect-slow":
                return evict(queue)
            else:
                stats["block_waits"] += 1
                if policy == "block-evict":
                    return evict(queue)
                queue.room = None
                queue.drain()
        return queue.enqueue(frame)

    def evict(queue) -> bool:
        queue.evicted = True
        stats["clients_evicted"] += 1
        return False

    order = ["plain", "pinned", "slow", "closer"]
    for step, record in enumerate(records):
        if step == join_at:
            connect("late")
            order.append("late")
        step_now[0] = step
        new = frame_bytes(FrameType.DATA, ctx.encode("Grid", record))
        down = frame_bytes(FrameType.DATA, old.encode("Grid", {
            "timestep": record["timestep"], "data": record["data"]}))
        got = pub.publish("Grid", record)

        live = [name for name in order if model[name].open]
        stats["subscriber_high_water"] = max(
            stats["subscriber_high_water"], len(live))
        reached = waiting = 0
        for name in live:
            if name == "plain" and step == close_at:
                model["closer"].close()
            pinned = name == "pinned"
            announce(model[name], v1.format_id if pinned else v2.format_id)
            frame = down if pinned else new
            if offer(name, frame):
                reached += 1
                # each subscriber's frame at its own size
                stats["bytes_queued"] += len(frame)
                waiting = max(waiting, model[name].queued)
        assert got == reached
        stats["messages_broadcast"] += 1
        stats["bytes_encoded"] += len(new) - 5
        stats["frames_enqueued"] += reached
        stats["frames_down_converted"] += model["pinned"].open
        stats["queue_high_water"] = max(stats["queue_high_water"],
                                        waiting)
        loop_step()

    # the slow reader catches up: what the policy left queued arrives
    peers["slow"].room = model["slow"].room = None
    loop_step()
    assert pub.stats.as_dict() == stats

    for name in names:
        assert peers[name].wire == model[name].wire, name

    # and, independently of the model, the healthy subscribers' streams
    def kinds(name):
        return [(f.type, bytes(f.payload[:8]) if f.type ==
                 FrameType.FMT_RSP else bytes(f.payload))
                for f in iter_frames(bytearray(peers[name].wire))]

    def data(fmt_ctx, steps, project=False):
        return [(FrameType.DATA, fmt_ctx.encode("Grid", {
            "timestep": records[s]["timestep"], "data": records[s]["data"],
            **({} if project else {"units": records[s]["units"]})}))
            for s in steps]

    hello_kind = (FrameType.HELLO, hello[5:])
    announce_v1 = (FrameType.FMT_RSP, v1.format_id.to_bytes())
    announce_v2 = (FrameType.FMT_RSP, v2.format_id.to_bytes())
    assert kinds("plain") == [hello_kind, announce_v2] + \
        data(ctx, range(n))
    assert kinds("pinned") == [
        hello_kind, (FrameType.LIN_RSP, lin_rsp[5:]), announce_v1] + \
        data(old, range(n), project=True)
    assert kinds("late") == [hello_kind, announce_v2] + \
        data(ctx, range(join_at, n))
    assert kinds("closer") == [hello_kind, announce_v2] + \
        data(ctx, range(close_at))
    assert decode_lineage_rsp(lin_rsp[5:])[1] == v1.format_id
    assert not clients["closer"].open
    slow = clients["slow"]
    if stats["clients_evicted"]:
        assert not slow.open
        assert isinstance(slow.close_reason, SlowConsumerError)
    else:
        assert slow.open and not slow.write_queue
    server.close()
    for peer in peers.values():
        peer.far.close()


@pytest.mark.parametrize("policy", ["block", "block-evict",
                                    "drop-oldest", "disconnect-slow"])
def test_mixed_subscribers_frame_and_cell_exact(policy):
    rng = random.Random(f"{SEED}-{policy}")
    for _ in range(ROUNDS):
        run_round(policy, rng)
