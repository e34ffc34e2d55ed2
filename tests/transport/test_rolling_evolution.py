"""One cutover, one down-convert, on both publisher kinds.

``BroadcastPublisher`` and ``ShardedBroadcastServer`` share
``PublishFront.cutover`` and ``encode_at_version``; each case here runs
once per kind, so a behaviour one topology drops shows up as a failing
parameter, not as a silent gap.
"""

import ast
import socket
from pathlib import Path

import pytest

import repro.transport as transport
from repro.obs import runtime, snapshot
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.connection import Connection
from repro.transport.messages import Frame, FrameType, encode_lineage_req
from repro.transport.sharded import ShardedBroadcastServer
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames

V1 = [("timestep", "integer"), ("size", "integer"),
      ("data", "float[size]")]
V2 = V1 + [("units", "string")]
RECORD = {"timestep": 3, "data": [0.5, 1.5], "units": "mm"}


def grid(specs, architecture) -> IOFormat:
    return IOFormat("Grid", compute_layout(
        specs, architecture=architecture).field_list)


def context(*versions) -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    for specs in versions:
        ctx.register_evolution(grid(specs, ctx.architecture))
    return ctx


def start(kind: str, ctx: IOContext):
    if kind == "broadcast":
        return BroadcastPublisher(ctx).start()
    return ShardedBroadcastServer(ctx, workers=1,
                                  start_timeout=120.0).start()


def down_converted(pub) -> int:
    """Frames down-converted by the loops that serve the subscribers:
    the publisher's own, or each shard's."""
    if isinstance(pub, BroadcastPublisher):
        return pub.stats.frames_down_converted
    return sum(shard["publisher"]["frames_down_converted"]
               for shard in pub.worker_stats(timeout=60).values())


def cutovers_counted() -> float:
    series = snapshot().get("repro_evolution_events_total",
                            {"series": []})["series"]
    return sum(s["value"] for s in series
               if s["labels"].get("event") == "cutovers")


KINDS = pytest.mark.parametrize("kind", ["broadcast", "sharded"])


@KINDS
@pytest.mark.timeout(180)
def test_each_cutover_is_counted_once(kind):
    saved = runtime.enabled
    runtime.enabled = True
    try:
        ctx = context(V1)
        pub = start(kind, ctx)
        try:
            before = cutovers_counted()
            pub.cutover(grid(V2, ctx.architecture))
            assert cutovers_counted() == before + 1
            assert pub.stats.cutovers == 1
        finally:
            pub.close()
    finally:
        runtime.enabled = saved


@KINDS
@pytest.mark.timeout(180)
def test_relay_path_down_converts_for_a_pinned_subscriber(kind):
    """``publish_encoded`` reaches ``convert_wire``: a v1-pinned
    subscriber gets the same v1 bytes from the relay path as from
    ``publish``, one down-conversion per message."""
    ctx = context(V1, V2)
    v1_id, _ = ctx.format_server.lineage("Grid")
    pub = start(kind, ctx)
    sock = socket.create_connection((pub.host, pub.port))
    sock.settimeout(30)
    buf = bytearray()
    frames = []
    try:
        sock.sendall(Frame(FrameType.LIN_REQ,
                           encode_lineage_req("Grid", [v1_id])).encode())
        # the pin holds once its LIN_RSP is read: no barrier
        while FrameType.LIN_RSP not in [f.type for f in frames]:
            buf.extend(sock.recv(1 << 16))
            frames.extend(iter_frames(buf))
        assert pub.publish_encoded(ctx.encode("Grid", RECORD)) == 1
        assert pub.publish("Grid", RECORD) == 1
        assert down_converted(pub) == 2
    finally:
        pub.close()
    while chunk := sock.recv(1 << 16):
        buf.extend(chunk)
    sock.close()
    frames.extend(iter_frames(buf))
    relayed, published = [bytes(f.payload) for f in frames
                          if f.type == FrameType.DATA]
    assert relayed == published
    # the old version decodes natively: no conversion on the receiver
    msg = context(V1).decode(relayed)
    assert msg.format_id == v1_id
    assert msg.record == {"timestep": 3, "size": 2, "data": [0.5, 1.5]}


@KINDS
@pytest.mark.timeout(180)
def test_a_pin_holds_from_its_lineage_reply_on(kind):
    """A subscriber pinned to v1 that has read its LIN_RSP receives
    every record published afterwards at v1, with no barrier on the
    publisher's side: the loop that answered the LIN_REQ is the one
    that fans the next record out."""
    ctx = context(V1, V2)
    v1_id, _ = ctx.format_server.lineage("Grid")
    pub = start(kind, ctx)
    try:
        for round_ in range(5):
            sub = Connection(context(V1),
                             TCPChannel.connect(pub.host, pub.port))
            try:
                assert sub.negotiate_version("Grid", timeout=60) == v1_id
                for t in range(2):
                    pub.publish("Grid", dict(RECORD, timestep=t))
                got = [sub.receive(timeout=30) for _ in range(2)]
                assert [(m.format_id, m.record["timestep"])
                        for m in got] == [(v1_id, 0), (v1_id, 1)], round_
                assert "units" not in got[0].record
            finally:
                sub.close()
    finally:
        pub.close()


def test_one_down_convert_one_cutover_one_replication_routine():
    """Each decision of rolling evolution has one code path under
    ``repro/transport``: the ``down_converter`` call, the ``cutover``
    definition, and the sends that replicate a format to a shard — its
    root as FMT_RSP, each lineage link as a SHARD EVOLVE."""
    calls: dict[str, set[str]] = {"down_converter": set(), "REG": set(),
                                  "EVOLVE": set()}
    cutovers = []
    for path in Path(transport.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if func.name == "cutover":
                cutovers.append(path.name)
            for node in ast.walk(func):
                text = ast.unparse(node)
                if isinstance(node, ast.Call) and \
                        text.startswith("down_converter("):
                    calls["down_converter"].add(func.name)
                if not isinstance(node, ast.Attribute):
                    continue
                if text == "Shard.EVOLVE" or (
                        text == "FrameType.FMT_RSP"
                        and path.name == "sharded.py"):
                    kind = "EVOLVE" if node.attr == "EVOLVE" else "REG"
                    calls[kind].add(f"{path.name}:{func.name}")
    assert calls["down_converter"] == {"encode_at_version"}
    assert cutovers == ["broadcast.py"]
    # the worker's control dispatch receives them; only _replicate
    # sends them
    for kind in ("REG", "EVOLVE"):
        assert calls[kind] == {"sharded.py:_replicate",
                               "sharded.py:_control"}
