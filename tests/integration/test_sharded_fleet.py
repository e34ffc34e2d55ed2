"""A 1024-subscriber fleet across four shard processes.

The acceptance story for the sharded broadcast layer: a mixed fleet —
three quarters current-version, one quarter pinned to the previous
lineage link — spread round-robin over four event-loop worker
processes on real loopback sockets.  Every record must arrive exactly
once at each subscriber's negotiated version, no shard may drop or
misdecode a frame, the malformed-wire counters must stay at zero in
every process, and every shard must have served format and lineage
negotiation from its own replica (no shard is a dumb pipe).
"""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.transport.connection import Connection
from repro.transport.sharded import ShardedBroadcastServer
from repro.transport.tcp import TCPChannel

V1 = [("timestep", "integer"), ("size", "integer"),
      ("data", "float[size]")]
V2 = V1 + [("units", "string")]

FLEET_SIZE = 1024
WORKERS = 4
PINNED = FLEET_SIZE // 4
RECORDS = 5


def grid_format(specs, architecture) -> IOFormat:
    layout = compute_layout(specs, architecture=architecture)
    return IOFormat("Grid", layout.field_list)


class Subscriber(threading.Thread):
    def __init__(self, host: str, port: int, *, pinned: bool):
        super().__init__(daemon=True)
        self.pinned = pinned
        ctx = IOContext(format_server=FormatServer())
        if pinned:
            ctx.register_evolution(grid_format(V1, ctx.architecture))
        self.conn = Connection(ctx, TCPChannel.connect(host, port))
        self.chosen = None
        #: set once the LIN_RSP is read: from then on the pin holds
        self.negotiated = threading.Event()
        self.records: list = []
        self.error: BaseException | None = None

    def run(self):
        # under a fully loaded machine the census + negotiation waits
        # for 1024 threads can outlast any single receive timeout, so
        # idle timeouts are retried against one overall deadline
        # instead of tearing the subscriber (and its shard slot) down
        # early
        deadline = time.monotonic() + 520
        try:
            if self.pinned:
                self.chosen = self.conn.negotiate_version("Grid",
                                                          timeout=300)
                self.negotiated.set()
            while time.monotonic() < deadline:
                try:
                    msg = self.conn.receive(timeout=15)
                except TransportError as exc:
                    if "timed out" in str(exc):
                        continue
                    raise
                if msg is None:
                    break
                self.records.append((msg.format_id, msg.record))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            self.error = exc
        finally:
            self.conn.close()


def malformed_total(metrics: dict) -> float:
    series = metrics.get("repro_malformed_frames_total",
                         {"series": []})["series"]
    return sum(s["value"] for s in series)


@pytest.mark.timeout(560)
def test_mixed_fleet_across_four_shards():
    ctx = IOContext(format_server=FormatServer())
    ctx.register_evolution(grid_format(V1, ctx.architecture))
    ctx.register_evolution(grid_format(V2, ctx.architecture))
    chain = ctx.format_server.lineage("Grid")
    assert len(chain) == 2
    v1_id, v2_id = chain

    with ShardedBroadcastServer(ctx, workers=WORKERS,
                                max_queue_bytes=16 << 20,
                                start_timeout=300.0) as srv:
        subs = [Subscriber(srv.host, srv.port, pinned=i < PINNED)
                for i in range(FLEET_SIZE)]
        for sub in subs:
            sub.start()
        assert srv.wait_for_subscribers(FLEET_SIZE, timeout=300), \
            f"census stalled at {srv.subscriber_count}"
        deadline = time.monotonic() + 300
        assert all(sub.negotiated.wait(max(0.0, deadline - time.monotonic()))
                   for sub in subs if sub.pinned), \
            "pinned cohort never finished negotiating"

        for t in range(RECORDS):
            record = {"timestep": t, "data": [t * 0.25, t * 0.5],
                      "units": "mm"}
            assert srv.publish("Grid", record) == WORKERS
        assert srv.flush(timeout=300), "shard queues did not drain"

        # the publisher ships the current version only; each shard
        # down-converts for its own pinned subscribers
        assert srv.stats.frames_down_converted == 0
        assert srv.stats.frames_dropped == 0

        stats = srv.worker_stats(timeout=120)
        assert len(stats) == WORKERS
        total_clients = 0
        for label, shard in stats.items():
            publisher = shard["publisher"]
            server = shard["server"]
            total_clients += server["clients"]
            # every shard holds a real slice of the fleet...
            assert server["clients"] >= FLEET_SIZE // WORKERS - 1
            # ...down-converted once per message for its pinned
            # subscribers, not once per pinned subscriber...
            assert publisher["frames_down_converted"] == RECORDS
            # ...drops and evictions never fired...
            assert publisher["frames_dropped"] == 0
            assert publisher["clients_evicted"] == 0
            # ...each shard negotiated lineage from its own replica...
            assert publisher["lineage_negotiations"] > 0, \
                f"{label} never served a LIN_REQ"
            # ...announced formats from replicated metadata...
            assert publisher["formats_announced"] > 0
            assert shard["format_server"]["formats"] >= 2
            # ...never re-encoded a record...
            assert shard["codec"]["records_encoded"] == 0
            # ...and saw zero malformed wire inputs.
            assert malformed_total(shard["metrics"]) == 0
        assert total_clients == FLEET_SIZE

    slow = [s for s in subs if not s.join(120) and s.is_alive()]
    assert not slow, f"{len(slow)} subscribers still draining"

    pinned = [s for s in subs if s.pinned]
    modern = [s for s in subs if not s.pinned]
    assert len(pinned) == PINNED
    errors = [s.error for s in subs if s.error is not None]
    assert not errors, f"subscriber failures: {errors[:3]}"

    for sub in pinned:
        assert sub.chosen == v1_id
        assert [r["timestep"] for _, r in sub.records] == \
            list(range(RECORDS))
        for fid, record in sub.records:
            assert fid == v1_id
            assert "units" not in record
    for sub in modern:
        assert [r["timestep"] for _, r in sub.records] == \
            list(range(RECORDS))
        for fid, record in sub.records:
            assert fid == v2_id
            assert record["units"] == "mm"
