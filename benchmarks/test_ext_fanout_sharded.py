"""Extension experiment — sharded broadcast past one event loop.

``test_ext_fanout`` shows encode-once amortizing marshaling across
subscribers inside a single event-loop process.  This sweep measures
what the sharded layer adds: the same encode-once frame fanned out to
N subscribers spread over 1, 2 and 4 *worker processes*
(:class:`~repro.transport.sharded.ShardedBroadcastServer`, whose
acceptor round-robins subscribers, so the split is exact).

Two claims, both recorded in ``BENCH_fanout_sharded.json`` and
enforced by ``benchmarks/check_gates.py``:

* **encode-once survives sharding** — the publisher marshals each
  record exactly once no matter how many workers fan it out (codec and
  bulk-path counters, not timings, prove it: workers encode zero
  records, the publisher spills each grid once);
* **shards buy wall-clock on real cores** — with enough CPUs the
  drain parallelism shows up as speedup (>= 1.6x at 2 workers, 2.5x
  at 4); on starved runners the gate degrades to a no-regression
  floor, keyed off the recorded ``cpus`` field.

The 256-subscriber, one-worker cell also records ``floor_us``, a bare
loop ``sendall``-ing the same frame to 256 loopback sockets
(:mod:`benchmarks.fanout_floor`), and ``per_client_over_floor``: the
Python the server spends per subscriber above the send.

In-test assertions cover only the machine-independent counter shape,
so a 1-CPU container cannot flake the suite.
"""

from __future__ import annotations

import array
import os
import socket
import time

import pytest

from benchmarks.fanout_floor import floor_us
from benchmarks.test_ext_fanout import _Drainer
from repro.pbio.context import IOContext
from repro.pbio.encode import BULK_STATS
from repro.pbio.format_server import FormatServer
from repro.transport.messages import FrameType, frame_bytes
from repro.transport.sharded import ShardedBroadcastServer

FANOUT = (256, 1024, 4096)
WORKER_COUNTS = (1, 2, 4)
#: messages per timed round, sized down as the fleet grows so the
#: whole matrix fits a CI slot; per-client costs normalize this out
MESSAGES = {256: 40, 1024: 16, 4096: 8}
GRID_FLOATS = 1024  # 8 KiB payload: well past SPILL_MIN_BYTES
#: (clients, workers) whose ``per_client_us`` is also recorded over the
#: send floor (:mod:`benchmarks.fanout_floor`)
FLOOR_CELL = (256, 1)

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]", 8)]
# float64 array payload matching the 8-byte field: the bulk fast path
# spills it as a zero-copy segment instead of copying per element
RECORD = {"timestep": 7,
          "data": array.array("d", range(GRID_FLOATS))}

pytestmark = pytest.mark.timeout(600)


def _context() -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("GridSlab", SPECS)
    return ctx


def _measure(clients: int, workers: int) -> dict:
    messages = MESSAGES[clients]
    srv = ShardedBroadcastServer(
        _context(), workers=workers, policy="block",
        max_queue_bytes=32 * 1024 * 1024, start_timeout=300.0)
    srv.start()
    # one drainer thread per shard (the acceptor round-robins socket i to
    # worker i % workers), so the receive side scales with the fleet
    # and a single reader thread cannot cap the measured speedup
    drainers = [_Drainer() for _ in range(workers)]
    socks = []
    try:
        for i in range(clients):
            sock = socket.create_connection((srv.host, srv.port))
            socks.append(sock)
            drainers[i % workers].watch(sock)
        for drainer in drainers:
            drainer.start()
        assert srv.wait_for_subscribers(clients, timeout=300)

        # warm round: spawn caches, compiled plans, TCP stacks
        for _ in range(2):
            srv.publish("GridSlab", RECORD)
        assert srv.flush(timeout=300)

        codec_before = srv.context.stats.as_dict()["records_encoded"]
        bulk_before = BULK_STATS.snapshot()
        start = time.perf_counter()
        for _ in range(messages):
            srv.publish("GridSlab", RECORD)
        assert srv.flush(timeout=300)
        elapsed = time.perf_counter() - start

        encoded = srv.context.stats.as_dict()["records_encoded"] \
            - codec_before
        bulk_after = BULK_STATS.snapshot()
        spilled = bulk_after["spilled_segments"] \
            - bulk_before["spilled_segments"]
        shard_stats = srv.worker_stats(timeout=120)
        worker_encoded = sum(s["codec"]["records_encoded"]
                             for s in shard_stats.values())
        worker_bulk = sum(sum(s["bulk"].values())
                          for s in shard_stats.values())
        dropped = srv.stats.frames_dropped + sum(
            s["publisher"]["frames_dropped"]
            for s in shard_stats.values())
    finally:
        srv.close()
        for drainer in drainers:
            drainer.close()
        for sock in socks:
            sock.close()
    return {
        "clients": clients,
        "workers": workers,
        "messages": messages,
        "total_s": elapsed,
        "per_message_us": elapsed / messages * 1e6,
        "per_client_us": elapsed / (messages * clients) * 1e6,
        "parent_records_encoded": encoded,
        "parent_spilled_segments": spilled,
        "worker_records_encoded": worker_encoded,
        "worker_bulk_ops": worker_bulk,
        "frames_dropped": dropped,
    }


@pytest.mark.parametrize("clients", FANOUT)
def test_sharded_fanout_sweep_recorded(clients, bench_json):
    """One fleet size across the worker-count axis; records rows for
    the CI gate and asserts the encode-once counter shape."""
    metrics = bench_json["BENCH_fanout_sharded.json"]
    metrics.setdefault("cpus", os.cpu_count() or 1)
    matrix = metrics.setdefault("matrix", {})
    rows = matrix.setdefault(str(clients), {})
    for workers in WORKER_COUNTS:
        row = _measure(clients, workers)
        rows[str(workers)] = row
        if (clients, workers) == FLOOR_CELL:
            # the same frame, sendall-ed by a bare loop, in this run
            ctx = _context()
            row["floor_us"] = floor_us(clients, frame_bytes(
                FrameType.DATA, ctx.encode("GridSlab", RECORD)),
                row["messages"])
            row["per_client_over_floor"] = \
                row["per_client_us"] / row["floor_us"]
        # machine-independent acceptance: marshal once, fan out many
        assert row["parent_records_encoded"] == row["messages"], row
        assert row["parent_spilled_segments"] >= row["messages"], row
        assert row["worker_records_encoded"] == 0, \
            "a shard re-encoded a record"
        assert row["worker_bulk_ops"] == 0, \
            "a shard touched the bulk codec"
        assert row["frames_dropped"] == 0, row


@pytest.mark.benchmark(group="ext-fanout-sharded")
def test_ext_sharded_two_workers(benchmark):
    """pytest-benchmark row: 256 subscribers across two shards."""
    benchmark.pedantic(lambda: _measure(256, 2), rounds=1,
                       iterations=1)
