"""The four streaming workloads: publish -> loopback socket -> decode.

Every workload is driven by ONE thread in lockstep (send, then receive
on the other end of the same loopback pair, same ``perf_counter``).
On the 2-CPU reference box any design with two runnable entities was
unusable (README, "measured noise"); the only other threads are the
ones the system owns (``BroadcastPublisher``'s event loop,
``MetadataHTTPServer``).
"""

from __future__ import annotations

import select
import socket
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

import gen
from hostspeed import SetUpClock, host_speed
from tracing import Tracer, dump, per_message, self_times, span_cost_ns

from repro import NATIVE, SPARC_32, XMIT, Connection, IOContext
from repro.http import DocumentStore, MetadataHTTPServer
from repro.pbio.encode import BULK_STATS, HEADER_LEN
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.messages import Frame, FrameType, decode_frame
from repro.transport.tcp import TCPChannel, tcp_pair

SCHEMAS = Path(__file__).resolve().parent / "schemas"
BLOCK_SECONDS = 0.1        # one block -> one median
TRACED_MESSAGES = 10_000   # cap: keeps the trace file to a few MB
ALLOC_MESSAGES = 64
TRACE_BLOCK_SECONDS = 0.05  # untraced / traced alternation
DIRECT_BURST = 4           # direct calls of one kind in a row
DEEP_CHECK_EVERY = 64      # np.array_equal on numpy payloads


@dataclass(frozen=True)
class StreamSpec:
    schema: str
    format_name: str
    batch: int              # K: messages in flight in throughput mode
    pool: int               # distinct records cycled through (>= batch)
    warmup: int
    arrays: str = "list"    # receiver's array representation
    hetero: bool = False    # SPARC_32 sender, shared FormatServer
    fanout: int = 0         # subscribers behind a BroadcastPublisher


STREAMS = {
    "stream_small": StreamSpec("flow.xsd", "Flow", 64, 256, 500),
    "stream_grid": StreamSpec("grid.xsd", "Grid", 1, 4, 50,
                              arrays="numpy"),
    "stream_mixed_hetero": StreamSpec("telemetry.xsd", "Telemetry", 64,
                                      64, 500, hetero=True),
    # 4 subscribers: S=1 and S=4 repeat within a few percent here,
    # S=2 is bimodal (123 vs 270 us) and must not be used
    "fanout_small": StreamSpec("flow.xsd", "Flow", 64, 256, 500,
                               fanout=4),
}


def discover_endpoint(url: str, architecture=NATIVE,
                      format_server: FormatServer | None = None):
    """One 'process': fetch the schema document, bind and register
    every format it defines (as ``examples/remote_discovery.py``)."""
    if format_server is None:  # (an empty FormatServer is falsy)
        format_server = FormatServer()
    ctx = IOContext(architecture=architecture, format_server=format_server)
    xmit = XMIT()
    for name in xmit.load_url(url):
        xmit.register_with_context(ctx, name)
    return ctx, xmit


def probe_loopback(nbytes: int) -> None:
    """The throughput mode sends a whole batch before reading any of
    it, from one thread: the host's loopback buffers must hold it."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        tx = socket.create_connection(listener.getsockname())
        rx, _addr = listener.accept()
    with tx, rx:
        tx.settimeout(2.0)
        try:
            tx.sendall(bytes(nbytes))
        except socket.timeout:
            raise SystemExit(
                f"bench_e2e: loopback buffers cannot hold {nbytes} bytes "
                "with no reader; raise net.ipv4.tcp_wmem / "
                "net.ipv4.tcp_rmem (max) — the benchmark will not "
                "shrink the record or add a reader thread") from None
        left = nbytes
        while left:
            left -= len(rx.recv(min(left, 1 << 20)))


def records_equal(sent: dict, got: dict, deep: bool) -> bool:
    """Decoded == sent; numpy payloads are compared only when *deep*
    (1 MiB per message would dominate the run)."""
    if sent.keys() != got.keys():
        return False
    for key, value in sent.items():
        if isinstance(value, np.ndarray):
            if deep and not np.array_equal(value, got[key]):
                return False
        elif value != got[key]:
            return False
    return True


class Stream:
    """One built instance of a workload: metadata server, discovered
    endpoints, connected sockets."""

    def __init__(self, spec: StreamSpec, records: list[dict]) -> None:
        self.spec = spec
        self.records = records
        self.next_seq = 0
        self.attempted = 0
        self.failed = 0
        store = DocumentStore()
        store.put("/" + spec.schema, (SCHEMAS / spec.schema).read_text())
        self.http = MetadataHTTPServer(store)
        url = self.http.url_for("/" + spec.schema)
        shared = FormatServer() if spec.hetero else None
        self.tx_ctx, _ = discover_endpoint(
            url, SPARC_32 if spec.hetero else NATIVE, shared)
        self.publisher = None
        if spec.fanout:
            self.publisher = BroadcastPublisher(
                self.tx_ctx, policy="block").start()
            self.receivers = [
                Connection(discover_endpoint(url)[0],
                           TCPChannel.connect(self.publisher.host,
                                              self.publisher.port),
                           arrays=spec.arrays)
                for _ in range(spec.fanout)]
            if not self.publisher.wait_for_subscribers(spec.fanout, 5.0):
                raise RuntimeError("subscribers did not connect")
            self.sender = None
        else:
            rx_ctx, _ = discover_endpoint(url, NATIVE, shared)
            client, server = tcp_pair()
            self.sender = Connection(self.tx_ctx, client)
            self.receivers = [Connection(rx_ctx, server,
                                         arrays=spec.arrays)]
        #: socket bytes of one message on one socket (frame prefix 5)
        self.frame_len = 5 + len(self.tx_ctx.encode(spec.format_name,
                                                    records[0]))
        self.bind()

    def bind(self) -> None:
        """(Re)read the callables the timed loops use — after the
        tracer replaced them."""
        self.send = (self.publisher.publish if self.publisher
                     else self.sender.send)
        self.receives = [rx.receive for rx in self.receivers]

    def close(self) -> None:
        if self.sender is not None:
            self.sender.close()
        for rx in self.receivers:
            rx.close()
        if self.publisher is not None:
            self.publisher.close()
        self.http.close()

    # -- inputs and oracles -------------------------------------------------

    def next_record(self) -> dict:
        record = self.records[self.next_seq % len(self.records)]
        record["seq"] = self.next_seq
        self.next_seq += 1
        return record

    def check(self, sent: dict, got: list) -> None:
        """One attempted message: every receiver must have decoded
        exactly what was sent, in ``seq`` order."""
        self.attempted += 1
        deep = sent["seq"] % DEEP_CHECK_EVERY == 0
        if not all(msg is not None and msg.format_name ==
                   self.spec.format_name and
                   records_equal(sent, msg.record, deep) for msg in got):
            self.failed += 1

    def wire_bytes(self) -> int:
        """Socket bytes handed to the kernel so far."""
        if self.publisher is not None:
            return self.publisher.stats.bytes_queued
        return self.sender.channel.bytes_sent

    # -- timed loops --------------------------------------------------------

    def lockstep(self, seconds: float = 0.0, count: int = 0) -> list[float]:
        """One message in flight: ``send``/``publish`` call start ->
        decoded record in hand (last subscriber on fan-out).  Runs for
        *seconds* or *count* messages; returns latencies in seconds."""
        send, receives, name = self.send, self.receives, \
            self.spec.format_name
        samples: list[float] = []
        t1 = perf_counter()
        end = t1 + seconds
        while t1 < end or len(samples) < count:
            record = self.next_record()
            t0 = perf_counter()
            send(name, record)
            got = [receive() for receive in receives]
            t1 = perf_counter()
            samples.append(t1 - t0)
            self.check(record, got)
        return samples

    def batches(self, seconds: float) -> list[float]:
        """Closed loop with K in flight: send K, then receive K (from
        each subscriber); returns wall time per batch in seconds."""
        send, receives, name = self.send, self.receives, \
            self.spec.format_name
        k = self.spec.batch
        samples: list[float] = []
        t1 = perf_counter()
        end = t1 + seconds
        while t1 < end:
            records = [self.next_record() for _ in range(k)]
            t0 = perf_counter()
            for record in records:
                send(name, record)
            got = [[receive() for _ in range(k)] for receive in receives]
            t1 = perf_counter()
            samples.append(t1 - t0)
            for i, record in enumerate(records):
                self.check(record, [column[i] for column in got])
        return samples

    def warm_up(self) -> None:
        self.lockstep(count=self.spec.warmup)
        self.batches(0.0)  # one batch


def alternate(seconds: float, setup: SetUpClock, *kinds):
    """Run the block *kinds* — ``(block, statistic)`` pairs — in turn
    for *seconds*, so a noisy stretch hits all of them, with a
    host-speed probe between blocks.  Per kind: the blocks' statistics
    at the reference speed (``hostspeed``), the same as measured, and
    the blocks' sample counts.  Also ``setup_s``, which ends here."""
    results = [([], [], []) for _ in kinds]
    now = perf_counter()
    speed = host_speed()
    setup_s = setup.seconds(now, speed)
    end = perf_counter() + seconds
    while perf_counter() < end or not results[-1][0]:
        for (block, statistic), (scaled, raw, counts) in zip(kinds,
                                                             results):
            samples = block(BLOCK_SECONDS)
            before, speed = speed, host_speed()
            value = statistic(samples)
            scaled.append(value * (before + speed) / 2)
            raw.append(value)
            counts.append(len(samples))
    return results, setup_s


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, setup: SetUpClock) -> dict:
    spec = STREAMS[name]
    records = gen.streaming_records(spec.format_name, seed, spec.pool)
    stream = Stream(spec, records)
    try:
        if not spec.fanout:
            probe_loopback(stream.frame_len * spec.batch)
        stream.warm_up()
        if trace:
            metrics, notes = traced_pass(name, stream, seconds, out_dir)
        else:
            metrics, notes = timed_pass(stream, seconds, setup)
        # the size claim is exact: every message is one frame per socket
        correct = (stream.failed == 0 and notes["wire_bytes_per_msg"]
                   == stream.frame_len * max(spec.fanout, 1))
        if stream.publisher is not None:
            correct &= stream.publisher.stats.frames_dropped == 0
    finally:
        stream.close()
    return {"correct": bool(correct), "attempted": stream.attempted,
            "failed": stream.failed, "metrics": metrics, "notes": notes}


def timed_pass(stream: Stream, seconds: float, setup: SetUpClock):
    """Alternate latency blocks (one in flight) and throughput blocks
    (K in flight); each block yields a median, the run reports the
    median of the block medians."""
    bytes0, msgs0 = stream.wire_bytes(), stream.attempted
    (latency, batch), setup_s = alternate(
        seconds, setup, (stream.lockstep, median),
        (stream.batches, median))
    wire = (stream.wire_bytes() - bytes0) / (stream.attempted - msgs0)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_us": median(latency[0]) * 1e6,
        "msgs_per_s": stream.spec.batch / median(batch[0]),
        "wire_bytes_per_msg": wire,
    }
    notes = {"wire_bytes_per_msg": wire,
             "latency_samples": sum(latency[2]),
             "blocks": len(latency[0]), "batch_k": stream.spec.batch,
             "latency_p50_us_as_measured": median(latency[1]) * 1e6,
             "msgs_per_s_as_measured":
                 stream.spec.batch / median(batch[1])}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def trace_stream(stream: Stream) -> Tracer:
    """Wrap the layer boundaries of the objects this stream built."""
    tracer = Tracer()
    if stream.sender is not None:
        conn = stream.sender
        tracer.wrap(conn, "send", "transport.connection.send")
        tracer.wrap(conn.context, "encode", "pbio.context.encode")
        tracer.wrap(conn.channel, "send", "transport.tcp.send")
    else:
        publisher = stream.publisher
        tracer.wrap(publisher, "publish", "transport.broadcast.publish")
        tracer.wrap(publisher, "flush", "transport.broadcast.flush")
        tracer.wrap(publisher.server, "enqueue",
                    "transport.eventloop.enqueue", owner_only=True)
    for conn in stream.receivers:
        tracer.wrap(conn, "receive", "transport.connection.receive")
        tracer.wrap(conn.context, "decode", "pbio.context.decode")
        tracer.wrap(conn.channel, "recv", "transport.tcp.recv")
    return tracer


def allocation_peak_kb(stream: Stream) -> float:
    """Allocation peak of one message (tracemalloc slows everything,
    so it gets its own short pass)."""
    peaks = []
    tracemalloc.start()
    for _ in range(ALLOC_MESSAGES):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stream.lockstep(count=1)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    return median(peaks) / 1024


def direct_calls_us(stream: Stream, seconds: float) -> dict[str, float]:
    """IOContext against the raw codec, and the framing, called
    directly on the records the messages carry.  A pass of its own:
    between traced messages it would evict their code and data from
    the caches.  The calls take turns in short bursts, each call on an
    input nobody has read yet, its result released outside the timed
    interval: equal conditions for both sides of a ratio."""
    spec = stream.spec
    tx_ctx, rx_ctx = stream.tx_ctx, stream.receivers[0].context
    fmt = tx_ctx.lookup_format(spec.format_name)
    encoder = tx_ctx.encoder_for(fmt)
    decoder = rx_ctx.decoder_for(fmt, arrays=spec.arrays)
    calls = {
        "ctx_encode": (None, lambda record: tx_ctx.encode(fmt, record)),
        "raw_encode": (None, encoder.encode_wire),
        "ctx_decode": (encoder.encode_wire, lambda wire: rx_ctx.decode(
            wire, arrays=spec.arrays)),
        "raw_decode": (encoder.encode_wire, lambda wire: decoder.decode(
            memoryview(wire)[HEADER_LEN:])),
        "frame": (encoder.encode_wire, lambda wire: decode_frame(
            Frame(FrameType.DATA, wire).encode()[4:])),
    }
    direct = {key: [] for key in calls}
    end = perf_counter() + seconds
    while perf_counter() < end or not direct["frame"]:
        for key, (prepare, call) in calls.items():
            for record in stream.records[:DIRECT_BURST]:
                arg = prepare(record) if prepare else record
                t0 = perf_counter_ns()
                result = call(arg)
                t1 = perf_counter_ns()
                direct[key].append(t1 - t0)
                del result, arg
    return {key: median(ns) / 1e3 for key, ns in direct.items()}


def traced_pass(name: str, stream: Stream, seconds: float, out_dir: Path):
    spec, publisher = stream.spec, stream.publisher
    # untraced reference blocks and traced blocks alternate, so the
    # host's slow and fast phases (README, noise) hit both alike and
    # the ledger compares like with like
    tracer = trace_stream(stream)
    first_fd = [stream.receivers[0].channel.fileno()]
    bulk0 = BULK_STATS.snapshot()
    stats0 = publisher.stats.as_dict() if publisher else {}
    encoded0 = stream.tx_ctx.stats.records_encoded
    bytes0, msgs0 = stream.wire_bytes(), stream.attempted
    reference: list[float] = []
    traced = 0
    end = perf_counter() + seconds * 0.8
    while perf_counter() < end or not traced:
        tracer.detach()
        stream.bind()
        reference.extend(stream.lockstep(TRACE_BLOCK_SECONDS))
        if traced >= TRACED_MESSAGES:
            continue
        tracer.attach()
        stream.bind()
        send, receives = stream.send, stream.receives
        block_end = perf_counter() + TRACE_BLOCK_SECONDS
        while perf_counter() < block_end:
            record = stream.next_record()
            with tracer.span("message"):
                send(spec.format_name, record)
                if publisher is not None:
                    # publish return -> first subscriber's frame
                    # readable, then -> every queue drained
                    with tracer.span("transport.eventloop.delivery"):
                        select.select(first_fd, [], [], 5.0)
                    publisher.flush(5.0)
                got = [receive() for receive in receives]
            stream.check(record, got)
            traced += 1
    tracer.detach()
    stream.bind()
    messages = stream.attempted - msgs0
    wire = (stream.wire_bytes() - bytes0) / messages
    copied = BULK_STATS.snapshot()["copied_bytes"] - bulk0["copied_bytes"]
    untraced_us = median(reference) * 1e6
    metrics = {
        "tail.latency_p99_us": percentile(reference, 0.99) * 1e6,
        "pbio.encode.copied_bytes_per_msg": copied / messages,
    }
    if publisher is not None:
        stats = publisher.stats.as_dict()
        metrics.update({
            "transport.broadcast.encodes_per_publish":
                (stream.tx_ctx.stats.records_encoded - encoded0)
                / messages,
            "transport.broadcast.frames_per_publish":
                (stats["frames_enqueued"] - stats0["frames_enqueued"])
                / messages,
            "transport.broadcast.frames_dropped":
                stats["frames_dropped"] - stats0["frames_dropped"],
            "transport.broadcast.block_waits":
                stats["block_waits"] - stats0["block_waits"],
            "transport.broadcast.queue_high_water_bytes":
                stats["queue_high_water"],
        })

    metrics["alloc.peak_kb_per_msg"] = allocation_peak_kb(stream)
    direct_us = direct_calls_us(stream, seconds * 0.1)

    spans = tracer.spans()
    out_dir.mkdir(parents=True, exist_ok=True)
    dump(spans, out_dir / f"trace-{name}.json")

    total = per_message(spans, [s[2] - s[1] for s in spans])
    own = per_message(spans, self_times(spans))

    def us(table: dict, span: str) -> float:
        return median(table[span]) / 1e3 if span in table else 0.0

    # everything inside the message that a layer span covers, less
    # what the wrappers nested inside those spans cost themselves
    nested = sum(1 for s in spans if s[3] >= 0 and spans[s[3]][3] >= 0)
    cost_us = span_cost_ns() / 1e3
    attributed_us = median(
        t - s for t, s in zip(total["message"], own["message"])) / 1e3 \
        - cost_us * nested / traced
    delivery_us = us(total, "transport.eventloop.delivery")
    for layer in ("transport.connection.send",
                  "transport.connection.receive"):
        metrics[layer + "_us"] = us(total, layer)
        metrics[layer + "_self_us"] = us(own, layer)
    for layer in ("transport.tcp.send", "transport.tcp.recv",
                  "transport.broadcast.publish",
                  "transport.eventloop.enqueue"):
        metrics[layer + "_us"] = us(total, layer)
    metrics.update({
        # in the message (summed over subscribers on fan-out) ...
        "pbio.context.encode_us": us(total, "pbio.context.encode"),
        "pbio.context.decode_us": us(total, "pbio.context.decode"),
        # ... and called directly, back to back with the raw codec
        "pbio.encode.raw_us": direct_us["raw_encode"],
        "pbio.context.encode_overhead_ratio":
            direct_us["ctx_encode"] / direct_us["raw_encode"],
        "pbio.decode.raw_us": direct_us["raw_decode"],
        "pbio.context.decode_overhead_ratio":
            direct_us["ctx_decode"] / direct_us["raw_decode"],
        "transport.messages.frame_us": direct_us["frame"],
        "transport.eventloop.delivery_us": delivery_us,
        "transport.eventloop.drain_us":
            delivery_us + us(total, "transport.broadcast.flush"),
        "ledger.unattributed_ratio":
            abs(untraced_us - attributed_us) / untraced_us,
        "ledger.trace_overhead_ratio":
            us(total, "message") / untraced_us - 1.0,
    })
    notes = {"wire_bytes_per_msg": wire,
             "reference_samples": len(reference),
             "reference_p50_us": untraced_us, "traced_messages": traced,
             "traced_p50_us": us(total, "message"),
             "attributed_us": attributed_us, "span_cost_us": cost_us,
             "nested_spans_per_message": nested / traced}
    return metrics, notes
