"""Encode-once broadcast over the event loop.

The paper's Section 1 motivates binary metadata exactly here:
"server-based applications in which single servers must provide
information to large numbers of clients", where scalability "implies
the need to reduce per-client or per-source processing".
:class:`BroadcastPublisher` makes that reduction concrete: each record
is marshaled **once** through the context's fused encoder plan, framed
once, and the *same* immutable bytes object is offered to every
subscriber — per-client work is one non-blocking ``send`` (behind a
full socket buffer: a queue append plus a share of a scatter-gather
``sendmsg``), independent of record complexity.

Per-client costs that cannot be shared are amortized instead:

* **format announcement** — the first record of each format pushes one
  FMT_RSP frame (ID + canonical metadata) to each client before the
  data, so subscribers' :class:`~repro.transport.connection.Connection`
  objects import the format without ever sending a FMT_REQ;
* **backpressure** — per-client write queues are bounded by
  ``max_queue_bytes``, and a slow consumer triggers the configured
  :class:`BackpressurePolicy` without stalling healthy clients.

Counters are a :class:`~repro.obs.registry.Tally`, like
:class:`~repro.http.retry.DiscoveryStats` — exact under concurrent
writers, read via :attr:`BroadcastPublisher.stats`.
"""

from __future__ import annotations

import enum
import json
import threading

from repro.errors import SlowConsumerError
from repro.obs import runtime as _obs
from repro.obs.registry import Tally
from repro.obs.spans import observe_phase, sample_t0
from repro.pbio.context import IOContext
from repro.pbio.encode import parse_header
from repro.pbio.format import FormatID, IOFormat
from repro.transport.connection import (
    answer_lineage_request, encode_at_version,
)
from repro.transport.eventloop import ClientHandle, EventLoopServer
from repro.transport.messages import (
    MAX_FRAME, Frame, FrameType, frame_bytes, lineage_reply,
)


class BackpressurePolicy(enum.Enum):
    """What to do when a subscriber's write queue is full.

    * ``BLOCK`` — the publisher waits (up to ``block_timeout``) for
      the queue to drain; a consumer still stuck after the wait is
      evicted so one dead peer cannot stall the broadcast forever.
    * ``DROP_OLDEST`` — the oldest queued data frames are discarded to
      make room (control frames are never dropped); the client stays
      connected but sees a gap.
    * ``DISCONNECT_SLOW`` — the client is evicted immediately with a
      :class:`~repro.errors.SlowConsumerError` close reason.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    DISCONNECT_SLOW = "disconnect-slow"

    @classmethod
    def coerce(cls, value) -> "BackpressurePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown backpressure policy {value!r} "
                f"(expected one of: {names})") from None


class BroadcastStats(Tally):
    """Publisher-lifetime counters and high-water marks.

    Written by whichever thread does the work (the publishing thread
    per fan-out, the loop thread per handshake), each in its own row;
    read as attributes or :meth:`as_dict`.  Over every publisher the
    counters sum into ``repro_broadcast_events_total{event=...}`` and
    the high-water marks max into the ``repro_broadcast_*_high_water``
    gauges.

    ``queue_high_water`` is the most bytes one subscriber had waiting
    in user space after a data frame was offered to it: 0 while every
    frame writes through to the kernel, else the backlog behind a
    full socket buffer.
    """

    _COUNTERS = ("messages_broadcast", "frames_enqueued",
                 "bytes_queued", "bytes_encoded", "formats_announced",
                 "frames_dropped", "clients_evicted", "block_waits",
                 "lineage_negotiations", "frames_down_converted",
                 "cutovers")
    _HIGH_WATER = {
        "queue_high_water": "repro_broadcast_queue_high_water",
        "subscriber_high_water": "repro_broadcast_subscriber_high_water"}
    _METRIC = "repro_broadcast_events_total"

    __slots__ = ()


class PublishFront:
    """The publishing half every broadcast server shares: resolve the
    format, marshal **once**, frame once, and hand the frame — plus its
    source (the record, or the wire bytes on the relay path), which
    :func:`~repro.transport.connection.encode_at_version` re-encodes for
    a subscriber pinned to an older lineage version — to what a
    topology decides for itself, ``_fan_out(fmt, data, source)``.  The
    cutover is shared the same way: each topology supplies only its
    :meth:`reannounce` step.

    Subclasses provide ``context`` (the only
    :class:`~repro.pbio.context.IOContext` that ever encodes) and
    ``stats`` (a :class:`BroadcastStats`).
    """

    def publish(self, format_name: str | IOFormat, record: dict) -> int:
        """Marshal *record* exactly once and fan the same frame bytes
        out; returns what :meth:`_fan_out` reached (subscribers for a
        single loop, live shards for a sharded server)."""
        fmt = (format_name if isinstance(format_name, IOFormat)
               else self.context.lookup_format(format_name))
        # all parts framed in a single join — bulk array payloads
        # arrive as zero-copy segments, so a 1 MB grid is copied
        # exactly once (by the join), never per layer
        parts = self.context.encode(fmt, record, parts=True)
        return self._fan_out(fmt, frame_bytes(FrameType.DATA, *parts),
                             record)

    def publish_encoded(self, wire: bytes) -> int:
        """Fan out an already-encoded record (bytes from
        :meth:`~repro.pbio.context.IOContext.encode`)."""
        fid, _ = parse_header(wire, require_body=True)
        fmt = self.context._resolve_wire_format(fid)
        return self._fan_out(fmt, frame_bytes(FrameType.DATA, wire),
                             wire)

    def cutover(self, new_fmt: IOFormat) -> int:
        """Upgrade the stream to *new_fmt* mid-flight, zero drops.

        The name's current binding becomes the previous lineage link
        (:meth:`~repro.pbio.context.IOContext.register_evolution`
        validates the restricted-evolution rule), then :meth:`reannounce`
        pushes the new metadata as FMT_RSP and the grown lineage as
        LIN_RSP to every subscriber, as **non-droppable** control frames
        on its FIFO write queue.  FIFO ordering is the zero-drop
        guarantee: the announcements land strictly before the first
        record published at the new version, so an un-negotiated
        subscriber resolves the new ID without a FMT_REQ round-trip,
        while subscribers pinned to an ancestor version keep receiving
        down-converted frames and never notice the cut.  Returns what
        :meth:`reannounce` reached.
        """
        self.context.register_evolution(new_fmt)
        self.stats.count("cutovers")
        if _obs.enabled:
            from repro.obs.metrics import EVOLUTION_EVENTS
            EVOLUTION_EVENTS.labels("cutovers").inc()
        return self.reannounce(new_fmt.name, new_fmt.format_id)


class BroadcastPublisher(PublishFront):
    """One-thread fan-out server: encode once, enqueue everywhere.

    Also serves the metadata protocol from the same loop: FMT_REQ (and
    FMT_REG) frames from subscribers are answered out of the context's
    :class:`~repro.pbio.format_server.FormatServer` via
    :meth:`~repro.pbio.format_server.FormatServer.handle_frame`, so a
    late subscriber that missed an announcement can still resolve IDs
    without a second server process.
    """

    def __init__(self, context: IOContext, *,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: BackpressurePolicy | str =
                 BackpressurePolicy.BLOCK,
                 max_queue_bytes: int = 4 * 1024 * 1024,
                 block_timeout: float = 5.0,
                 max_frame_len: int = MAX_FRAME,
                 listen: bool = True) -> None:
        self.context = context
        self.policy = BackpressurePolicy.coerce(policy)
        self.max_queue_bytes = max_queue_bytes
        self.block_timeout = block_timeout
        self.stats = BroadcastStats()
        self._lock = threading.Lock()
        self._closed = False
        self._hello = Frame(
            FrameType.HELLO,
            context.architecture.name.encode("utf-8")).encode()
        self.server = EventLoopServer(host=host, port=port,
                                      handler=self,
                                      max_frame_len=max_frame_len,
                                      listen=listen)
        self.host, self.port = self.server.host, self.server.port

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "BroadcastPublisher":
        self.server.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Flush queues, announce end-of-stream (BYE) and shut down."""
        if self._closed:
            return
        self._closed = True
        bye = Frame(FrameType.BYE, b"").encode()
        for client in self.server.clients():
            self.server.enqueue(client, bye, droppable=False)
            self.server.request_close(client, None, graceful=True)
        self.server.flush(timeout)
        self.server.close(timeout)

    def __enter__(self) -> "BroadcastPublisher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def reannounce(self, name: str, new_fid: FormatID) -> int:
        """Push *name*'s new version *new_fid* (already in the format
        server's lineage) to every subscriber: its metadata, then a
        LIN_RSP naming the version that subscriber keeps receiving.
        The single loop's step of :meth:`cutover`, run here and, on a
        ``CUTOVER`` control message, in every shard worker."""
        chain = self.context.format_server.lineage(name)
        reached = 0
        for client in self.server.open_clients:
            if new_fid.value not in client.announced:
                self._announce_id(client, new_fid)
            chosen = client.negotiated.get(name, new_fid)
            payload = lineage_reply(name, chosen, chain)
            if self.server.enqueue(
                    client, frame_bytes(FrameType.LIN_RSP, payload),
                    droppable=False):
                reached += 1
        return reached

    def flush(self, timeout: float | None = None) -> bool:
        """Wait until every subscriber's queue has drained."""
        return self.server.flush(timeout)

    def wait_for_subscribers(self, count: int,
                             timeout: float | None = None) -> bool:
        return self.server.wait_for_clients(count, timeout)

    @property
    def subscriber_count(self) -> int:
        return self.server.client_count

    def stats_dict(self) -> dict:
        out = self.stats.as_dict()
        out["subscribers"] = self.subscriber_count
        return out

    # -- internals ----------------------------------------------------------

    def _fan_out(self, fmt: IOFormat, data: bytes, source) -> int:
        t0 = sample_t0()
        clients = self.server.open_clients  # lock-free: fresh per change
        fid = fmt.format_id
        #: (digest, its value, frame) for the current version, then per
        #: stale version this fan-out re-encodes for — at most once per
        #: *version*, shared by every subscriber on it
        current = (fid, fid.value, data)
        variants: dict[FormatID, tuple] = {}
        sends = []
        for client in clients:
            send = current
            if client.negotiated:
                target = client.negotiated.get(fmt.name)
                if target is not None and target != fid:
                    send = variants.get(target)
                    if send is None:
                        send = variants[target] = (
                            target, target.value, frame_bytes(
                                FrameType.DATA, *encode_at_version(
                                    self.context, fmt, source, target)))
            send_fid, key, frame = send
            if key not in client.announced:
                self._announce_id(client, send_fid)
            sends.append((client, frame))
        reached, queued, waiting = self._deliver(sends)
        if t0:
            observe_phase("transport", t0)
        # one encode regardless of subscriber count — the whole
        # point; frame overhead (5 bytes) excluded
        row = self.stats.row()
        row["messages_broadcast"] += 1
        row["bytes_encoded"] += len(data) - 5
        row["frames_enqueued"] += reached
        row["bytes_queued"] += queued
        row["frames_down_converted"] += len(variants)
        if waiting > row["queue_high_water"]:
            row["queue_high_water"] = waiting
        if len(clients) > row["subscriber_high_water"]:
            row["subscriber_high_water"] = len(clients)
        return reached

    def _deliver(self, sends: list) -> tuple[int, int, int]:
        """One write-through pass, then :meth:`_offer`, outside the lock,
        for each subscriber it left over its bound: ``(reached, bytes
        queued, most bytes one of them has waiting)``."""
        reached, queued, waiting, over = self.server.write_through(
            sends, self.max_queue_bytes)
        for client, frame in over:
            if self._offer(client, frame):
                reached += 1
                queued += len(frame)
                waiting = max(waiting, client.queued_bytes)
        return reached, queued, waiting

    def _announce_id(self, client: ClientHandle, fid: FormatID) -> None:
        """Push the format's metadata once per client, ahead of its
        first record — the lazy half of connection establishment.
        Keyed by ID: shard workers announce formats they hold only as
        replicated metadata bytes, never as compiled
        :class:`~repro.pbio.format.IOFormat` objects."""
        metadata = self.context.format_server.lookup_bytes(fid)
        frame = frame_bytes(FrameType.FMT_RSP, fid.to_bytes(),
                            metadata)
        if self.server.enqueue(client, frame, droppable=False):
            client.announced.add(fid.value)
            self.stats.count("formats_announced")

    def _offer(self, client: ClientHandle, data: bytes) -> bool:
        """Enqueue under the bounded-queue policy (:meth:`_deliver` calls
        this only for a subscriber over its bound).

        The publisher is the only thread enqueueing *data* frames, so
        the limit check followed by the enqueue cannot over-admit data.
        The loop thread also enqueues small control frames (HELLO on
        connect, FMT_RSP/FMT_ACK metadata replies) that bypass this
        policy, so ``max_queue_bytes`` is a data-frame bound that
        control traffic may briefly overshoot — never by more than the
        outstanding control frames' size."""
        over = client.queued_bytes + len(data) - self.max_queue_bytes
        if over > 0:
            if self.policy is BackpressurePolicy.DROP_OLDEST:
                freed, dropped = self.server.drop_oldest(client, over)
                self.stats.count("frames_dropped", dropped)
                if not freed:
                    # nothing droppable (all control frames / one giant
                    # in-flight frame): the client cannot make progress
                    return self._evict(client)
            elif self.policy is BackpressurePolicy.DISCONNECT_SLOW:
                return self._evict(client)
            else:  # BLOCK
                self.stats.count("block_waits")
                limit = max(self.max_queue_bytes - len(data), 0)
                if not self.server.wait_queue_below(
                        client, limit, self.block_timeout):
                    return self._evict(client)
                if not client.open:
                    return False
        return self.server.enqueue(client, data)

    def _evict(self, client: ClientHandle) -> bool:
        self.server.request_close(
            client,
            SlowConsumerError(
                f"subscriber {client.addr} exceeded "
                f"{self.max_queue_bytes}-byte write queue"))
        self.stats.count("clients_evicted")
        return False

    # -- event-loop handler callbacks (loop thread) -------------------------

    def on_connect(self, client: ClientHandle) -> None:
        self.server.enqueue(client, self._hello, droppable=False)

    def on_frame(self, client: ClientHandle, frame: Frame) -> None:
        if frame.type == FrameType.HELLO:
            client.peer_architecture = frame.payload.decode(
                "utf-8", errors="replace")
            return
        if frame.type == FrameType.BYE:
            self.server.request_close(client, None, graceful=True)
            return
        if frame.type == FrameType.LIN_REQ:
            self._handle_lineage_request(client, frame.payload)
            return
        if frame.type == FrameType.STATS_REQ:
            # live telemetry over the data channel: the process-wide
            # obs snapshot plus this publisher's own counters
            from repro.obs import snapshot
            payload = json.dumps(
                {"metrics": snapshot(),
                 "publisher": self.stats_dict()},
                sort_keys=True).encode("utf-8")
            self.server.enqueue(
                client, frame_bytes(FrameType.STATS_RSP, payload),
                droppable=False)
            return
        # metadata protocol served from the same loop
        reply = self.context.format_server.handle_frame(
            frame.type, frame.payload)
        if reply is not None:
            rtype, payload = reply
            self.server.enqueue(client, frame_bytes(rtype, payload),
                                droppable=False)

    def _handle_lineage_request(self, client: ClientHandle,
                                payload: bytes) -> None:
        """Serve one LIN_REQ (loop thread): pin the client to the
        newest mutually-decodable version and reply with the chain."""
        # a malformed request raises: the loop closes this client,
        # peers keep running
        name, chosen, reply = answer_lineage_request(
            self.context.format_server, payload, "broadcast")
        if chosen is not None:
            client.negotiated[name] = chosen
        self.stats.count("lineage_negotiations")
        self.server.enqueue(client,
                            frame_bytes(FrameType.LIN_RSP, reply),
                            droppable=False)
        if chosen is not None:
            self._on_negotiated(client, name, chosen)

    def _on_negotiated(self, client: ClientHandle, name: str,
                       chosen: FormatID) -> None:
        """Hook: one client pinned itself to *chosen* for *name*.

        The sharded worker publisher overrides this to report the pin
        upstream, so the single marshaling process knows which older
        versions need a down-converted variant per fan-out."""
