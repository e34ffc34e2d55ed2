"""Sharded multi-process broadcast: past the single-event-loop ceiling.

:class:`~repro.transport.broadcast.BroadcastPublisher` marshals each
record once, but one ``selectors`` thread does every per-client queue
append and every ``sendmsg``, so aggregate throughput is capped at one
core by the GIL.  :class:`ShardedBroadcastServer` keeps the paper's
amortization story intact fleet-wide while breaking that ceiling:

* **one publisher process** owns the only
  :class:`~repro.pbio.context.IOContext` that ever encodes: each
  ``publish()`` encodes once, frames once, wraps the frame once in a
  ``BCAST`` control frame and writes those same bytes to every worker;
* **N worker processes** each run a full
  :class:`~repro.transport.eventloop.EventLoopServer` serving their
  shard of subscribers, with the backpressure policies unchanged;
* **one format authority** — the publisher's
  :class:`~repro.pbio.format_server.FormatServer`; workers hold
  read-through replicas fed by one routine, ``_replicate`` (a format
  travels with its lineage: the root as ``FMT_RSP``, one ``EVOLVE``
  per missing link), so FMT_REQ/LIN_REQ are answered on every shard.

Control messages are :mod:`repro.transport.messages` frames.  One that
already has a frame type keeps it (``HELLO`` when a worker serves,
``BYE`` to stop it, ``FMT_RSP`` / ``FMT_REQ`` to replicate a format,
``STATS_REQ`` / ``STATS_RSP``); the rest share one ``SHARD`` type and a
:class:`Shard` sub-kind byte, so subscribers see one more frame type,
not ten, and a shard refuses control from a subscriber in one test.

Threads: a worker is **one thread**.  Its control socket is its loop's
peer (:meth:`~repro.transport.eventloop.EventLoopServer.attach`), read
on the loop with ``recvmsg_into`` (the k-th CONN frame gets the k-th
``SCM_RIGHTS`` fd) and written through ``enqueue``; a ``block`` wait,
a barrier and a stop wait inside the loop, control socket unread, so
the publisher's ``sendall`` meets backpressure while every other
subscriber drains.  The publisher adds **one thread**: a selectors
loop that accepts each subscriber, hands its fd to the next live
worker round-robin, and reads every worker's reports.  Workers are
``multiprocessing`` *spawn* children holding no listening port and no
other shard's sockets (``FD_CLOEXEC``), and each exits at EOF on its
control socket, so none outlives its publisher.

Versions: a shard fans out as the single loop does.  The publisher
ships each message once, at the current version; a worker negotiates
LIN_REQ against its replicated lineage and, in the inherited
``_fan_out``, down-converts **once per pinned version per message** for
its own pinned subscribers, so a pin holds from the LIN_RSP on.  A
cutover replicates the grown lineage, then ``CUTOVER`` has each shard
re-announce it to its own clients.
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import os
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ProtocolError, TransportError, UnknownFormatError
from repro.obs.spans import observe_phase, sample_t0
from repro.pbio.context import IOContext
from repro.pbio.format import FormatID, IOFormat, deserialize_format
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import (
    BackpressurePolicy, BroadcastPublisher, BroadcastStats,
    PublishFront,
)
from repro.transport.eventloop import ClientHandle, Poller, set_cloexec
from repro.transport.messages import (
    MAX_FRAME, FrameReader, FrameType, count_malformed, frame_bytes,
)

_U32 = struct.Struct(">I")
_MAX_CTL_FRAME = MAX_FRAME + 4096    # one data frame + headroom


class Shard(enum.IntEnum):
    """Sub-kinds of a ``SHARD`` control frame (``u8 sub-kind | body``):
    the control messages no existing frame type carries."""

    # publisher -> worker
    BCAST = 1      # one whole DATA frame, at the current version
    EVOLVE = 2     # old fid | new metadata (the next lineage link)
    CUTOVER = 3    # name | new fid (re-announce to every shard client)
    BARRIER = 4    # seq (reply ACK once shard queues have drained)
    FMT_FAIL = 5   # fid (publisher cannot resolve a FMT_REQ either)
    CONN = 6       # addr text; the subscriber's fd rides as SCM_RIGHTS
    # worker -> publisher
    ACK = 7        # seq | ok (barrier complete)
    COUNT = 8      # clients (shard census update)


def _shard(kind: Shard, *parts: bytes) -> bytes:
    return frame_bytes(FrameType.SHARD, bytes((kind,)), *parts)


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"format name too long ({len(raw)} bytes)")
    return struct.pack(">H", len(raw)) + raw


def _unpack_name(payload, offset: int) -> tuple[str, int]:
    if offset + 2 > len(payload):
        raise ProtocolError("control frame truncated at name length")
    (n,) = struct.unpack_from(">H", payload, offset)
    offset += 2
    if offset + n > len(payload):
        raise ProtocolError("control frame truncated at name")
    return str(payload[offset:offset + n], "utf-8"), offset + n


def _take_fid(payload, offset: int) -> tuple[FormatID, int]:
    if offset + 8 > len(payload):
        raise ProtocolError("control frame truncated at format id")
    return FormatID.from_bytes(bytes(payload[offset:offset + 8])), \
        offset + 8


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

@dataclass
class WorkerConfig:
    """Everything a spawned shard worker needs (picklable)."""

    index: int
    policy: str
    max_queue_bytes: int
    block_timeout: float
    max_frame_len: int

    @property
    def label(self) -> str:
        return f"w{self.index}"


class _ShardWorkerPublisher(BroadcastPublisher):
    """One shard, the whole of a worker process, on one thread.

    A :class:`BroadcastPublisher` whose encode paths are never used:
    frames arrive pre-marshaled on the control socket (``upstream``,
    its loop's peer) and go to the inherited ``_fan_out`` as relayed
    wire bytes.  Fan-out, down-conversion for pinned subscribers,
    backpressure, pre-announcement, LIN_REQ negotiation and
    malformed-frame accounting are inherited, so a shard behaves as the
    single-process server does.  Everything runs on the loop thread: no
    locks.
    """

    def __init__(self, context: IOContext, ctl_sock: socket.socket, *,
                 label: str = "w0", **kwargs) -> None:
        super().__init__(context, **kwargs)
        self.label = label
        #: SCM_RIGHTS fds received, in order, not yet claimed by a CONN
        self._fds: deque[int] = deque()
        self.upstream = self.server.attach(
            ctl_sock, recv_into=self._recvmsg_into,
            max_frame_len=_MAX_CTL_FRAME)
        #: fids subscribers asked for that the replica cannot serve
        #: yet: fid -> client ids awaiting a FMT_RSP
        self._pending_fmt: dict[FormatID, list[int]] = {}

    def _recvmsg_into(self, buffer) -> int:
        got, ancdata, _flags, _addr = self.upstream.sock.recvmsg_into(
            [buffer], socket.CMSG_SPACE(64))  # room for 16 fds
        for level, kind, data in ancdata:
            if (level, kind) == (socket.SOL_SOCKET, socket.SCM_RIGHTS):
                for fd in memoryview(data)[:len(data) // 4 * 4].cast("i"):
                    os.set_inheritable(fd, False)
                    self._fds.append(fd)
        return got

    def resolve_pending(self, fid: FormatID, ok: bool) -> None:
        """The publisher sent *fid*'s metadata (or ``FMT_FAIL``): answer
        the subscribers whose FMT_REQ was parked on it."""
        waiting = self._pending_fmt.pop(fid, [])
        if not waiting:
            return
        by_id = {c.id: c for c in self.server.open_clients}
        for client_id in waiting:
            client = by_id.get(client_id)
            if client is None:
                continue
            if ok:
                self._announce_id(client, fid)
            else:
                self.server.enqueue(
                    client,
                    frame_bytes(FrameType.FMT_ERR,
                                f"no format registered under id "
                                f"{fid}".encode()),
                    droppable=False)

    # -- control frames from the publisher ----------------------------------

    def _control(self, ftype: FrameType, payload) -> None:
        if ftype == FrameType.SHARD:
            kind = payload[0]
            if kind == Shard.BCAST:
                frame = memoryview(payload)[1:]
                wire = frame[5:]  # past the length | type prefix
                self._fan_out(self._wire_format(wire), frame, wire)
            elif kind == Shard.CONN:
                if self._fds:
                    self.server.adopt(
                        socket.socket(fileno=self._fds.popleft()),
                        str(payload[1:], "utf-8", "replace"))
            elif kind == Shard.EVOLVE:
                replica = self.context.format_server
                self.resolve_pending(replica.register_evolution(
                    replica.lookup(_take_fid(payload, 1)[0]),
                    deserialize_format(bytes(payload[9:]))), ok=True)
            elif kind == Shard.CUTOVER:
                name, offset = _unpack_name(payload, 1)
                self.reannounce(name, _take_fid(payload, offset)[0])
            elif kind == Shard.BARRIER:
                ok = self.server.flush(self.block_timeout * 4 + 30.0)
                self._up(_shard(Shard.ACK, bytes(payload[1:5]),
                                b"\x01" if ok else b"\x00"))
            elif kind == Shard.FMT_FAIL:
                self.resolve_pending(_take_fid(payload, 1)[0], ok=False)
        elif ftype == FrameType.FMT_RSP:
            self.resolve_pending(self.context.format_server.import_bytes(
                bytes(payload[8:])), ok=True)
        elif ftype == FrameType.STATS_REQ:
            self._up(frame_bytes(FrameType.STATS_RSP, bytes(payload[:4]),
                                 self._stats_json()))
        elif ftype == FrameType.BYE:
            self.close()
        # anything else is ignored: forward-compatible control plane

    def _stats_json(self) -> bytes:
        from repro import obs
        from repro.pbio.encode import BULK_STATS
        return json.dumps({
            "worker": self.label,
            "threads": threading.active_count(),
            "metrics": obs.snapshot(),
            "publisher": self.stats_dict(),
            "server": self.server.totals(),
            "bulk": BULK_STATS.snapshot(),
            "codec": self.context.stats.as_dict(),
            "format_server": self.context.format_server.stats,
        }, sort_keys=True).encode("utf-8")

    # -- upstream reports ----------------------------------------------------

    def _up(self, frame: bytes) -> None:
        self.server.enqueue(self.upstream, frame, droppable=False)

    def _census(self) -> None:
        self._up(_shard(Shard.COUNT, _U32.pack(self.server.client_count)))

    # -- inherited hooks -----------------------------------------------------

    def on_registered(self, client: ClientHandle) -> None:
        # only now can a publish reach the client, so only now may
        # the parent's wait_for_subscribers count it
        self._census()

    def on_disconnect(self, client: ClientHandle, reason) -> None:
        if client is self.upstream:
            self.close()  # the publisher is gone: shut the shard down
            return
        self._census()

    def on_frame(self, client: ClientHandle, frame) -> None:
        if client is self.upstream:
            self._control(frame.type, frame.payload)
            return
        if frame.type == FrameType.SHARD:
            # control belongs to the publisher's socket alone
            count_malformed("shard", "unexpected_frame")
            raise ProtocolError("shard control frame from a subscriber")
        if frame.type == FrameType.FMT_REQ and len(frame.payload) == 8:
            fid = FormatID.from_bytes(frame.payload)
            try:
                self.context.format_server.lookup_bytes(fid)
            except Exception:
                # read-through miss: park the request, ask upstream
                waiters = self._pending_fmt.setdefault(fid, [])
                if not waiters:
                    self._up(frame_bytes(FrameType.FMT_REQ, fid.to_bytes()))
                waiters.append(client.id)
                return
        super().on_frame(client, frame)


def _worker_entry(ctl_sock: socket.socket,
                  config: WorkerConfig) -> None:
    """Spawned worker main: serve the shard on this, the process's
    only thread, until BYE or EOF on the control socket."""
    shard = _ShardWorkerPublisher(
        IOContext(format_server=FormatServer()), ctl_sock,
        label=config.label, listen=False, policy=config.policy,
        max_queue_bytes=config.max_queue_bytes,
        block_timeout=config.block_timeout,
        max_frame_len=config.max_frame_len)
    shard._up(shard._hello)  # serving
    shard.server.run()


# ---------------------------------------------------------------------------
# Publisher process
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """Publisher-side state for one shard worker."""

    def __init__(self, index: int, sock: socket.socket) -> None:
        self.index = index
        self.label = f"w{index}"
        #: the control socket's publisher end: blocking, written by
        #: any thread under ``send_lock``, read by the control loop
        self.sock = sock
        self.reader = FrameReader()
        self.send_lock = threading.Lock()
        self.process = None
        self.started = False
        self.alive = True
        self.clients = 0
        #: format ids whose metadata this worker already holds
        self.sent_formats: set[FormatID] = set()

    def send(self, frame: bytes, fd: int | None = None) -> None:
        """Write one whole frame; *fd* rides on its first byte as
        ``SCM_RIGHTS``.  Frames never interleave, so the k-th CONN
        frame the worker parses is the one the k-th fd came with."""
        with self.send_lock:
            if fd is not None:
                sent = socket.send_fds(self.sock, [frame], [fd])
                frame = memoryview(frame)[sent:]
            self.sock.sendall(frame)


class ShardedBroadcastServer(PublishFront):
    """A control loop plus N event-loop worker processes, marshal-once.

    The publisher-facing API is
    :class:`~repro.transport.broadcast.BroadcastPublisher`'s:
    ``publish`` / ``publish_encoded`` (the shared
    :class:`~repro.transport.broadcast.PublishFront`, reaching live
    shards instead of subscribers), ``cutover`` / ``flush`` /
    ``wait_for_subscribers`` / ``close``, plus process-topology extras
    (``worker_stats``, ``metrics_snapshot``).
    """

    def __init__(self, context: IOContext, *,
                 workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: BackpressurePolicy | str =
                 BackpressurePolicy.BLOCK,
                 max_queue_bytes: int = 4 * 1024 * 1024,
                 block_timeout: float = 5.0,
                 max_frame_len: int = MAX_FRAME,
                 start_timeout: float = 60.0) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.context = context
        self.policy = BackpressurePolicy.coerce(policy)
        self.stats = BroadcastStats()
        self.worker_count = workers
        self.host = host
        self.port = port
        self._config = dict(policy=self.policy.value,
                            max_queue_bytes=max_queue_bytes,
                            block_timeout=block_timeout,
                            max_frame_len=max_frame_len)
        self.block_timeout = block_timeout
        self._start_timeout = start_timeout
        self._workers: list[_WorkerHandle] = []
        self._listener: socket.socket | None = None
        self._poller: Poller | None = None
        self._thread: threading.Thread | None = None
        self._accept_index = 0
        self._lock = threading.Lock()
        self._census = threading.Condition(self._lock)
        self._seq = 0
        #: seq -> replies gathered so far for that round trip
        self._acks: dict[int, list] = {}
        self._started = False
        self._closed = False
        self.worker_failures = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardedBroadcastServer":
        if self._started:
            return self
        self._started = True
        self._bind()
        self._poller = Poller()
        multiprocessing.allow_connection_pickling()
        ctx = multiprocessing.get_context("spawn")
        for index in range(self.worker_count):
            parent_sock, child_sock = socket.socketpair()
            set_cloexec(parent_sock)
            handle = _WorkerHandle(index, parent_sock)
            handle.process = ctx.Process(
                target=_worker_entry,
                args=(child_sock, WorkerConfig(index=index, **self._config)),
                name=f"repro-shard-{index}", daemon=True)
            handle.process.start()
            child_sock.close()
            self._poller.register(parent_sock, selectors.EVENT_READ, handle)
            self._workers.append(handle)
        # each worker says HELLO once it serves; read the greetings on
        # this thread, before the control loop's exists
        deadline = time.monotonic() + self._start_timeout
        while any(h.alive and not h.started for h in self._workers) \
                and time.monotonic() < deadline:
            self._turn(deadline - time.monotonic())
        for handle in self._workers:
            if not handle.started:
                self.close(timeout=5.0)
                why = "exited before it started" if not handle.alive \
                    else f"did not start within {self._start_timeout}s"
                raise TransportError(f"shard worker {handle.index} {why}")
        # seed every shard with what the FormatServer already holds,
        # so a subscriber's first FMT_REQ or LIN_REQ is answerable
        # there before anything was ever published
        for handle in self._workers:
            try:
                for fid in self.context.format_server.known_ids():
                    self._replicate(handle, fid)
            except OSError:
                self._mark_dead(handle)
        self._poller.register(self._listener, selectors.EVENT_READ, None)
        self._thread = threading.Thread(
            target=self._serve, name="shard-control", daemon=True)
        self._thread.start()
        return self

    def _bind(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(1024)
        listener.setblocking(False)
        set_cloexec(listener)
        self.host, self.port = listener.getsockname()
        self._listener = listener

    def close(self, timeout: float = 15.0) -> None:
        """Stop accepting, drain every shard, reap every worker."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        if self._thread is not None:
            self._poller.wake()
            self._thread.join(max(0.0, deadline - time.monotonic()))
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        bye = frame_bytes(FrameType.BYE, b"")
        for handle in self._workers:
            if handle.alive:
                try:
                    handle.send(bye)
                except OSError:
                    pass
        for handle in self._workers:
            process = handle.process
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)
            handle.alive = False
            handle.sock.close()
        if self._poller is not None:
            self._poller.close()

    def __enter__(self) -> "ShardedBroadcastServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the control loop (one thread) --------------------------------------

    def _serve(self) -> None:
        while not self._closed:
            self._turn(1.0)

    def _turn(self, timeout: float | None) -> None:
        for key, _events in self._poller.poll(timeout):
            if key.data is None:
                self._accept()
            else:
                self._read(key.data)

    def _accept(self) -> None:
        """Hand every pending subscriber to the next live worker."""
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # none left (or the listener closed)
            set_cloexec(sock)
            handle = self._next_worker()
            try:
                if handle is not None:
                    handle.send(_shard(Shard.CONN,
                                       f"{addr[0]}:{addr[1]}".encode()),
                                sock.fileno())
            except OSError:
                self._mark_dead(handle)
            finally:
                sock.close()  # the worker holds its own duplicate

    def _next_worker(self) -> _WorkerHandle | None:
        """Round-robin over live workers."""
        for _ in range(len(self._workers)):
            handle = self._workers[
                self._accept_index % len(self._workers)]
            self._accept_index += 1
            if handle.alive:
                return handle
        return None

    def _read(self, handle: _WorkerHandle) -> None:
        """One read of a worker's reports, then every whole frame in
        hand; EOF or a malformed frame ends the worker."""
        reader = handle.reader
        try:
            if reader.fill(handle.sock.recv_into):
                while (frame := reader.frame(_MAX_CTL_FRAME)) is not None:
                    self._on_report(handle, frame.type, frame.payload)
                return
        except (ProtocolError, OSError):
            pass
        self._poller.unregister(handle.sock)
        self._mark_dead(handle)

    def _on_report(self, handle: _WorkerHandle, ftype: FrameType,
                   payload: bytes) -> None:
        if ftype == FrameType.SHARD:
            kind = payload[0]
            if kind == Shard.COUNT:
                with self._census:
                    (handle.clients,) = _U32.unpack_from(payload, 1)
                    self._census.notify_all()
            elif kind == Shard.ACK:
                self._reply(handle, payload[1:])
        elif ftype == FrameType.STATS_RSP:
            self._reply(handle, payload)
        elif ftype == FrameType.FMT_REQ:
            self._serve_fmt_miss(handle, _take_fid(payload, 0)[0])
        elif ftype == FrameType.HELLO:
            handle.started = True

    def _reply(self, handle: _WorkerHandle, body: bytes) -> None:
        (seq,) = _U32.unpack_from(body)
        with self._census:
            if seq in self._acks:
                self._acks[seq].append((handle, body[4:]))
                self._census.notify_all()

    def _serve_fmt_miss(self, handle: _WorkerHandle,
                        fid: FormatID) -> None:
        try:
            try:
                self._replicate(handle, fid)
            except UnknownFormatError:
                handle.send(_shard(Shard.FMT_FAIL, fid.to_bytes()))
        except OSError:
            self._mark_dead(handle)

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        with self._census:
            was_alive = handle.alive
            handle.alive = False
            handle.clients = 0
            self._census.notify_all()
        if was_alive and not self._closed:
            self.worker_failures += 1

    # -- format replication --------------------------------------------------

    def _replicate(self, handle: _WorkerHandle, fid: FormatID) -> None:
        """Make *fid* known to one worker, with its lineage: the chain's
        root as FMT_RSP, then one EVOLVE per link the worker lacks,
        oldest first, up to *fid*.  Idempotent (keyed by
        ``handle.sent_formats``), and both messages are idempotent on
        the replica too, so racing callers at worst repeat a link.
        Raises OSError when the worker's socket is gone and
        :class:`~repro.errors.UnknownFormatError` when the publisher
        does not hold *fid* either."""
        if fid in handle.sent_formats:
            return
        server = self.context.format_server
        name = server.lookup(fid).name
        chain = server.lineage(name)
        chain = chain[:chain.index(fid) + 1] if fid in chain else (fid,)
        for index, link in enumerate(chain):
            if link in handle.sent_formats:
                continue
            metadata = server.lookup_bytes(link)
            handle.send(
                frame_bytes(FrameType.FMT_RSP, link.to_bytes(), metadata)
                if index == 0 else
                _shard(Shard.EVOLVE, chain[index - 1].to_bytes(), metadata))
            handle.sent_formats.add(link)

    def _live(self) -> list[_WorkerHandle]:
        return [h for h in self._workers if h.alive]

    # -- publishing ----------------------------------------------------------

    def reannounce(self, name: str, new_fid: FormatID) -> int:
        """This topology's step of the shared
        :meth:`~repro.transport.broadcast.PublishFront.cutover`:
        replicate *name*'s grown lineage to every live shard, then have
        each shard re-announce (FMT_RSP + LIN_RSP ahead of any
        new-version data on each client's FIFO queue — the same
        ordering guarantee as the single-process cutover, applied per
        shard).  Returns the shards reached."""
        message = _shard(Shard.CUTOVER, _pack_name(name), new_fid.to_bytes())
        reached = 0
        for handle in self._live():
            try:
                self._replicate(handle, new_fid)
                handle.send(message)
                reached += 1
            except OSError:
                self._mark_dead(handle)
        return reached

    def _fan_out(self, fmt: IOFormat, data: bytes, source) -> int:
        """Hand the DATA frame to every live shard (replicating the
        format first where a shard lacks it), one ``BCAST`` built once;
        each shard down-converts for its own pinned subscribers.
        Returns the shards reached."""
        t0 = sample_t0()
        fid = fmt.format_id
        bcast = _shard(Shard.BCAST, data)
        reached = 0
        for handle in self._live():
            try:
                self._replicate(handle, fid)
                handle.send(bcast)
                reached += 1
            except OSError:
                self._mark_dead(handle)
        if t0:
            observe_phase("transport", t0)
        row = self.stats.row()
        row["messages_broadcast"] += 1
        row["bytes_encoded"] += len(data) - 5
        row["frames_enqueued"] += reached
        row["bytes_queued"] += reached * len(data)
        self.stats.mark("subscriber_high_water", self.subscriber_count)
        return reached

    # -- synchronization -----------------------------------------------------

    def _round_trip(self, ftype: FrameType, head: bytes,
                    timeout: float | None) -> list:
        """Send *ftype* (*head* + seq) to every live worker, and gather
        the replies (seq-stripped) the control loop routes back from
        those still alive."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            replies = self._acks[seq] = []
        targets = self._live()
        request = frame_bytes(ftype, head, _U32.pack(seq))
        for handle in targets:
            try:
                handle.send(request)
            except OSError:
                self._mark_dead(handle)
        with self._census:
            self._census.wait_for(
                lambda: len(replies) >= sum(h.alive for h in targets),
                timeout)
            del self._acks[seq]
        return replies

    def flush(self, timeout: float | None = 60.0) -> bool:
        """Block until every shard's client queues have drained."""
        replies = self._round_trip(
            FrameType.SHARD, bytes((Shard.BARRIER,)), timeout)
        live = len(self._live())
        return len(replies) >= live and \
            all(payload[:1] == b"\x01" for _h, payload in replies)

    def worker_stats(self, timeout: float | None = 30.0) \
            -> dict[str, dict]:
        """Per-shard telemetry: obs snapshot, publisher counters,
        event-loop totals, codec/bulk counters, replica stats, and the
        worker's Python thread count."""
        replies = self._round_trip(FrameType.STATS_REQ, b"", timeout)
        out = {}
        for handle, payload in replies:
            try:
                out[handle.label] = json.loads(payload)
            except ValueError:
                out[handle.label] = {"error": "unparseable stats"}
        return out

    def metrics_snapshot(self, timeout: float | None = 30.0) -> dict:
        """One combined registry snapshot: every worker's series
        labeled ``worker="wN"`` plus this process's own labeled
        ``worker="publisher"`` — the scrape body for a fleet-wide
        ``/metrics``."""
        from repro import obs
        from repro.obs.merge import merge_snapshots
        snaps = {"publisher": obs.snapshot()}
        for label, stats in self.worker_stats(timeout).items():
            metrics = stats.get("metrics")
            if isinstance(metrics, dict):
                snaps[label] = metrics
        return merge_snapshots(snaps)

    def wait_for_subscribers(self, count: int,
                             timeout: float | None = None) -> bool:
        with self._census:
            return self._census.wait_for(
                lambda: sum(h.clients for h in self._workers) >= count,
                timeout)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return sum(h.clients for h in self._workers)

    def stats_dict(self) -> dict:
        out = self.stats.as_dict()
        out["subscribers"] = self.subscriber_count
        out["workers"] = len(self._workers)
        out["workers_alive"] = len(self._live())
        out["worker_failures"] = self.worker_failures
        return out
