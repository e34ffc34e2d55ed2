"""Sharded multi-process broadcast: past the single-event-loop ceiling.

:class:`~repro.transport.broadcast.BroadcastPublisher` marshals each
record once, but one ``selectors`` thread does every per-client queue
append and every ``sendmsg`` — encode-once fan-out is flat *per
client*, yet aggregate throughput is capped at one core by the GIL.
:class:`ShardedBroadcastServer` keeps the paper's amortization story
intact fleet-wide while breaking that ceiling:

* **one publisher process** owns the only
  :class:`~repro.pbio.context.IOContext` that ever encodes — each
  ``publish()`` runs ``encode_wire_parts`` exactly once (zero-copy
  spill segments included) and hands the *same* frame bytes to every
  worker over a length-prefixed control socket;
* **N worker processes** each run a full
  :class:`~repro.transport.eventloop.EventLoopServer` serving their
  shard of subscribers, with the per-shard backpressure policies
  (``block`` / ``drop-oldest`` / ``disconnect-slow``) unchanged;
* **one shared format authority** — the publisher's
  :class:`~repro.pbio.format_server.FormatServer` is the source of
  truth; workers hold read-through replicas fed over the same control
  sockets (``REG``/``EVOLVE`` push on first publish, ``FMT_MISS``
  pull on a subscriber's cold FMT_REQ), so FMT_REQ/LIN_REQ are
  answered from every shard without a second registration step.

One acceptor thread in the publisher accepts every subscriber and
round-robins its connected fd to the next live worker over
``SCM_RIGHTS`` (anywhere ``AF_UNIX`` ancillary data works), so the
split is exact.  Workers accept nothing themselves and hold no
listening port.  They are ``multiprocessing`` *spawn* children — no
forked locks, no inherited shard sockets (every event-loop fd is
``FD_CLOEXEC``, see :func:`repro.transport.eventloop.set_cloexec`) —
and each exits at EOF on its control socket, so a worker never
outlives its publisher.

Version evolution rides along: workers negotiate LIN_REQ locally
against the replicated lineage and report pins upstream; the publisher
then down-converts **once per pinned version per message** (never per
subscriber) and ships the variant frames tagged with their version, so
a mixed-version fleet still costs one encode per version fleet-wide.
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass

from repro.errors import ProtocolError, TransportError
from repro.obs.spans import observe_phase, sample_t0
from repro.pbio.context import IOContext
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import (
    BackpressurePolicy, BroadcastPublisher, BroadcastStats,
    PublishFront,
)
from repro.transport.eventloop import ClientHandle, set_cloexec
from repro.transport.messages import (
    MAX_FRAME, FrameReader, FrameType, frame_bytes,
)

_U32 = struct.Struct(">I")
_MAX_CTL_FRAME = MAX_FRAME + 4096    # one data frame + headroom


class Ctl(enum.IntEnum):
    """Control-plane message kinds on the publisher<->worker socket."""

    # publisher -> worker
    REG = 1        # fid | name | canonical metadata (replicate format)
    EVOLVE = 2     # name | old fid | new fid | new metadata (lineage)
    BCAST = 3      # primary | fid | name | one whole wire frame
    CUTOVER = 4    # name | new fid (re-announce to every shard client)
    BARRIER = 5    # seq (reply ACK once shard queues have drained)
    STATS_REQ = 6  # seq (reply STATS_RSP with a JSON snapshot)
    FMT_FAIL = 7   # fid (publisher cannot resolve a FMT_MISS either)
    CONN = 8       # fd-passing: addr text; the fd rides as SCM_RIGHTS
    STOP = 9       # shut the shard down (BYE + graceful close)
    # worker -> publisher
    STARTED = 20   # shard is serving
    ACK = 21       # seq | ok (barrier complete)
    STATS_RSP = 22  # seq | JSON snapshot
    COUNT = 23     # clients | accepted | closed (shard census update)
    PIN = 24       # name | fid (a subscriber negotiated this version)
    UNPIN = 25     # name | fid (that subscriber went away)
    FMT_MISS = 26  # fid (subscriber FMT_REQ the replica cannot serve)
    STOPPED = 27   # shard shut down cleanly


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"format name too long ({len(raw)} bytes)")
    return struct.pack(">H", len(raw)) + raw


def _unpack_name(payload: bytes, offset: int) -> tuple[str, int]:
    if offset + 2 > len(payload):
        raise ProtocolError("control frame truncated at name length")
    (n,) = struct.unpack_from(">H", payload, offset)
    offset += 2
    if offset + n > len(payload):
        raise ProtocolError("control frame truncated at name")
    return payload[offset:offset + n].decode("utf-8"), offset + n


def _take_fid(payload: bytes, offset: int) -> tuple[FormatID, int]:
    if offset + 8 > len(payload):
        raise ProtocolError("control frame truncated at format id")
    return FormatID.from_bytes(payload[offset:offset + 8]), offset + 8


class ControlSocket:
    """Length-prefixed control messages over one stream socket, read
    through a :class:`~repro.transport.messages.FrameReader`; a kind
    is any type byte, and a worker ignores kinds it does not know.

    Sends are serialized under a lock so the publisher thread, the
    acceptor thread and FMT_MISS replies never interleave partial
    writes.  ``send_fd`` attaches an ``SCM_RIGHTS`` fd to its frame's
    first byte; because all sends are ordered, the k-th CONN frame a
    worker parses corresponds to the k-th fd it received — the reader
    therefore *always* reads with ``recvmsg_into`` and room for
    ancillary data, so no fd is ever truncated away.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._reader = FrameReader()
        self._fds: list[int] = []

    def send(self, kind: int, payload: bytes = b"") -> None:
        frame = frame_bytes(kind, payload)
        with self._send_lock:
            self.sock.sendall(frame)

    def send_fd(self, kind: int, payload: bytes, fd: int) -> None:
        frame = frame_bytes(kind, payload)
        with self._send_lock:
            # the fd attaches to the frame's leading bytes; sendall
            # the remainder under the same lock so frames stay whole
            sent = socket.send_fds(self.sock, [frame], [fd])
            if sent < len(frame):
                self.sock.sendall(frame[sent:])

    def recv(self, timeout: float | None = None) \
            -> tuple[int, bytes, int | None] | None:
        """One ``(kind, payload, fd or None)``; None at EOF."""
        self.sock.settimeout(timeout)
        while True:
            got = self._reader.pop(_MAX_CTL_FRAME)
            if got is not None:
                kind, payload = got
                fd = self._fds.pop(0) if kind == Ctl.CONN and \
                    self._fds else None
                return kind, bytes(payload), fd
            try:
                if not self._reader.fill(self._recvmsg_into):
                    return None
            except (TimeoutError, socket.timeout):
                raise
            except OSError:
                return None

    def _recvmsg_into(self, buffer) -> int:
        got, ancdata, _flags, _addr = self.sock.recvmsg_into(
            [buffer], socket.CMSG_SPACE(64))  # room for 16 fds
        for level, kind, data in ancdata:
            if (level, kind) == (socket.SOL_SOCKET, socket.SCM_RIGHTS):
                for fd in memoryview(data)[:len(data) // 4 * 4].cast("i"):
                    os.set_inheritable(fd, False)
                    self._fds.append(fd)
        return got

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        for fd in self._fds:
            try:
                os.close(fd)
            except OSError:
                pass
        self._fds.clear()


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
    """The per-shard fan-out engine inside a worker process.

    A :class:`BroadcastPublisher` whose encode paths are never used:
    frames arrive pre-marshaled from the publisher process and are
    delivered through :meth:`broadcast_frame`.  Everything else —
    bounded-queue backpressure, FMT_RSP pre-announcement, LIN_REQ
    negotiation, malformed-frame accounting — is inherited unchanged,
    so per-shard semantics match the single-process server exactly.
    """

    def __init__(self, context: IOContext, upstream: ControlSocket,
                 **kwargs) -> None:
        super().__init__(context, **kwargs)
        self._upstream = upstream
        #: fids subscribers asked for that the replica cannot serve
        #: yet: fid -> client ids awaiting a FMT_RSP
        self._pending_fmt: dict[FormatID, list[int]] = {}
        self._pending_lock = threading.Lock()

    # -- shard data plane (control thread) ----------------------------------

    def broadcast_frame(self, name: str, fid: FormatID, frame: bytes,
                        primary: bool) -> int:
        """Queue one pre-encoded wire frame to every shard subscriber
        on the matching version; returns subscribers reached."""
        t0 = sample_t0()
        clients = self.server.open_clients
        key = fid.value
        reached = waiting = 0
        for client in clients:
            target = client.negotiated.get(name)
            if not (target is None and primary or target == fid):
                continue
            if key not in client.announced:
                self._announce_id(client, fid)
            if self._offer(client, frame):
                reached += 1
                waiting = max(waiting, client.queued_bytes)
        if t0:
            observe_phase("transport", t0)
        row = self.stats.row()
        row["messages_broadcast"] += 1
        row["frames_enqueued"] += reached
        row["bytes_queued"] += reached * len(frame)
        self.stats.mark("queue_high_water", waiting)
        self.stats.mark("subscriber_high_water", len(clients))
        return reached

    def resolve_pending(self, fid: FormatID, ok: bool) -> None:
        """A REG (or FMT_FAIL) for *fid* arrived from the publisher:
        answer the subscribers whose FMT_REQ was parked on it."""
        with self._pending_lock:
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

    # -- upstream reports ----------------------------------------------------

    def _send_up(self, kind: int, payload: bytes = b"") -> None:
        try:
            self._upstream.send(kind, payload)
        except OSError:
            pass  # publisher is gone; the control loop will exit

    def _census(self) -> None:
        server = self.server
        accepted, closed = server.clients_accepted, server.clients_closed
        self._send_up(Ctl.COUNT, struct.pack(
            ">III", accepted - closed, accepted, closed))

    # -- inherited hooks -----------------------------------------------------

    def on_registered(self, client: ClientHandle) -> None:
        # only now can a publish reach the client, so only now may
        # the parent's wait_for_subscribers count it
        self._census()

    def on_disconnect(self, client: ClientHandle,
                      reason) -> None:
        for name, fid in list(client.negotiated.items()):
            self._send_up(Ctl.UNPIN, _pack_name(name) + fid.to_bytes())
        self._census()

    def _on_negotiated(self, client: ClientHandle, name: str,
                       chosen: FormatID) -> None:
        self._send_up(Ctl.PIN, _pack_name(name) + chosen.to_bytes())

    def on_frame(self, client: ClientHandle, frame) -> None:
        if frame.type == FrameType.FMT_REQ and len(frame.payload) == 8:
            fid = FormatID.from_bytes(frame.payload)
            try:
                self.context.format_server.lookup_bytes(fid)
            except Exception:
                # read-through miss: park the request, ask upstream
                with self._pending_lock:
                    waiters = self._pending_fmt.setdefault(fid, [])
                    first = not waiters
                    waiters.append(client.id)
                if first:
                    self._send_up(Ctl.FMT_MISS, fid.to_bytes())
                return
        super().on_frame(client, frame)


class _WorkerRuntime:
    """Control loop of one shard worker process."""

    def __init__(self, ctl: ControlSocket,
                 config: WorkerConfig) -> None:
        self.ctl = ctl
        self.config = config
        self.replica = FormatServer()
        self.context = IOContext(format_server=self.replica)
        # accept-less: subscribers arrive as CONN fds from the acceptor
        self.publisher = _ShardWorkerPublisher(
            self.context, ctl, listen=False, policy=config.policy,
            max_queue_bytes=config.max_queue_bytes,
            block_timeout=config.block_timeout,
            max_frame_len=config.max_frame_len)

    def run(self) -> None:
        self.publisher.start()
        self.ctl.send(Ctl.STARTED)
        try:
            while True:
                msg = self.ctl.recv(None)
                if msg is None:
                    break  # publisher died: shut the shard down
                kind, payload, fd = msg
                if kind == Ctl.STOP:
                    self._shutdown()
                    self.ctl.send(Ctl.STOPPED)
                    break
                self._dispatch(kind, payload, fd)
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        if not self.publisher._closed:
            self.publisher.close(timeout=5.0)

    def _dispatch(self, kind: int, payload: bytes,
                  fd: int | None) -> None:
        if kind == Ctl.BCAST:
            fid, offset = _take_fid(payload, 1)
            name, offset = _unpack_name(payload, offset)
            self.publisher.broadcast_frame(
                name, fid, payload[offset:], primary=bool(payload[0]))
        elif kind == Ctl.REG:
            fid, offset = _take_fid(payload, 0)
            _name, offset = _unpack_name(payload, offset)
            self.replica.import_bytes(payload[offset:])
            self.publisher.resolve_pending(fid, ok=True)
        elif kind == Ctl.EVOLVE:
            _name, offset = _unpack_name(payload, 0)
            old_fid, offset = _take_fid(payload, offset)
            new_fid, offset = _take_fid(payload, offset)
            old = self.replica.lookup(old_fid)
            from repro.pbio.format import deserialize_format
            new = deserialize_format(payload[offset:])
            self.replica.register_evolution(old, new)
            self.publisher.resolve_pending(new_fid, ok=True)
        elif kind == Ctl.CUTOVER:
            name, offset = _unpack_name(payload, 0)
            new_fid, _ = _take_fid(payload, offset)
            self.publisher.reannounce(name, new_fid)
        elif kind == Ctl.BARRIER:
            (seq,) = _U32.unpack_from(payload)
            ok = self.publisher.server.flush(
                timeout=self.config.block_timeout * 4 + 30.0)
            self.ctl.send(Ctl.ACK,
                          _U32.pack(seq) + bytes((1 if ok else 0,)))
        elif kind == Ctl.STATS_REQ:
            (seq,) = _U32.unpack_from(payload)
            self.ctl.send(Ctl.STATS_RSP,
                          _U32.pack(seq) + self._stats_json())
        elif kind == Ctl.FMT_FAIL:
            fid, _ = _take_fid(payload, 0)
            self.publisher.resolve_pending(fid, ok=False)
        elif kind == Ctl.CONN:
            if fd is not None:
                sock = socket.socket(fileno=fd)
                addr = payload.decode("utf-8", errors="replace")
                self.publisher.server.adopt(sock, addr)
        # unknown kinds are ignored: forward-compatible control plane

    def _stats_json(self) -> bytes:
        from repro import obs
        from repro.pbio.encode import BULK_STATS
        return json.dumps({
            "worker": self.config.label,
            "metrics": obs.snapshot(),
            "publisher": self.publisher.stats_dict(),
            "server": self.publisher.server.totals(),
            "bulk": BULK_STATS.snapshot(),
            "codec": self.context.stats.as_dict(),
            "format_server": self.replica.stats,
        }, sort_keys=True).encode("utf-8")


def _worker_entry(ctl_sock: socket.socket,
                  config: WorkerConfig) -> None:
    """Spawned worker main: build the shard, serve until STOP/EOF."""
    ctl = ControlSocket(ctl_sock)
    try:
        runtime = _WorkerRuntime(ctl, config)
    except Exception as exc:  # tell the publisher why
        try:
            ctl.send(Ctl.STOPPED, repr(exc).encode())
        except OSError:
            pass
        raise
    runtime.run()


# ---------------------------------------------------------------------------
# Publisher process
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """Publisher-side state for one shard worker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.label = f"w{index}"
        self.process = None
        self.ctl: ControlSocket | None = None
        self.reader: threading.Thread | None = None
        self.started = threading.Event()
        self.stopped = threading.Event()
        self.alive = False
        self.clients = 0
        self.accepted = 0
        self.closed = 0
        #: format ids whose metadata this worker already holds
        self.sent_formats: set[FormatID] = set()
        self.start_error: str | None = None


class ShardedBroadcastServer(PublishFront):
    """An acceptor plus N event-loop worker processes, marshal-once.

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
        self._acceptor: threading.Thread | None = None
        self._accept_index = 0
        self._lock = threading.Lock()
        self._census = threading.Condition(self._lock)
        self._seq = 0
        self._acks: dict[int, tuple[threading.Event, list]] = {}
        #: name -> {fid: pin count} reported by workers (older
        #: versions some subscriber negotiated down to)
        self._pins: dict[str, dict[FormatID, int]] = {}
        self._version_formats: dict[FormatID, IOFormat] = {}
        self._started = False
        self._closed = False
        self.worker_failures = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardedBroadcastServer":
        if self._started:
            return self
        self._started = True
        self._bind()
        multiprocessing.allow_connection_pickling()
        ctx = multiprocessing.get_context("spawn")
        deadline = time.monotonic() + self._start_timeout
        for index in range(self.worker_count):
            handle = _WorkerHandle(index)
            parent_sock, child_sock = socket.socketpair()
            set_cloexec(parent_sock)
            handle.ctl = ControlSocket(parent_sock)
            config = WorkerConfig(index=index, **self._config)
            handle.process = ctx.Process(
                target=_worker_entry, args=(child_sock, config),
                name=f"repro-shard-{index}", daemon=True)
            handle.process.start()
            child_sock.close()
            handle.alive = True
            handle.reader = threading.Thread(
                target=self._reader, args=(handle,),
                name=f"shard-ctl-{index}", daemon=True)
            handle.reader.start()
            self._workers.append(handle)
        for handle in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            if not handle.started.wait(remaining):
                self.close(timeout=5.0)
                raise TransportError(
                    f"shard worker {handle.index} did not start "
                    f"within {self._start_timeout}s")
            if handle.start_error is not None:
                self.close(timeout=5.0)
                raise TransportError(
                    f"shard worker {handle.index} failed to start: "
                    f"{handle.start_error}")
        for handle in self._workers:
            self._seed_worker(handle)
        self._acceptor = threading.Thread(
            target=self._pass_connections, name="shard-acceptor",
            daemon=True)
        self._acceptor.start()
        return self

    def _bind(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(1024)
        set_cloexec(listener)
        self.host, self.port = listener.getsockname()
        self._listener = listener

    def close(self, timeout: float = 15.0) -> None:
        """Stop accepting, drain every shard, reap every worker."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        if self._listener is not None:
            # a plain close() does not wake a thread blocked in
            # accept(); shutdown() does, and the loop's poll timeout
            # covers platforms where even that is a no-op
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._acceptor is not None:
            self._acceptor.join(max(0.0, deadline - time.monotonic()))
            self._acceptor = None
        for handle in self._workers:
            if handle.alive and handle.ctl is not None:
                try:
                    handle.ctl.send(Ctl.STOP)
                except OSError:
                    pass
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)
            handle.alive = False
            if handle.ctl is not None:
                handle.ctl.close()
        for handle in self._workers:
            if handle.reader is not None:
                handle.reader.join(1.0)

    def __enter__(self) -> "ShardedBroadcastServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- acceptor -----------------------------------------------------------

    def _pass_connections(self) -> None:
        listener = self._listener
        listener.settimeout(1.0)
        while not self._closed:
            try:
                sock, addr = listener.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return  # listener closed: shutting down
            sock.setblocking(True)
            set_cloexec(sock)
            handle = self._next_worker()
            if handle is None:
                sock.close()
                continue
            try:
                handle.ctl.send_fd(
                    Ctl.CONN, f"{addr[0]}:{addr[1]}".encode(),
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

    # -- control-plane reader (one thread per worker) -----------------------

    def _reader(self, handle: _WorkerHandle) -> None:
        ctl = handle.ctl
        while True:
            try:
                msg = ctl.recv(None)
            except (ProtocolError, OSError):
                msg = None
            if msg is None:
                self._mark_dead(handle)
                return
            kind, payload, _fd = msg
            if kind == Ctl.STARTED:
                handle.started.set()
            elif kind == Ctl.STOPPED:
                if payload:
                    handle.start_error = payload.decode(
                        "utf-8", errors="replace")
                    handle.started.set()
                handle.stopped.set()
                self._mark_dead(handle, expected=True)
                return
            elif kind == Ctl.COUNT:
                clients, accepted, closed = struct.unpack_from(
                    ">III", payload)
                with self._census:
                    handle.clients = clients
                    handle.accepted = accepted
                    handle.closed = closed
                    self._census.notify_all()
            elif kind in (Ctl.ACK, Ctl.STATS_RSP):
                (seq,) = _U32.unpack_from(payload)
                with self._lock:
                    entry = self._acks.get(seq)
                if entry is not None:
                    event, sink = entry
                    sink.append((handle, payload[4:]))
                    event.set()
            elif kind == Ctl.PIN:
                name, offset = _unpack_name(payload, 0)
                fid, _ = _take_fid(payload, offset)
                with self._census:
                    pins = self._pins.setdefault(name, {})
                    pins[fid] = pins.get(fid, 0) + 1
                    self._census.notify_all()
            elif kind == Ctl.UNPIN:
                name, offset = _unpack_name(payload, 0)
                fid, _ = _take_fid(payload, offset)
                with self._lock:
                    pins = self._pins.get(name)
                    if pins and fid in pins:
                        pins[fid] -= 1
                        if pins[fid] <= 0:
                            del pins[fid]
            elif kind == Ctl.FMT_MISS:
                fid, _ = _take_fid(payload, 0)
                self._serve_fmt_miss(handle, fid)

    def _serve_fmt_miss(self, handle: _WorkerHandle,
                        fid: FormatID) -> None:
        try:
            metadata = self.context.format_server.lookup_bytes(fid)
            name = self.context.format_server.lookup(fid).name
        except Exception:
            try:
                handle.ctl.send(Ctl.FMT_FAIL, fid.to_bytes())
            except OSError:
                self._mark_dead(handle)
            return
        self._send_reg(handle, fid, name, metadata)

    def _mark_dead(self, handle: _WorkerHandle,
                   expected: bool = False) -> None:
        with self._census:
            was_alive = handle.alive
            handle.alive = False
            handle.clients = 0
            self._census.notify_all()
        if was_alive and not expected and not self._closed:
            self.worker_failures += 1

    # -- format replication --------------------------------------------------

    def _send_reg(self, handle: _WorkerHandle, fid: FormatID,
                  name: str, metadata: bytes) -> None:
        if fid in handle.sent_formats:
            return
        try:
            handle.ctl.send(Ctl.REG, fid.to_bytes() + _pack_name(name)
                            + metadata)
            handle.sent_formats.add(fid)
        except OSError:
            self._mark_dead(handle)

    def _seed_worker(self, handle: _WorkerHandle) -> None:
        """Replicate every format and lineage the publisher's
        FormatServer already holds, so a subscriber's first FMT_REQ or
        LIN_REQ is answerable from the shard before anything was ever
        published.  Chains replay oldest-first as REG(root) + one
        EVOLVE per link — the same wire the live :meth:`cutover` path
        uses, so replicas cannot diverge from late upgrades."""
        server = self.context.format_server
        seeded_names: set[str] = set()
        for fid in server.known_ids():
            name = server.lookup(fid).name
            if name in seeded_names:
                continue
            seeded_names.add(name)
            chain = server.lineage(name)
            if not chain:
                continue
            self._send_reg(handle, chain[0], name,
                           server.lookup_bytes(chain[0]))
            for old_fid, new_fid in zip(chain, chain[1:]):
                if new_fid in handle.sent_formats:
                    continue
                try:
                    handle.ctl.send(
                        Ctl.EVOLVE,
                        _pack_name(name) + old_fid.to_bytes()
                        + new_fid.to_bytes()
                        + server.lookup_bytes(new_fid))
                    handle.sent_formats.add(new_fid)
                except OSError:
                    self._mark_dead(handle)
                    return
        for fid in server.known_ids():
            if fid not in handle.sent_formats:
                self._send_reg(handle, fid, server.lookup(fid).name,
                               server.lookup_bytes(fid))

    def _live(self) -> list[_WorkerHandle]:
        return [h for h in self._workers if h.alive]

    # -- publishing ----------------------------------------------------------

    def cutover(self, new_fmt: IOFormat) -> int:
        """Upgrade the stream fleet-wide, zero drops per shard.

        Registers the evolution locally, replicates the grown lineage
        to every worker (EVOLVE), then has each shard re-announce
        (FMT_RSP + LIN_RSP ahead of any new-version data on each
        client's FIFO queue — the same ordering guarantee as the
        single-process cutover, applied per shard)."""
        old_fmt = self.context.lookup_format(new_fmt.name)
        self.context.register_evolution(new_fmt)
        metadata = new_fmt.canonical_bytes()
        payload = (_pack_name(new_fmt.name)
                   + old_fmt.format_id.to_bytes()
                   + new_fmt.format_id.to_bytes() + metadata)
        reached = 0
        for handle in self._live():
            try:
                if old_fmt.format_id not in handle.sent_formats:
                    self._send_reg(
                        handle, old_fmt.format_id, old_fmt.name,
                        self.context.format_server.lookup_bytes(
                            old_fmt.format_id))
                handle.ctl.send(Ctl.EVOLVE, payload)
                handle.sent_formats.add(new_fmt.format_id)
                handle.ctl.send(Ctl.CUTOVER,
                                _pack_name(new_fmt.name)
                                + new_fmt.format_id.to_bytes())
                reached += 1
            except OSError:
                self._mark_dead(handle)
        self.stats.count("cutovers")
        return reached

    def _fan_out(self, fmt: IOFormat, data: bytes, down_convert) -> int:
        """Hand the frame to every live shard (replicating the format
        first where a shard lacks it); returns the shards reached."""
        #: (fid, frame, primary) per version — the current-version
        #: frame (clients with no pin get it) plus one down-converted
        #: variant per *pinned version*, never per subscriber or per
        #: worker
        frames = [(fmt.format_id, data, True)]
        with self._lock:
            pinned = [fid for fid, count in
                      self._pins.get(fmt.name, {}).items()
                      if count > 0 and fid != fmt.format_id]
        for fid in pinned:
            old_fmt = self._version_format(fmt.name, fid)
            frames.append((fid, down_convert(old_fmt), False))
        t0 = sample_t0()
        name_bytes = _pack_name(fmt.name)
        reached = 0
        for handle in self._live():
            try:
                for fid, frame, primary in frames:
                    if fid not in handle.sent_formats:
                        self._send_reg(
                            handle, fid, fmt.name,
                            self.context.format_server
                            .lookup_bytes(fid))
                    handle.ctl.send(
                        Ctl.BCAST,
                        bytes((primary,)) + fid.to_bytes()
                        + name_bytes + frame)
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
        row["frames_down_converted"] += len(pinned)
        self.stats.mark("subscriber_high_water", self.subscriber_count)
        return reached

    # -- synchronization -----------------------------------------------------

    def _round_trip(self, kind: int,
                    timeout: float | None) -> list:
        """Send *kind*+seq to every live worker, gather the replies."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            event = threading.Event()
            sink: list = []
            self._acks[seq] = (event, sink)
        targets = self._live()
        for handle in targets:
            try:
                handle.ctl.send(kind, _U32.pack(seq))
            except OSError:
                self._mark_dead(handle)
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        try:
            while len(sink) < len([h for h in targets if h.alive]):
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                event.wait(remaining)
                event.clear()
        finally:
            with self._lock:
                self._acks.pop(seq, None)
        return sink

    def flush(self, timeout: float | None = 60.0) -> bool:
        """Block until every shard's client queues have drained."""
        replies = self._round_trip(Ctl.BARRIER, timeout)
        live = len(self._live())
        return len(replies) >= live and \
            all(payload[:1] == b"\x01" for _h, payload in replies)

    def worker_stats(self, timeout: float | None = 30.0) \
            -> dict[str, dict]:
        """Per-shard telemetry: obs snapshot, publisher counters,
        event-loop totals, codec/bulk counters, replica stats."""
        replies = self._round_trip(Ctl.STATS_REQ, timeout)
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

    def wait_for_pins(self, name: str, count: int,
                      timeout: float | None = None) -> bool:
        """Block until *count* subscribers have reported version pins
        for lineage *name*.

        A shard registers a pin locally before reporting it here, so
        once this returns True every one of those subscribers receives
        the down-converted variant starting with the very next
        publish.  Without the barrier a publish can race a subscriber
        whose LIN_RSP is still in flight; that subscriber gets the
        current version for the frames already fanned out."""
        with self._census:
            return self._census.wait_for(
                lambda: sum(self._pins.get(name, {}).values()) >= count,
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
