"""Non-blocking event-loop transport server.

One thread, one ``selectors`` poll loop, many clients.  The blocking
transport (:class:`~repro.transport.tcp.TCPListener` plus a thread per
channel) tops out at a few dozen peers; the paper's motivating
deployment — "single servers must provide information to large numbers
of clients" — needs hundreds.  :class:`EventLoopServer` accepts every
subscriber on the same thread and reads every client through the
transport's one reassembler, :class:`~repro.transport.messages
.FrameReader`, the one ``TCPChannel`` reads with.  Outbound frames write
through: :meth:`EventLoopServer.write_through` sends a publish's frames
on the caller's thread, in one pass under one lock, and the loop
thread only drains a backlog, with scatter-gather ``sendmsg`` — one
syscall per backlogged client, not one per frame.

The loop itself is policy-free: bounded-queue backpressure
(``block`` / ``drop-oldest`` / ``disconnect-slow``) is composed on top
by :class:`~repro.transport.broadcast.BroadcastPublisher`.

A misbehaving client — oversized length prefix, unknown frame type,
reset connection — is closed individually with the error recorded as
its ``close_reason``; the loop and every other client keep running.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from functools import partial

from repro.errors import (
    FrameTooLargeError, ProtocolError, TransportError,
)
from repro.obs import runtime as _obs
from repro.obs.metrics import (
    SENDMSG_BATCH, TRANSPORT_BYTES_OUT, TRANSPORT_CLIENTS,
    TRANSPORT_EVENTS, TRANSPORT_FRAMES, TRANSPORT_QUEUE_HIGH_WATER,
    TRANSPORT_QUEUED_BYTES,
)
from repro.obs.registry import FOLD_LOCK, REGISTRY
from repro.transport.messages import (
    MAX_FRAME, ZERO_LENGTH, FrameReader, count_malformed,
)

try:
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX
    _fcntl = None

#: iovec entries per drain sendmsg (conservative vs. kernel IOV_MAX)
_SENDMSG_BATCH = 512


def set_cloexec(sock) -> None:
    """Mark *sock*'s fd close-on-exec (and non-inheritable).

    Every fd an :class:`EventLoopServer` owns — wake socketpair,
    listener, accepted and adopted clients — passes through here, so a
    worker process forked or spawned while a server is live can never
    inherit another shard's sockets.  CPython already creates sockets
    non-inheritable (PEP 446); this is the explicit, regression-tested
    guarantee for fds that arrived from elsewhere (``socket(fileno=)``
    adoptions, fds received over ``SCM_RIGHTS``).
    """
    try:
        sock.set_inheritable(False)
    except (AttributeError, OSError):  # pragma: no cover - defensive
        pass
    if _fcntl is not None:
        try:
            fd = sock.fileno()
            flags = _fcntl.fcntl(fd, _fcntl.F_GETFD)
            _fcntl.fcntl(fd, _fcntl.F_SETFD,
                         flags | _fcntl.FD_CLOEXEC)
        except (OSError, ValueError):  # pragma: no cover - closed fd
            pass


class Poller:
    """A ``selectors`` selector with a cross-thread wakeup channel.

    ``select()`` blocks the loop thread; producers on other threads
    (the publisher enqueueing frames, ``close()``) call :meth:`wake`
    to interrupt it through a loopback socketpair.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        set_cloexec(self._wake_r)
        set_cloexec(self._wake_w)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                None)

    def register(self, sock, events: int, data) -> None:
        self._selector.register(sock, events, data)

    def modify(self, sock, events: int, data) -> None:
        self._selector.modify(sock, events, data)

    def unregister(self, sock) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:  # full pipe still wakes; closed poller is done
            pass

    def poll(self, timeout: float | None = None) -> list:
        """Ready ``(key, events)`` pairs, wakeups already drained."""
        ready = self._selector.select(timeout)
        out = []
        for key, events in ready:
            if key.fileobj is self._wake_r:
                try:
                    while self._wake_r.recv(4096):
                        pass
                except OSError:
                    pass
                continue
            out.append((key, events))
        return out

    def close(self) -> None:
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()


class ClientHandle:
    """Per-subscriber state owned by the event loop.

    Handler callbacks and the publisher hold references to these; all
    mutable queue state is guarded by the server's lock.
    """

    __slots__ = (
        "id", "sock", "addr", "reader", "recv_into", "max_frame_len",
        "write_queue",
        "head_offset", "in_flight", "queued_bytes",
        "queue_high_water", "sent_bytes", "frames_enqueued",
        "frames_sent", "frames_received", "frames_dropped", "open",
        "closing", "close_reason", "announced", "peer_architecture",
        "negotiated",
    )

    def __init__(self, client_id: int, sock: socket.socket,
                 addr, max_frame_len: int = MAX_FRAME) -> None:
        self.id = client_id
        self.sock = sock
        self.addr = addr
        self.reader = FrameReader()
        #: how the loop reads this socket, and with what frame cap
        self.recv_into = sock.recv_into
        self.max_frame_len = max_frame_len
        #: entries are ``[memoryview, droppable]``; the head entry may
        #: be partially sent (``head_offset`` bytes already written)
        self.write_queue: deque = deque()
        self.head_offset = 0
        #: number of head entries snapshotted into an in-progress
        #: sendmsg window; drop_oldest must not remove them
        self.in_flight = 0
        self.queued_bytes = 0
        self.queue_high_water = 0
        self.sent_bytes = 0
        self.frames_enqueued = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped = 0
        self.open = True
        self.closing = False          # graceful: FIN after drain
        self.close_reason: BaseException | None = None
        #: digests (``FormatID.value``, an int that hashes in C)
        #: already announced to this client (publisher's)
        self.announced: set = set()
        self.peer_architecture: str | None = None
        #: format name -> FormatID this client negotiated via LIN_REQ
        #: (written on the loop thread, read by the publisher; GIL-
        #: atomic dict assignment)
        self.negotiated: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClientHandle #{self.id} {self.addr} "
                f"queued={self.queued_bytes}>")


#: ``EventLoopServer.totals()`` key -> the series (and label values)
#: it is reported under while the server lives; the counters are also
#: what ``_obs_retire`` folds, so the two can never name different sets
_OBS_GAUGES = (
    ("clients", TRANSPORT_CLIENTS, ()),
    ("queued_bytes", TRANSPORT_QUEUED_BYTES, ()),
    ("queue_high_water", TRANSPORT_QUEUE_HIGH_WATER, ()),
)
_OBS_COUNTERS = (
    ("frames_received", TRANSPORT_FRAMES, ("in",)),
    ("frames_sent", TRANSPORT_FRAMES, ("out",)),
    ("sent_bytes", TRANSPORT_BYTES_OUT, ()),
    ("clients_accepted", TRANSPORT_EVENTS, ("clients_accepted",)),
    ("clients_closed", TRANSPORT_EVENTS, ("clients_closed",)),
    ("frames_enqueued", TRANSPORT_EVENTS, ("frames_enqueued",)),
    ("frames_dropped", TRANSPORT_EVENTS, ("frames_dropped",)),
)


class EventLoopServer:
    """Accepts and services many clients on one thread.

    The loop owns every socket and reads the bytes; *handler* says
    what they mean.  Its callbacks are all invoked on the loop thread
    with no internal lock held:

    * ``on_connect(client)`` — before the client is visible to
      other threads, so what it enqueues goes out first.
    * ``on_registered(client)`` — once the client is in
      :attr:`open_clients`, so a publish from now on reaches it.
    * ``parse(reader)`` — an iterator over the complete messages in a
      client's :class:`~repro.transport.messages.FrameReader`, consumed
      in place: by default whole frames; a service speaking another
      protocol (HTTP request heads) supplies its own, reading the same
      bytes through ``unread()`` / ``discard()``.
    * ``on_frame(client, message)`` — once per parsed message.
    * ``on_disconnect(client, reason)`` — *reason* is None for an
      orderly close, else the exception that ended the client.

    Callbacks are optional (missing attributes are skipped), so a
    plain object with the methods it cares about suffices.

    The loop runs on a thread of its own (:meth:`start`) or on the
    caller's (:meth:`run`).  A callback may wait on the loop thread —
    :meth:`flush`, :meth:`wait_queue_below` — without deadlocking: the
    loop keeps turning inside the wait (see :meth:`_wait`).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 handler=None,
                 max_frame_len: int = MAX_FRAME,
                 listen: bool = True) -> None:
        self.handler = handler
        self.max_frame_len = max_frame_len
        self._poller = Poller()
        if listen:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(256)
            self._listener.setblocking(False)
            set_cloexec(self._listener)
            self.host, self.port = self._listener.getsockname()
            self._poller.register(self._listener, selectors.EVENT_READ,
                                  self._accept_ready)
        else:
            # accept-less loop: clients arrive via adopt() (fd passing
            # from an acceptor process)
            self._listener = None
            self.host, self.port = host, 0
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._clients: dict[int, ClientHandle] = {}
        #: immutable snapshot of ``_clients``' values, replaced under
        #: the lock whenever a client joins or leaves: a fan-out reads
        #: it without taking the lock
        self.open_clients: tuple[ClientHandle, ...] = ()
        self._next_id = 0
        #: the one connection outside the client table (:meth:`attach`)
        self._peer: ClientHandle | None = None
        self._want_write: set[ClientHandle] = set()
        self._close_requests: deque = deque()
        self._adoptions: deque = deque()
        self._stopping = False
        self._thread: threading.Thread | None = None
        #: the thread running the loop, once it runs; the client whose
        #: input is being delivered on it, if any
        self._loop_ident: int | None = None
        self._reading: ClientHandle | None = None
        self._torn_down = False
        self.clients_accepted = 0
        self.clients_closed = 0
        #: per-client counters carried over when a client closes, so
        #: totals() and the obs collector never lose history
        self._closed_totals = {"frames_enqueued": 0, "frames_sent": 0,
                               "frames_received": 0,
                               "frames_dropped": 0, "sent_bytes": 0}
        self._closed_queue_high_water = 0
        self._obs_retired = False
        # sampled at snapshot time only; held weakly, so a dropped
        # server unregisters itself
        REGISTRY.register_collector(self._obs_collect)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EventLoopServer":
        if self._thread is None:
            self._thread = threading.Thread(target=self.run,
                                            name="event-loop-server",
                                            daemon=True)
            self._thread.start()
        return self

    def run(self) -> None:
        """Serve on the calling thread until :meth:`close`."""
        self._loop_ident = threading.get_ident()
        try:
            while not self._stopping:
                self._turn(1.0)
        finally:
            self._teardown()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the loop; off the loop thread, join it (*timeout*)."""
        self._stopping = True
        self._poller.wake()
        if self._thread is not None:
            if self._thread.ident != threading.get_ident():
                self._thread.join(timeout)
                self._thread = None
        elif self._loop_ident is None:  # never ran
            self._teardown()

    def __enter__(self) -> "EventLoopServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cross-thread API ---------------------------------------------------

    def clients(self) -> list[ClientHandle]:
        """Snapshot of currently open clients."""
        return list(self.open_clients)

    @property
    def client_count(self) -> int:
        return len(self.open_clients)

    def live_fds(self) -> list[int]:
        """Every fd this server currently owns: wake socketpair,
        listener (when it has one), and all open client sockets.  All
        of them are FD_CLOEXEC (see :func:`set_cloexec`), so spawned
        shard workers never inherit another shard's sockets."""
        fds = [self._poller._wake_r.fileno(),
               self._poller._wake_w.fileno()]
        if self._listener is not None:
            fds.append(self._listener.fileno())
        with self._lock:
            fds.extend(c.sock.fileno() for c in self._clients.values()
                       if c.open)
        return [fd for fd in fds if fd >= 0]

    def totals(self) -> dict:
        """Lifetime transport totals: live clients plus everything
        closed clients accumulated before they went away."""
        with self._lock:
            totals = dict(self._closed_totals)
            queued = high = 0
            for c in self._clients.values():
                for name in self._closed_totals:
                    totals[name] += getattr(c, name)
                queued += c.queued_bytes
                if c.queue_high_water > high:
                    high = c.queue_high_water
            totals["clients"] = len(self._clients)
            totals["queued_bytes"] = queued
            totals["queue_high_water"] = max(
                high, self._closed_queue_high_water)
            totals["clients_accepted"] = self.clients_accepted
            totals["clients_closed"] = self.clients_closed
        return totals

    def _obs_collect(self) -> list[dict]:
        """Snapshot-time samples for the process-wide registry (the
        merge sums same-named samples over live servers)."""
        if self._obs_retired:
            return []
        t = self.totals()
        return [{"name": metric.name, "value": t[key],
                 "labels": dict(zip(metric.label_names, labels))}
                for key, metric, labels in _OBS_GAUGES + _OBS_COUNTERS]

    def _obs_retire(self) -> None:
        """Fold final counter totals into the persistent process-wide
        counters.  The collector above only reports while the server
        object is alive; without this fold a scrape taken after the
        server is closed and collected would show its frame/byte
        history silently vanishing."""
        with FOLD_LOCK:  # flag + fold are one step to a snapshot
            if self._obs_retired:
                return
            t = self.totals()
            self._obs_retired = True
            for key, metric, labels in _OBS_COUNTERS:
                metric.labels(*labels).inc(t[key])

    def enqueue(self, client: ClientHandle, data: bytes, *,
                droppable: bool = True) -> bool:
        """Send or queue *data* (one whole encoded frame) for *client*,
        unbounded: the one-client case of :meth:`write_through`.
        Returns False when the client is already gone."""
        return self.write_through(((client, data),),
                                  droppable=droppable)[0] == 1

    def write_through(self, sends, limit: int = 1 << 62, *,
                      droppable: bool = True) -> tuple:
        """Send or queue each ``(client, frame)`` of *sends* — one
        publish's fan-out — in one pass under **one** acquisition of
        the server lock (docs/TRANSPORT.md, "The write path").

        An empty queue's frame goes to the kernel here in one
        non-blocking ``send``; what it did not take is queued for the
        loop thread, woken once after the pass.  A send error becomes
        a close request; a closed or closing client is skipped; one
        whose queue plus frame would pass *limit* is left to the
        caller.  Returns ``(reached, bytes, most bytes a reached
        client has queued, [(client, frame) over limit])``."""
        reached = size = waiting = 0
        over = []
        wake = False
        with self._lock:
            for client, data in sends:
                if not client.open or client.closing:
                    continue
                if client.queued_bytes + len(data) > limit:
                    over.append((client, data))
                    continue
                client.frames_enqueued += 1
                reached += 1
                size += len(data)
                queue = client.write_queue
                sent = 0
                if not queue:
                    try:
                        sent = client.sock.send(data)
                    except BlockingIOError:
                        pass
                    except OSError as exc:
                        client.close_reason = TransportError(
                            f"send failed: {exc}")
                        self._close_requests.append(
                            (client, client.close_reason, False))
                    client.sent_bytes += sent
                    if sent == len(data):
                        client.frames_sent += 1
                        continue
                    client.head_offset = sent
                    self._want_write.add(client)
                    wake = True
                queue.append([memoryview(data), droppable])
                client.queued_bytes += len(data) - sent
                if client.queued_bytes > client.queue_high_water:
                    client.queue_high_water = client.queued_bytes
                if client.queued_bytes > waiting:
                    waiting = client.queued_bytes
        if wake:
            self._poller.wake()
        return reached, size, waiting, over

    def drop_oldest(self, client: ClientHandle,
                    need: int) -> tuple[int, int]:
        """Free at least *need* queued bytes by discarding the oldest
        droppable frames (never the partially-sent head, never frames
        inside an in-progress ``sendmsg`` window, never control
        frames).  Returns ``(bytes freed, frames dropped)``."""
        freed = dropped = 0
        with self._changed:
            queue = client.write_queue
            # the loop thread snapshots the first ``in_flight``
            # entries under this lock, then sends and accounts for
            # them outside it; deleting any of them here would make
            # the post-send accounting walk a different queue and
            # desynchronize the client's byte stream
            index = max(client.in_flight,
                        1 if client.head_offset else 0)
            while freed < need and index < len(queue):
                view, droppable = queue[index]
                if droppable:
                    del queue[index]
                    freed += len(view)
                    dropped += 1
                    client.queued_bytes -= len(view)
                    client.frames_dropped += 1
                else:
                    index += 1
            if freed:
                self._changed.notify_all()
        return freed, dropped

    def attach(self, sock: socket.socket, *, recv_into=None,
               max_frame_len: int = MAX_FRAME) -> ClientHandle:
        """Make *sock* the loop's **peer** (before the loop runs): read
        and written like a client — ``on_frame``, :meth:`enqueue`,
        ``on_disconnect`` — but outside the client table, so never a
        fan-out target nor in :meth:`totals`, the census or the
        gauges.  *recv_into* replaces the socket's own."""
        sock.setblocking(False)
        set_cloexec(sock)
        peer = ClientHandle(-1, sock, "peer", max_frame_len)
        if recv_into is not None:
            peer.recv_into = recv_into
        self._peer = peer
        self._poller.register(sock, selectors.EVENT_READ, peer)
        return peer

    def adopt(self, sock: socket.socket, addr=None) -> bool:
        """Hand an already-connected socket to the loop.

        The socket is registered and announced through ``on_connect``
        exactly as if the loop's own listener had accepted it — the
        ingestion path for sharded topologies where a separate
        acceptor process distributes connections over ``SCM_RIGHTS``.
        Returns False (and closes *sock*) when the server is already
        torn down.
        """
        if addr is None:
            try:
                addr = sock.getpeername()
            except OSError:
                addr = ("?", 0)
        with self._lock:
            if self._torn_down:
                try:
                    sock.close()
                except OSError:
                    pass
                return False
            self._adoptions.append((sock, addr))
        self._poller.wake()
        return True

    def request_close(self, client: ClientHandle,
                      reason: BaseException | None = None, *,
                      graceful: bool = False) -> None:
        """Ask the loop thread to close *client*.

        ``graceful`` drains the write queue, half-closes (FIN) and
        waits for the peer's EOF; otherwise the socket closes as soon
        as the loop services the request.
        """
        with self._lock:
            if not client.open:
                return
            self._close_requests.append((client, reason, graceful))
        self._poller.wake()

    def wait_queue_below(self, client: ClientHandle, limit: int,
                         timeout: float | None) -> bool:
        """Block until *client*'s queued bytes fall to *limit* or the
        client closes; False on timeout (the ``block`` policy wait)."""
        return self._wait(
            lambda: not client.open or client.queued_bytes <= limit,
            timeout)

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every open client's write queue is empty;
        False on timeout."""
        return self._wait(
            lambda: not any(c.queued_bytes
                            for c in self._clients.values() if c.open),
            timeout)

    def wait_for_clients(self, count: int,
                         timeout: float | None = None) -> bool:
        """Block until at least *count* clients are connected."""
        return self._wait(lambda: len(self._clients) >= count, timeout)

    def _wait(self, ready, timeout: float | None) -> bool:
        """Block until ``ready()``; False on timeout.  A callback
        waiting on the loop thread keeps the loop turning instead, less
        the input of the client whose frame it handles: that socket
        leaves the selector until the wait ends, so its sender meets
        backpressure and none of its frames is read out of turn."""
        if threading.get_ident() != self._loop_ident:
            with self._changed:
                return self._changed.wait_for(ready, timeout)
        held = self._reading
        if held is not None:
            self._poller.unregister(held.sock)
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        try:
            while not ready() and not self._torn_down:
                left = None if deadline is None else \
                    deadline - time.monotonic()
                if left is not None and left <= 0:
                    return False
                self._turn(left)
            return ready()
        finally:
            self._reading = held
            if held is not None and held.open:
                self._poller.register(
                    held.sock, selectors.EVENT_READ | (
                        selectors.EVENT_WRITE if held.write_queue else 0),
                    held)

    # -- loop ---------------------------------------------------------------

    def _turn(self, timeout: float | None) -> None:
        """Apply cross-thread requests, then serve one poll's events."""
        self._apply_requests()
        for key, events in self._poller.poll(timeout):
            client = key.data
            if type(client) is not ClientHandle:
                client()  # the listener's accept
                continue
            if events & selectors.EVENT_READ:
                self._readable(client)
            if client.open and events & selectors.EVENT_WRITE:
                self._writable(client)

    def _apply_requests(self) -> None:
        """Apply cross-thread state changes on the loop thread (the
        selector is single-threaded by design)."""
        with self._lock:
            closes = list(self._close_requests)
            self._close_requests.clear()
            adoptions = list(self._adoptions)
            self._adoptions.clear()
            wants = list(self._want_write)
            self._want_write.clear()
        for sock, addr in adoptions:
            self._register_client(sock, addr)
        for client, reason, graceful in closes:
            if not client.open:
                continue
            if not graceful:
                self._close_client(client, reason)
            elif client.queued_bytes:
                client.close_reason = reason
                client.closing = True  # FIN once the queue drains
            else:
                client.close_reason = reason
                self._finish_graceful(client)
        for client in wants:
            if client.open:
                self._set_interest(client, write=True)

    def _set_interest(self, client: ClientHandle, *,
                      write: bool) -> None:
        events = selectors.EVENT_READ
        if write:
            events |= selectors.EVENT_WRITE
        try:
            self._poller.modify(client.sock, events, client)
        except (KeyError, ValueError, OSError):
            pass

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            self._register_client(sock, addr)

    def _register_client(self, sock: socket.socket, addr) -> None:
        """Install one connected socket (accepted or adopted) as a
        client of this loop (loop thread only)."""
        sock.setblocking(False)
        set_cloexec(sock)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (unix socketpair in tests, adopted pipes)
        with self._lock:
            client = ClientHandle(self._next_id, sock, addr,
                                  self.max_frame_len)
            self._next_id += 1
            self.clients_accepted += 1
        self._poller.register(sock, selectors.EVENT_READ, client)
        # announced before it is visible: whatever on_connect enqueues
        # (a HELLO) is ahead of anything another thread sends it
        self._callback("on_connect", client)
        if client.open:
            with self._changed:
                self._clients[client.id] = client
                self.open_clients = tuple(self._clients.values())
                self._changed.notify_all()
            self._callback("on_registered", client)

    def _readable(self, client: ClientHandle) -> None:
        """Read and deliver by turns until EAGAIN or the client closes."""
        reader, recv_into = client.reader, client.recv_into
        parse = getattr(self.handler, "parse", None)
        self._reading = client
        try:
            while client.open:
                try:
                    got = reader.fill(recv_into)
                except BlockingIOError:
                    return
                except OSError as exc:
                    self._close_client(
                        client, TransportError(f"recv failed: {exc}"))
                    return
                if not got:
                    # a reason: graceful close's, or enqueue's error
                    self._close_client(client, client.close_reason)
                    return
                for message in (
                        iter(partial(reader.frame, client.max_frame_len),
                             None)
                        if parse is None else parse(reader)):
                    client.frames_received += 1
                    self._callback("on_frame", client, message)
                    if not client.open:
                        return
        except ProtocolError as exc:
            count_malformed(
                "eventloop",
                "oversized_frame" if isinstance(exc, FrameTooLargeError)
                else "zero_length_frame" if str(exc) == ZERO_LENGTH
                else "bad_frame")
            self._close_client(client, exc)
        finally:
            self._reading = None

    def _writable(self, client: ClientHandle) -> None:
        with self._lock:
            queue = client.write_queue
            window = []
            for entry in queue:
                view = entry[0]
                if not window and client.head_offset:
                    view = view[client.head_offset:]
                window.append(view)
                if len(window) >= _SENDMSG_BATCH:
                    break
            # published under the lock so drop_oldest (publisher
            # thread) leaves these entries alone while sendmsg and
            # the accounting below run
            client.in_flight = len(window)
        if not window:
            self._drained(client)
            return
        try:
            if hasattr(client.sock, "sendmsg"):
                sent = client.sock.sendmsg(window)
            else:  # pragma: no cover - non-POSIX fallback
                sent = client.sock.send(window[0])
        except (BlockingIOError, InterruptedError):
            with self._lock:
                client.in_flight = 0
            return
        except OSError as exc:
            with self._lock:
                client.in_flight = 0
            self._close_client(client,
                               TransportError(f"send failed: {exc}"))
            return
        if _obs.enabled:
            SENDMSG_BATCH.observe(len(window))
        with self._changed:
            client.in_flight = 0
            client.sent_bytes += sent
            client.queued_bytes -= sent
            remaining = sent
            queue = client.write_queue
            while remaining and queue:
                view, _droppable = queue[0]
                left = len(view) - client.head_offset
                if remaining >= left:
                    remaining -= left
                    client.head_offset = 0
                    client.frames_sent += 1
                    queue.popleft()
                else:
                    client.head_offset += remaining
                    remaining = 0
            empty = not queue
            self._changed.notify_all()
        if empty:
            self._drained(client)

    def _drained(self, client: ClientHandle) -> None:
        if client.closing:
            self._finish_graceful(client)
        else:
            self._set_interest(client, write=False)

    def _finish_graceful(self, client: ClientHandle) -> None:
        """Queue is empty: half-close and wait for the peer's EOF so
        in-flight frames are never destroyed by a RST."""
        client.closing = True
        self._set_interest(client, write=False)
        try:
            client.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close_client(client, client.close_reason)

    def _close_client(self, client: ClientHandle,
                      reason: BaseException | None) -> None:
        with self._changed:
            if not client.open:
                return
            client.open = False
            client.close_reason = reason
            client.write_queue.clear()
            client.queued_bytes = 0
            client.in_flight = 0
            if client is not self._peer:
                self._clients.pop(client.id, None)
                self.open_clients = tuple(self._clients.values())
                self.clients_closed += 1
                totals = self._closed_totals
                for name in totals:
                    totals[name] += getattr(client, name)
                self._closed_queue_high_water = max(
                    self._closed_queue_high_water, client.queue_high_water)
            self._changed.notify_all()
        self._poller.unregister(client.sock)
        try:
            client.sock.close()
        except OSError:
            pass
        self._callback("on_disconnect", client, reason)

    def _callback(self, name: str, *args) -> None:
        fn = getattr(self.handler, name, None)
        if fn is None:
            return
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - one client, not loop
            client = args[0]
            if client.open:
                self._close_client(client, exc)

    def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        for client in list(self._clients.values()):
            self._close_client(client, None)
        if self._peer is not None:
            self._close_client(self._peer, None)
        with self._lock:
            orphans = list(self._adoptions)
            self._adoptions.clear()
        for sock, _addr in orphans:
            try:
                sock.close()
            except OSError:
                pass
        if self._listener is not None:
            self._poller.unregister(self._listener)
            try:
                self._listener.close()
            except OSError:
                pass
        self._poller.close()
        with self._changed:
            self._changed.notify_all()
        self._obs_retire()

