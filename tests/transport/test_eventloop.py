"""Event-loop server: many clients, one thread, per-client failure."""

import os
import socket
import threading

import pytest

from repro.errors import FrameTooLargeError, ProtocolError
from repro.transport.eventloop import (
    ClientHandle, EventLoopServer, Poller,
)
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import TCPChannel
from tests.transport.frames import iter_frames


def data(payload: bytes) -> Frame:
    return Frame(FrameType.DATA, payload)


class EchoHandler:
    """Echoes every frame back; records lifecycle callbacks."""

    def __init__(self):
        self.server = None
        self.connected = []
        self.disconnected = []
        self.lock = threading.Lock()

    def on_connect(self, client):
        with self.lock:
            self.connected.append(client.id)

    def on_frame(self, client, frame):
        self.server.enqueue(client, frame.encode())

    def on_disconnect(self, client, reason):
        with self.lock:
            self.disconnected.append((client.id, reason))


def echo_server(**kwargs):
    handler = EchoHandler()
    server = EventLoopServer(handler=handler, **kwargs)
    handler.server = server
    return server, handler


class TestEventLoopServer:
    def test_echo_roundtrip(self):
        server, _handler = echo_server()
        with server:
            ch = TCPChannel.connect(server.host, server.port)
            ch.send(data(b"hello loop"))
            frame = ch.recv(timeout=5)
            assert frame.type == FrameType.DATA
            assert frame.payload == b"hello loop"
            ch.close()

    def test_many_clients_one_thread(self):
        server, _handler = echo_server()
        with server:
            channels = [TCPChannel.connect(server.host, server.port)
                        for _ in range(32)]
            assert server.wait_for_clients(32, timeout=5)
            for i, ch in enumerate(channels):
                ch.send(data(f"client-{i}".encode()))
            for i, ch in enumerate(channels):
                assert ch.recv(timeout=5).payload == \
                    f"client-{i}".encode()
            for ch in channels:
                ch.close()
        assert server.clients_accepted == 32

    def test_split_frame_reassembled(self):
        """Frames arriving a few bytes at a time still parse."""
        server, _handler = echo_server()
        with server:
            sock = socket.create_connection((server.host, server.port))
            raw = data(b"sliced").encode()
            for i in range(len(raw)):
                sock.sendall(raw[i:i + 1])
            buf = bytearray()
            frames = []
            while not frames:
                chunk = sock.recv(4096)
                assert chunk, "server closed instead of echoing"
                buf.extend(chunk)
                frames = list(iter_frames(buf))
            assert frames[0].payload == b"sliced"
            sock.close()

    def test_oversized_frame_closes_only_that_client(self):
        server, handler = echo_server(max_frame_len=1024)
        with server:
            good = TCPChannel.connect(server.host, server.port)
            bad = socket.create_connection((server.host, server.port))
            assert server.wait_for_clients(2, timeout=5)
            # length prefix far beyond the cap; payload never sent
            bad.sendall((1 << 20).to_bytes(4, "big"))
            assert bad.recv(4096) == b""  # server hung up on us
            bad.close()
            good.send(data(b"still fine"))
            assert good.recv(timeout=5).payload == b"still fine"
            good.close()
        reasons = [r for _id, r in handler.disconnected
                   if isinstance(r, FrameTooLargeError)]
        assert len(reasons) == 1
        assert reasons[0].length == 1 << 20
        assert reasons[0].limit == 1024

    def test_zero_length_frame_rejected(self):
        server, handler = echo_server()
        with server:
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(b"\x00\x00\x00\x00")
            assert sock.recv(4096) == b""
            sock.close()
        assert any(isinstance(r, ProtocolError)
                   for _id, r in handler.disconnected)

    def test_handler_error_closes_one_client(self):
        class Exploding(EchoHandler):
            def on_frame(self, client, frame):
                if frame.payload == b"boom":
                    raise RuntimeError("handler bug")
                super().on_frame(client, frame)

        handler = Exploding()
        server = EventLoopServer(handler=handler)
        handler.server = server
        with server:
            victim = TCPChannel.connect(server.host, server.port)
            bystander = TCPChannel.connect(server.host, server.port)
            assert server.wait_for_clients(2, timeout=5)
            victim.send(data(b"boom"))
            bystander.send(data(b"ok"))
            assert bystander.recv(timeout=5).payload == b"ok"
            assert victim.recv(timeout=5) is None  # evicted cleanly
            victim.close()
            bystander.close()
        assert any(isinstance(r, RuntimeError)
                   for _id, r in handler.disconnected)

    def test_flush_and_enqueue(self):
        server, _handler = echo_server()
        with server:
            sock = socket.create_connection((server.host, server.port))
            assert server.wait_for_clients(1, timeout=5)
            (client,) = server.clients()
            payload = data(b"pushed").encode()
            assert server.enqueue(client, payload)
            assert server.flush(timeout=5)
            buf = bytearray()
            while True:
                buf.extend(sock.recv(4096))
                frames = list(iter_frames(buf))
                if frames:
                    break
            assert frames[0].payload == b"pushed"
            sock.close()

    def test_graceful_close_delivers_queued_frames(self):
        """request_close(graceful=True) drains the queue and FINs —
        the peer sees every frame, then a clean EOF, never a RST."""
        server, _handler = echo_server()
        with server:
            sock = socket.create_connection((server.host, server.port))
            assert server.wait_for_clients(1, timeout=5)
            (client,) = server.clients()
            for i in range(50):
                server.enqueue(client, data(b"%03d" % i).encode())
            server.request_close(client, None, graceful=True)
            buf = bytearray()
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buf.extend(chunk)
            frames = list(iter_frames(buf))
            assert [f.payload for f in frames] == \
                [b"%03d" % i for i in range(50)]
            sock.close()

    def test_enqueue_after_close_refused(self):
        server, _handler = echo_server()
        with server:
            ch = TCPChannel.connect(server.host, server.port)
            assert server.wait_for_clients(1, timeout=5)
            (client,) = server.clients()
            ch.close()

            def gone():
                return not server.enqueue(client, b"\0\0\0\1\1")
            deadline = 50
            while not gone() and deadline:
                deadline -= 1
                import time
                time.sleep(0.05)
            assert gone()

    def test_close_idempotent(self):
        server, _handler = echo_server()
        server.start()
        server.close()
        server.close()  # second close must be a no-op


class TestDropOldest:
    def setup_method(self):
        self.sockets = []

    def teardown_method(self):
        for sock in self.sockets:
            sock.close()

    def _client_with_queue(self, server, frames):
        self.sockets.append(socket.socket())
        client = ClientHandle(0, self.sockets[-1], ("test", 0))
        for payload, droppable in frames:
            server.enqueue(client, payload, droppable=droppable)
        return client

    def test_drops_oldest_droppable_only(self):
        server = EventLoopServer()  # never started: queue logic only
        client = self._client_with_queue(server, [
            (b"a" * 10, True), (b"b" * 10, False), (b"c" * 10, True),
        ])
        freed, dropped = server.drop_oldest(client, 15)
        assert (freed, dropped) == (20, 2)
        remaining = [bytes(v) for v, _d in client.write_queue]
        assert remaining == [b"b" * 10]  # control frame preserved
        assert client.queued_bytes == 10
        server.close()

    def test_never_drops_partially_sent_head(self):
        server = EventLoopServer()
        client = self._client_with_queue(server, [
            (b"a" * 10, True), (b"b" * 10, True),
        ])
        client.head_offset = 3  # head frame is mid-send
        freed, dropped = server.drop_oldest(client, 100)
        assert (freed, dropped) == (10, 1)
        assert bytes(client.write_queue[0][0]) == b"a" * 10
        server.close()

    def test_never_drops_in_flight_sendmsg_window(self):
        """Entries snapshotted into an in-progress sendmsg window are
        untouchable: dropping them would desynchronize the accounting
        the loop thread performs after the send returns."""
        server = EventLoopServer()
        client = self._client_with_queue(server, [
            (b"a" * 10, True), (b"b" * 10, True), (b"c" * 10, True),
        ])
        client.in_flight = 2  # loop thread is sending entries 0-1
        freed, dropped = server.drop_oldest(client, 100)
        assert (freed, dropped) == (10, 1)
        remaining = [bytes(v) for v, _d in client.write_queue]
        assert remaining == [b"a" * 10, b"b" * 10]
        assert client.queued_bytes == 20
        server.close()

    def test_writable_accounting_immune_to_concurrent_drop(self):
        """The publisher racing drop_oldest into the middle of a
        sendmsg must not corrupt post-send accounting: bytes the
        kernel accepted belong to the snapshotted window entries, so
        none of those entries may disappear before they're accounted.
        (Deterministic interleaving of the race REVIEW.md flagged.)"""
        server = EventLoopServer()

        class RacingSock:
            """sendmsg that triggers a concurrent drop mid-call."""

            def fileno(self):
                return -1

            def sendmsg(self, window):
                server.drop_oldest(box["client"], 15)
                return 10  # kernel accepted exactly the first frame

        # queued first (enqueue's own write-through send fails on the
        # unconnected socket), then drained through the racing one
        client = self._client_with_queue(server, [
            (b"a" * 10, True), (b"b" * 10, True), (b"c" * 10, True),
        ])
        box = {"client": client}
        client.sock.close()
        client.sock = RacingSock()
        server._writable(client)
        # frame "a" was sent and accounted; "b" and "c" must still be
        # queued intact (the drop found nothing safely removable)
        assert client.frames_sent == 1
        assert client.head_offset == 0
        assert [bytes(v) for v, _d in client.write_queue] == \
            [b"b" * 10, b"c" * 10]
        assert client.queued_bytes == 20
        assert client.in_flight == 0
        server.close()

    def test_drop_notifies_blocked_queue_waiters(self):
        """Bytes freed by drop_oldest must wake wait_queue_below
        immediately, not only after the next socket write."""
        import time

        server = EventLoopServer()
        client = self._client_with_queue(server, [
            (b"a" * 100, True), (b"b" * 100, True),
        ])
        box = {}

        def waiter():
            box["ok"] = server.wait_queue_below(client, 150, timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)  # let the waiter block on the condition
        freed, _dropped = server.drop_oldest(client, 50)
        assert freed == 100
        thread.join(2)
        assert not thread.is_alive(), \
            "drop_oldest freed bytes but never notified waiters"
        assert box["ok"] is True
        server.close()


class TestPoller:
    def test_wake_interrupts_poll(self):
        poller = Poller()
        box = {}

        def waiter():
            box["ready"] = poller.poll(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        poller.wake()
        thread.join(5)
        assert not thread.is_alive()
        assert box["ready"] == []  # wakeups are drained, not surfaced
        poller.close()


class TestIterFrames:
    def test_partial_then_complete(self):
        raw = data(b"abc").encode() + data(b"defg").encode()
        buf = bytearray(raw[:5])
        assert list(iter_frames(buf)) == []
        buf.extend(raw[5:])
        frames = list(iter_frames(buf))
        assert [f.payload for f in frames] == [b"abc", b"defg"]
        assert not buf

    def test_oversized_raises(self):
        buf = bytearray((1 << 20).to_bytes(4, "big"))
        with pytest.raises(FrameTooLargeError):
            list(iter_frames(buf, max_frame_len=1024))


class TestObsRetire:
    """Closing a server folds its counter totals into the persistent
    process-wide metrics, so a scrape taken after the server object is
    garbage-collected still shows its frame history (the live-sampling
    collector is a weakref and dies with the server)."""

    @staticmethod
    def _series_value(name, labels):
        from repro.obs.registry import REGISTRY
        entry = REGISTRY.snapshot().get(name)
        for series in (entry or {}).get("series", ()):
            if series["labels"] == labels:
                return series["value"]
        return 0

    def test_close_folds_totals_past_gc(self):
        import gc
        out = {"direction": "out"}
        before = self._series_value("repro_transport_frames_total", out)
        server, _handler = echo_server()
        with server:
            ch = TCPChannel.connect(server.host, server.port)
            ch.send(data(b"ping"))
            assert ch.recv(timeout=5).payload == b"ping"
            ch.close()
        server = None
        gc.collect()  # weakref collector is gone; fold must remain
        after = self._series_value("repro_transport_frames_total", out)
        assert after >= before + 1

    def test_second_close_does_not_double_fold(self):
        out = {"direction": "out"}
        server, _handler = echo_server()
        with server:
            ch = TCPChannel.connect(server.host, server.port)
            ch.send(data(b"ping"))
            assert ch.recv(timeout=5).payload == b"ping"
            ch.close()
        folded = self._series_value("repro_transport_frames_total", out)
        server.close()
        assert self._series_value(
            "repro_transport_frames_total", out) == folded

    def test_live_server_not_pre_folded(self):
        accepted = {"event": "clients_accepted"}
        server, _handler = echo_server()
        with server:
            ch = TCPChannel.connect(server.host, server.port)
            ch.send(data(b"ping"))
            assert ch.recv(timeout=5).payload == b"ping"
            # while alive the collector reports; snapshots must not
            # also include a folded copy (that would double-count)
            live = self._series_value("repro_transport_events_total",
                                      accepted)
            ch.close()
        closed = self._series_value("repro_transport_events_total",
                                    accepted)
        assert closed == live


class TestForkSafety:
    """Shard workers must never inherit another shard's sockets."""

    @pytest.mark.timeout(30)
    def test_all_live_fds_are_cloexec(self):
        import fcntl

        server, _handler = echo_server()
        server.start()
        try:
            with socket.create_connection(
                    (server.host, server.port)) as sock:
                sock.sendall(data(b"ping").encode())
                deadline = 50
                while server.client_count == 0 and deadline:
                    threading.Event().wait(0.05)
                    deadline -= 1
                fds = server.live_fds()
                # wake pair (2) + listener + the accepted client
                assert len(fds) >= 4
                for fd in fds:
                    flags = fcntl.fcntl(fd, fcntl.F_GETFD)
                    assert flags & fcntl.FD_CLOEXEC, \
                        f"fd {fd} missing FD_CLOEXEC"
                    assert not os.get_inheritable(fd)
        finally:
            server.close()

    @pytest.mark.timeout(30)
    def test_adopted_socket_is_cloexec_and_served(self):
        import fcntl

        server, _handler = echo_server(listen=False)
        server.start()
        try:
            ours, theirs = socket.socketpair()
            assert server.adopt(theirs, ("adopted", 0))
            ours.sendall(data(b"hello-adopted").encode())
            ours.settimeout(5)
            buf = bytearray()
            while not list(iter_frames(bytearray(buf))):
                chunk = ours.recv(4096)
                assert chunk, "server closed adopted socket"
                buf.extend(chunk)
            frames = list(iter_frames(buf))
            assert frames[0].payload == b"hello-adopted"
            for fd in server.live_fds():
                assert fcntl.fcntl(fd, fcntl.F_GETFD) & \
                    fcntl.FD_CLOEXEC
            ours.close()
        finally:
            server.close()

    @pytest.mark.timeout(30)
    def test_adopt_after_teardown_refuses_and_closes(self):
        server, _handler = echo_server(listen=False)
        server.start()
        server.close()
        ours, theirs = socket.socketpair()
        try:
            assert not server.adopt(theirs)
            assert theirs.fileno() == -1, \
                "refused adoption must close the socket"
        finally:
            ours.close()
