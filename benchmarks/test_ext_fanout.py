"""Extension experiment — server fan-out cost per client, on sockets.

Section 1 motivates binary transport with "server-based applications
in which single servers must provide information to large numbers of
clients", where "scalability to many information clients ... implies
the need to reduce per-client or per-source processing".  Three
strategies for broadcasting one event stream to N loopback-socket
subscribers:

* ``encode-once``      — :class:`BroadcastPublisher`: marshal once,
  queue the same frame bytes to every client, drain with
  scatter-gather writes from one event-loop thread;
* ``encode-per-client`` — marshal the record N times and ``sendall``
  each copy (what naive per-connection APIs do);
* ``xml-per-client``    — XML marshal N times (text protocols cannot
  share encodings across clients that renegotiate formatting).

The sweep lands in ``BENCH_fanout.json`` (written by
``conftest.pytest_sessionfinish``); ``benchmarks/check_gates.py``
enforces the acceptance shape — encode-once per-client cost stays
roughly flat from N=1 to N=128 while the per-client strategies pay
full marshaling for every subscriber — as a separate CI step.  Each
run also records how many records its context encoded, so the same
step checks encode-once by counter: ``messages`` at every N for the
broadcast, ``messages × clients`` for encode-per-client.
In-test assertions use looser margins so machine noise cannot flake
the suite.
"""

from __future__ import annotations

import selectors
import socket
import time

import pytest

from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import BroadcastPublisher
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import TCPChannel, TCPListener
from repro.wire import XMLWireCodec

FANOUT = [1, 8, 32, 128]
MESSAGES = 200
EVENT = {"centerID": "ZTL", "airline": "DAL", "flightNum": 1023,
         "off": 987654321}
SPECS = [("centerID", "string"), ("airline", "string"),
         ("flightNum", "integer", 4), ("off", "unsigned integer", 8)]

pytestmark = pytest.mark.timeout(600)


def _context() -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    ctx.register_layout("ASDOffEvent", SPECS)
    return ctx


class _Drainer:
    """One selector thread that reads and discards everything arriving
    on the subscriber ends, so sender-side cost is what's measured."""

    def __init__(self) -> None:
        import threading
        self._selector = selectors.DefaultSelector()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="fanout-drainer")
        self.bytes_drained = 0

    def watch(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ)

    def start(self) -> "_Drainer":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            for key, _events in self._selector.select(0.05):
                try:
                    while True:
                        chunk = key.fileobj.recv(1 << 16)
                        if not chunk:
                            self._selector.unregister(key.fileobj)
                            break
                        self.bytes_drained += len(chunk)
                except BlockingIOError:
                    continue
                except OSError:
                    try:
                        self._selector.unregister(key.fileobj)
                    except (KeyError, ValueError):
                        pass

    def close(self) -> None:
        self._stop.set()
        self._thread.join(5)
        self._selector.close()


def _measure_encode_once(clients: int,
                         messages: int) -> tuple[float, int]:
    ctx = _context()
    pub = BroadcastPublisher(ctx, policy="block",
                             max_queue_bytes=16 * 1024 * 1024).start()
    drainer = _Drainer()
    socks = [socket.create_connection((pub.host, pub.port))
             for _ in range(clients)]
    for sock in socks:
        drainer.watch(sock)
    drainer.start()
    try:
        assert pub.wait_for_subscribers(clients, timeout=10)
        publish = pub.publish
        start = time.perf_counter()
        for _ in range(messages):
            publish("ASDOffEvent", EVENT)
        assert pub.flush(timeout=60)
        elapsed = time.perf_counter() - start
    finally:
        pub.close()
        drainer.close()
        for sock in socks:
            sock.close()
    return elapsed, ctx.stats.as_dict()["records_encoded"]


def _per_client_channels(clients: int, drainer: _Drainer):
    listener = TCPListener()
    channels = []
    for _ in range(clients):
        channels.append(TCPChannel.connect(listener.host,
                                           listener.port))
        drainer.watch(listener.accept(timeout=5)._sock)
    listener.close()
    return channels


def _measure_encode_per_client(clients: int,
                               messages: int) -> tuple[float, int]:
    ctx = _context()
    drainer = _Drainer()
    channels = _per_client_channels(clients, drainer)
    drainer.start()
    try:
        encode = ctx.encode
        start = time.perf_counter()
        for _ in range(messages):
            for channel in channels:
                channel.send(Frame(FrameType.DATA,
                                   encode("ASDOffEvent", EVENT)))
        elapsed = time.perf_counter() - start
    finally:
        for channel in channels:
            channel.close()
        drainer.close()
    return elapsed, ctx.stats.as_dict()["records_encoded"]


def _measure_xml_per_client(clients: int,
                            messages: int) -> tuple[float, int]:
    ctx = _context()
    codec = XMLWireCodec(ctx.lookup_format("ASDOffEvent"))
    drainer = _Drainer()
    channels = _per_client_channels(clients, drainer)
    drainer.start()
    try:
        encode = codec.encode
        start = time.perf_counter()
        for _ in range(messages):
            for channel in channels:
                channel.send(Frame(FrameType.DATA, encode(EVENT)))
        elapsed = time.perf_counter() - start
    finally:
        for channel in channels:
            channel.close()
        drainer.close()
    return elapsed, ctx.stats.as_dict()["records_encoded"]


_STRATEGIES = {
    "encode_once": _measure_encode_once,
    "encode_per_client": _measure_encode_per_client,
    "xml_per_client": _measure_xml_per_client,
}


def test_fanout_sweep_recorded(bench_json):
    """Run the three strategies across the subscriber sweep, record
    the numbers for the CI gate, and assert conservative shapes."""
    for name, measure in _STRATEGIES.items():
        rows = {}
        for clients in FANOUT:
            # one throwaway warm round so compiled plans, the XML
            # serializer and the TCP stacks are all hot before timing
            measure(clients, 10)
            elapsed, encoded = measure(clients, MESSAGES)
            rows[str(clients)] = {
                "clients": clients,
                "messages": MESSAGES,
                "records_encoded": encoded,
                "total_s": elapsed,
                "per_message_us": elapsed / MESSAGES * 1e6,
                "per_client_us":
                    elapsed / (MESSAGES * clients) * 1e6,
            }
        bench_json["BENCH_fanout.json"][name] = rows

    once = bench_json["BENCH_fanout.json"]["encode_once"]
    per_client = bench_json["BENCH_fanout.json"]["encode_per_client"]
    xml = bench_json["BENCH_fanout.json"]["xml_per_client"]

    # Encode-once amortizes marshaling: per-client cost must not grow
    # meaningfully with N (gate: 2x; in-test: 3x against noise).
    flat = [once[str(n)]["per_client_us"] for n in FANOUT]
    assert max(flat) <= 3.0 * flat[0], flat

    # Per-client marshaling strategies pay for every subscriber: at
    # scale the XML broadcast must cost several times encode-once.
    n_max = str(FANOUT[-1])
    assert xml[n_max]["total_s"] > 2.0 * once[n_max]["total_s"]
    assert per_client[n_max]["total_s"] > once[n_max]["total_s"]


@pytest.mark.benchmark(group="ext-fanout")
def test_ext_fanout_encode_once_sockets(benchmark):
    """pytest-benchmark row: encode-once broadcast to 32 subscribers."""
    benchmark.pedantic(
        lambda: _measure_encode_once(32, 50), rounds=3, iterations=1)


@pytest.mark.benchmark(group="ext-fanout")
def test_ext_fanout_encode_per_client_sockets(benchmark):
    benchmark.pedantic(
        lambda: _measure_encode_per_client(32, 50), rounds=3,
        iterations=1)


@pytest.mark.benchmark(group="ext-fanout")
def test_ext_fanout_xml_per_client_sockets(benchmark):
    benchmark.pedantic(
        lambda: _measure_xml_per_client(32, 50), rounds=3,
        iterations=1)
