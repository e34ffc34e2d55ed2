"""The send floor of a fan-out: one frame ``sendall``-ed to each of N
loopback TCP sockets by a bare Python loop, drained by one child
process.

No framing, no queue, no lock, no policy: what is left is the syscall
and the loop around it, so a server's ``per_client_us`` over this
``floor_us`` is the Python it spends per subscriber above the send.
``benchmarks/test_ext_fanout_sharded.py`` records both, measured in the
same run, in ``BENCH_fanout_sharded.json``.

Usage (the child side, started by :func:`floor_us`)::

    python -m benchmarks.fanout_floor PORT CLIENTS
"""

from __future__ import annotations

import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def drain(port: int, clients: int) -> None:
    """Connect *clients* sockets to ``127.0.0.1:port`` and read each
    until EOF."""
    socks = [socket.create_connection(("127.0.0.1", port))
             for _ in range(clients)]
    selector = selectors.DefaultSelector()
    for sock in socks:
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ)
    buf = bytearray(1 << 16)
    left = clients
    while left:
        for key, _events in selector.select():
            try:
                got = key.fileobj.recv_into(buf)
            except BlockingIOError:
                continue
            if not got:
                selector.unregister(key.fileobj)
                key.fileobj.close()
                left -= 1
    selector.close()


def floor_us(clients: int, frame: bytes, messages: int) -> float:
    """Microseconds per client per message for ``messages`` rounds of
    ``sendall(frame)`` to each of *clients* sockets (after one warm
    round)."""
    listener = socket.create_server(("127.0.0.1", 0), backlog=clients)
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.fanout_floor",
         str(listener.getsockname()[1]), str(clients)], cwd=ROOT)
    socks = []
    try:
        listener.settimeout(60)
        socks = [listener.accept()[0] for _ in range(clients)]
        for sock in socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(frame)
        start = time.perf_counter()
        for _ in range(messages):
            for sock in socks:
                sock.sendall(frame)
        elapsed = time.perf_counter() - start
    finally:
        for sock in socks:
            sock.close()
        listener.close()
        try:
            code = child.wait(60)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
        if code != 0:
            raise RuntimeError(f"floor drainer exited {code}")
    return elapsed / (messages * clients) * 1e6


if __name__ == "__main__":
    drain(int(sys.argv[1]), int(sys.argv[2]))
