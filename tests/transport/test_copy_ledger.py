"""Copy ledger of the Connection path over TCP: a large typed array
crosses user space once per direction — uncopied on send (wire parts +
``sendmsg``), once on receive (``recv_into`` a private frame buffer
the decoded array aliases)."""

import array
import socket
import threading
import tracemalloc

import numpy as np
import pytest

from repro.pbio.context import IOContext
from repro.pbio.encode import BULK_STATS
from repro.pbio.format_server import FormatServer
from repro.transport.connection import Connection
from repro.transport.eventloop import EventLoopServer
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import tcp_pair

CELLS = 256 * 1024  # float32 -> 1 MiB
GRID = [("step", "integer"), ("n", "integer"), ("cells", "float[n]", 4)]
SCALARS = [("step", "integer"), ("level", "float", 8)]


@pytest.fixture
def pair():
    server = FormatServer()
    client, peer = tcp_pair()
    tx = Connection(IOContext(format_server=server), client)
    rx = Connection(IOContext(format_server=server), peer,
                    arrays="numpy")
    tx.context.register_layout("Grid", GRID)
    tx.context.register_layout("Scalars", SCALARS)
    yield tx, rx
    tx.close()
    rx.close()


def exchange(tx, rx, name, record, after_send=lambda: None):
    """Send on this thread, receive on another (no reliance on the
    loopback buffers holding a whole frame with no reader)."""
    box = []
    reader = threading.Thread(
        target=lambda: box.append(rx.receive(timeout=10)))
    reader.start()
    tx.send(name, record)
    after_send()
    reader.join(10)
    assert not reader.is_alive() and box
    return box[0].record


def grid(step: int, value: float = 0.0) -> dict:
    cells = np.arange(CELLS, dtype=np.float32) + np.float32(value)
    return {"step": step, "n": CELLS, "cells": cells}


def spill_delta(before: dict) -> dict:
    return {key: value - before[key]
            for key, value in BULK_STATS.snapshot().items()}


def test_large_grid_spills_and_is_never_copied_by_the_codec(pair):
    tx, rx = pair
    record = grid(1)
    before = BULK_STATS.snapshot()
    got = exchange(tx, rx, "Grid", record)
    delta = spill_delta(before)
    assert delta["copied_bytes"] == 0 and delta["copied_arrays"] == 0
    assert delta["spilled_segments"] == 1
    assert delta["spilled_bytes"] == record["cells"].nbytes
    assert np.array_equal(got["cells"], record["cells"])
    assert tx.channel.bytes_sent >= record["cells"].nbytes


def test_allocation_peak_is_one_payload(pair):
    tx, rx = pair
    record = grid(1)
    exchange(tx, rx, "Grid", record)  # plans, pools, HELLO settled
    payload = record["cells"].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = exchange(tx, rx, "Grid", record)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got["n"] == CELLS
    assert peak <= 1.25 * payload, peak


def test_decoded_array_aliases_a_private_read_only_buffer(pair):
    tx, rx = pair
    first = exchange(tx, rx, "Grid", grid(1, 0.5))["cells"]
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert first.ctypes.data % first.itemsize == 0  # stays aligned
    expected = grid(1, 0.5)["cells"]
    later = [exchange(tx, rx, "Grid", grid(step, float(step)))["cells"]
             for step in (2, 3, 4)]
    assert np.array_equal(first, expected)
    for step, cells in zip((2, 3, 4), later):
        assert np.array_equal(cells, grid(step, float(step))["cells"])


def test_source_may_be_mutated_once_send_returns(pair):
    tx, rx = pair
    record = grid(7, 1.0)
    expected = record["cells"].copy()

    def scribble():  # the kernel already holds every byte
        record["cells"][:] = -1.0

    got = exchange(tx, rx, "Grid", record, after_send=scribble)
    assert record["cells"][0] == -1.0
    assert np.array_equal(got["cells"], expected)


@pytest.mark.parametrize("cells", [
    pytest.param(lambda: [float(i) for i in range(CELLS)], id="list"),
    pytest.param(lambda: array.array("f", bytes(1024)), id="small-typed"),
])
def test_lists_and_small_arrays_do_not_spill(pair, cells):
    tx, rx = pair
    values = cells()
    before = BULK_STATS.snapshot()
    got = exchange(tx, rx, "Grid", {"step": 1, "n": len(values),
                                    "cells": values})
    assert spill_delta(before)["spilled_segments"] == 0
    assert got["cells"].tolist() == list(values)


def test_all_scalar_record_does_not_spill(pair):
    tx, rx = pair
    before = BULK_STATS.snapshot()
    got = exchange(tx, rx, "Scalars", {"step": 3, "level": 2.5})
    assert spill_delta(before)["spilled_segments"] == 0
    assert got == {"step": 3, "level": 2.5}


def test_small_frame_receive_peaks_below_4_kib():
    """A 77-byte frame (``stream_small``'s) is read into the standing
    receive window: no per-read chunk, one payload copy."""
    a, b = tcp_pair()
    try:
        frame = Frame(FrameType.DATA, bytes(range(72)))  # 5 + 72 bytes
        a.send(frame)
        assert b.recv(timeout=5) == frame  # the window exists from here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a.send(frame)
            got = b.recv(timeout=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == frame
        assert peak < 4 * 1024, peak
    finally:
        a.close()
        b.close()


class _Inbox:
    """Event-loop handler that keeps every frame and counts arrivals."""

    def __init__(self) -> None:
        self.frames: list = []
        self.arrived = threading.Semaphore(0)

    def on_frame(self, client, frame) -> None:
        self.frames.append(frame)
        self.arrived.release()


def test_small_frame_server_side_receive_peaks_below_4_kib():
    """The server-side twin: an event-loop client's 77-byte frame is
    read into the client's standing window, not into a per-read chunk."""
    inbox = _Inbox()
    frame = Frame(FrameType.DATA, bytes(range(72)))
    wire = frame.encode()
    with EventLoopServer(handler=inbox) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        try:
            sock.sendall(wire)
            assert inbox.arrived.acquire(timeout=5)  # window mapped
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sock.sendall(wire)
                assert inbox.arrived.acquire(timeout=5)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        finally:
            sock.close()
    assert inbox.frames == [frame, frame]
    assert peak < 4 * 1024, peak
