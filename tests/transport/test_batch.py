"""Batched record streaming: DATA_BATCH frames end to end."""

import threading

from repro.errors import TransportError
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import X86_64
from repro.transport.connection import Connection
from repro.transport.inproc import channel_pair

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]


def make_pair(shared_server: bool = True):
    a_ch, b_ch = channel_pair()
    if shared_server:
        server = FormatServer()
        actx = IOContext(architecture=X86_64, format_server=server)
        bctx = IOContext(architecture=X86_64, format_server=server)
    else:
        actx = IOContext(architecture=X86_64,
                         format_server=FormatServer())
        bctx = IOContext(architecture=X86_64,
                         format_server=FormatServer())
    return Connection(actx, a_ch), Connection(bctx, b_ch)


def records(n):
    return [{"timestep": i, "data": [float(i), float(i) + 0.5]}
            for i in range(n)]


class TestSendMany:
    def test_batch_delivered_through_per_record_receive(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        sent = a.send_many("SimpleData", records(4))
        assert sent == 4
        got = [b.receive(timeout=5) for _ in range(4)]
        assert [m.record["timestep"] for m in got] == [0, 1, 2, 3]
        assert got[2].record["data"] == [2.0, 2.5]
        assert all(m.format_name == "SimpleData" for m in got)
        assert b.records_received == 4

    def test_batch_is_one_frame(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        before = a.channel.frames_sent
        a.send_many("SimpleData", records(16))
        assert a.channel.frames_sent == before + 1
        assert a.records_sent == 16

    def test_receive_many_returns_whole_batch(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        a.send_many("SimpleData", records(5))
        batch = b.receive_many(timeout=5)
        assert [m.record["timestep"] for m in batch] == [0, 1, 2, 3, 4]
        assert b.records_received == 5

    def test_receive_many_wraps_single_record(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        a.send("SimpleData", {"timestep": 7, "data": []})
        batch = b.receive_many(timeout=5)
        assert len(batch) == 1
        assert batch[0].record["timestep"] == 7

    def test_empty_batch_is_skipped(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        a.send_many("SimpleData", [])
        a.send("SimpleData", {"timestep": 9, "data": []})
        msg = b.receive(timeout=5)
        assert msg.record["timestep"] == 9

    def test_receive_many_none_on_close(self):
        a, b = make_pair()
        a.close()
        assert b.receive_many(timeout=5) is None

    def test_batch_and_singles_stay_ordered(self):
        a, b = make_pair()
        a.context.register_layout("SimpleData", SPECS)
        a.send("SimpleData", {"timestep": 0, "data": []})
        a.send_many("SimpleData",
                    [{"timestep": 1, "data": []},
                     {"timestep": 2, "data": []}])
        a.send("SimpleData", {"timestep": 3, "data": []})
        got = [b.receive(timeout=5).record["timestep"]
               for _ in range(4)]
        assert got == [0, 1, 2, 3]


class TestNegotiation:
    def test_one_negotiation_covers_whole_batch(self):
        a, b = make_pair(shared_server=False)
        a.context.register_layout("SimpleData", SPECS)
        results = []
        got_all = threading.Event()

        # nothing here waits on a timer: the batch's arrival sets
        # got_all, a.close() ends the receiver and b.close() the
        # pump; every timeout is a backstop only a real fault reaches
        def receiver():
            while True:
                msg = b.receive(timeout=60)
                if msg is None:
                    break
                results.append(msg)
                if len(results) == 6:
                    got_all.set()

        def pump():
            # a services b's FMT_REQ from inside its own receive()
            try:
                a.receive(timeout=60)
            except TransportError:
                pass

        rt = threading.Thread(target=receiver, daemon=True)
        pt = threading.Thread(target=pump, daemon=True)
        rt.start()
        pt.start()
        a.send_many("SimpleData", records(6))
        assert got_all.wait(20), "batch never arrived"
        a.close()
        rt.join(10)
        b.close()
        pt.join(10)
        assert not rt.is_alive() and not pt.is_alive()
        assert len(results) == 6
        assert b.negotiations == 1
