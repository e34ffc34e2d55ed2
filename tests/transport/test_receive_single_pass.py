"""One pass per message on the receive path.

``Connection.receive`` hands the frame payload to ``IOContext.decode``
unparsed: the context makes the only header pass, the connection
negotiates only when the context does not know the format, and the
object the application gets is the one the context built.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro.errors import UnknownFormatError, WireParseError
from repro.obs import runtime
from repro.obs.metrics import MALFORMED_FRAMES
from repro.pbio.context import DecodedRecord, IOContext
from repro.pbio.encode import FLAG_BATCH
from repro.pbio.format import FormatID
from repro.pbio.format_server import FormatServer
from repro.transport.connection import Connection, ReceivedMessage
from repro.transport.inproc import channel_pair
from repro.transport.messages import Frame, FrameType
from repro.transport.tcp import tcp_pair

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]
SPECS_V2 = SPECS + [("units", "string")]


def make_pair(*, shared_server: bool = True, channels=channel_pair):
    a_ch, b_ch = channels()
    a_server = FormatServer()
    b_server = a_server if shared_server else FormatServer()
    a = Connection(IOContext(format_server=a_server), a_ch)
    b = Connection(IOContext(format_server=b_server), b_ch)
    a.context.register_layout("SimpleData", SPECS)
    return a, b


def record(i: int) -> dict:
    return {"timestep": i, "data": [float(i)]}


class TestOneResultType:
    def test_received_message_is_decoded_record(self):
        assert ReceivedMessage is DecodedRecord

    def test_receive_returns_the_contexts_own_object(self):
        a, b = make_pair()
        built = []
        decode = b.context.decode

        def spy(wire, **kwargs):  # an instance attribute, as a tracer's
            built.append(decode(wire, **kwargs))
            return built[-1]

        b.context.decode = spy
        a.send("SimpleData", record(1))
        msg = b.receive(timeout=5)
        assert len(built) == 1 and msg is built[0]
        assert (msg.format_name, msg.record["data"]) == \
            ("SimpleData", [1.0])
        assert msg.format_id == \
            a.context.lookup_format("SimpleData").format_id

    def test_receive_many_wraps_nothing_either(self):
        a, b = make_pair()
        a.send_many("SimpleData", [record(i) for i in range(3)])
        a.send("SimpleData", record(3))
        batch, single = b.receive_many(timeout=5), \
            b.receive_many(timeout=5)
        assert [type(m) for m in batch + single] == [DecodedRecord] * 4
        assert [m.record["timestep"] for m in batch + single] == \
            [0, 1, 2, 3]
        assert b.records_received == 4


def _malformed_wires(wire: bytes) -> dict[str, bytes]:
    lying = bytearray(wire)
    struct.pack_into(">I", lying, 12, len(wire))  # body_len > bytes sent
    return {
        "short": wire[:10],
        "bad_magic": b"XX" + wire[2:],
        "bad_version": wire[:2] + b"\x09" + wire[3:],
        "lying_body_length": bytes(lying),
        "batch_flagged": wire[:3] + bytes([wire[3] | FLAG_BATCH])
        + wire[4:],
    }


class TestHeaderChecksSurviveTheSinglePass:
    @pytest.fixture(autouse=True)
    def _obs_on(self):
        saved = runtime.enabled
        runtime.enabled = True
        yield
        runtime.enabled = saved

    @pytest.mark.parametrize("case", ["short", "bad_magic", "bad_version",
                                      "lying_body_length",
                                      "batch_flagged"])
    @pytest.mark.parametrize("method", ["receive", "receive_as",
                                        "receive_many"])
    def test_rejected_with_the_same_type_and_counted_once(self, case,
                                                          method):
        a, b = make_pair()
        b.context.register_layout("SimpleData", SPECS)
        bad = _malformed_wires(
            a.context.encode("SimpleData", record(1)))[case]
        args = ("SimpleData",) if method == "receive_as" else ()
        counter = MALFORMED_FRAMES.labels("connection", "bad_record")
        before = counter.value
        a.channel.send(Frame(FrameType.DATA, bad))
        with pytest.raises(WireParseError) as caught:
            getattr(b, method)(*args, timeout=5)
        assert type(caught.value) is WireParseError
        assert counter.value == before + 1
        assert b.records_received == 0
        # a hostile record is an event, not the end of the endpoint
        a.send("SimpleData", record(2))
        assert b.receive(timeout=5).record["timestep"] == 2
        assert counter.value == before + 1


class TestNegotiateOnlyWhenUnknown:
    def test_one_fmt_req_in_order_delivery_and_no_invalidation(self):
        a, b = make_pair(shared_server=False)
        old_id = a.context.lookup_format("SimpleData").format_id
        # all five are on the wire before b asks for the metadata, so
        # four DATA frames overtake the FMT_RSP
        for i in range(5):
            a.send("SimpleData", record(i))
        pump = threading.Thread(
            target=lambda: a.receive(timeout=10))  # serves the FMT_REQ
        pump.start()
        try:
            got = [b.receive(timeout=5) for _ in range(5)]
            assert [m.record["timestep"] for m in got] == list(range(5))
            assert {m.format_id for m in got} == {old_id}
            assert b.negotiations == 1

            # the name moves on to other metadata on the receiver; ids
            # are content-addressed, so records still in flight under
            # the old id must decode through the same bound entry
            bound = b.context._bound["list"]
            entry = bound[old_id.to_bytes()]
            a.send("SimpleData", record(5))
            b.context.register_layout("SimpleData", SPECS)
            b.context.unregister("SimpleData")
            new = b.context.register_layout("SimpleData", SPECS_V2)
            assert new.format_id != old_id
            a.send("SimpleData", record(6))
            late = [b.receive(timeout=5) for _ in range(2)]
            assert [(m.format_id, m.record) for m in late] == [
                (old_id, {"timestep": 5, "size": 1, "data": [5.0]}),
                (old_id, {"timestep": 6, "size": 1, "data": [6.0]})]
            assert bound[old_id.to_bytes()] is entry
            assert b.negotiations == 1
        finally:
            b.close()
            pump.join(5)
        assert not pump.is_alive()

    def test_unknown_view_name_does_not_negotiate(self):
        a, b = make_pair()
        a.send("SimpleData", record(1))
        with pytest.raises(UnknownFormatError, match="NoSuchView"):
            b.receive_as("NoSuchView", timeout=5)
        assert b.negotiations == 0


class TestSteadyStateBuildsNoFormatID:
    @pytest.mark.parametrize("channels", [channel_pair, tcp_pair])
    def test_hundred_pairs_construct_zero_format_ids(self, channels,
                                                     monkeypatch):
        a, b = make_pair(channels=channels)
        try:
            for i in range(2):  # bind encoder and decoder
                a.send("SimpleData", record(i))
                b.receive(timeout=5)
            built = []
            post_init = FormatID.__post_init__

            def counting(self):
                built.append(self)
                post_init(self)

            monkeypatch.setattr(FormatID, "__post_init__", counting)
            for i in range(100):
                a.send("SimpleData", record(i))
                assert b.receive(timeout=5).record["timestep"] == i
            assert built == []
        finally:
            a.close()
            b.close()


class _CountingSocket:
    """A socket that counts ``settimeout`` calls."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.timeouts: list = []

    def settimeout(self, value) -> None:
        self.timeouts.append(value)
        self._sock.settimeout(value)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestBlockingModeIsSetOnce:
    def test_blocking_reads_set_the_mode_only_when_it_changes(self):
        a, b = tcp_pair()
        try:
            b._sock = sock = _CountingSocket(b._sock)
            for i in range(5):
                a.send(Frame(FrameType.DATA, b"x%d" % i))
                assert b.recv().payload == b"x%d" % i
            assert sock.timeouts == [None]
            a.send(Frame(FrameType.DATA, b"timed"))
            assert b.recv(timeout=5).payload == b"timed"
            a.send(Frame(FrameType.DATA, b"blocking again"))
            assert b.recv().payload == b"blocking again"
            assert sock.timeouts[0] is None and sock.timeouts[-1] is None
            assert len(sock.timeouts) == 3 and 0 < sock.timeouts[1] <= 5
        finally:
            a.close()
            b.close()
