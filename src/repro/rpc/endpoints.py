"""RPC endpoints over transport channels.

:class:`RPCServer` dispatches incoming calls to registered handlers;
:class:`RPCClient` issues synchronous calls.  Both are parameterized
by a protocol codec (:class:`~repro.rpc.xmlwire.XMLRPCCodec` or
:class:`~repro.rpc.binwire.BinaryRPCCodec`), so an application can
switch wire formats without touching handler code — the same
separation of metadata from mechanism the rest of the library
practices.

Wire envelope (inside transport DATA frames)::

    u8 kind (1=call, 2=reply, 3=fault) | u32 id | u16 len | method | payload

The method name rides in the envelope for both protocols so replies
can be validated; ``id`` correlates replies on pipelined connections.
"""

from __future__ import annotations

import itertools
import struct
import threading
from typing import Callable

from repro.errors import ProtocolError, WireFormatError
from repro.transport.base import Channel
from repro.transport.messages import Frame, FrameType

_ENVELOPE = struct.Struct(">BIH")
_CALL, _REPLY, _FAULT = 1, 2, 3


class RPCFault(Exception):
    """A remote handler failed; carries the peer's fault record."""

    def __init__(self, code: int, message: str) -> None:
        self.code = code
        self.message = message
        super().__init__(f"RPC fault {code}: {message}")


def _pack(kind: int, call_id: int, method: str,
          payload: bytes) -> bytes:
    name = method.encode("utf-8")
    return _ENVELOPE.pack(kind, call_id, len(name)) + name + payload


def _unpack(data: bytes) -> tuple[int, int, str, bytes]:
    if len(data) < _ENVELOPE.size:
        raise ProtocolError("truncated RPC envelope")
    kind, call_id, name_len = _ENVELOPE.unpack_from(data)
    start = _ENVELOPE.size
    # over TCP a large DATA payload is a view of the frame's buffer
    name = bytes(data[start:start + name_len]).decode("utf-8")
    return kind, call_id, name, bytes(data[start + name_len:])


Handler = Callable[[dict], dict]


class RPCServer:
    """Dispatches calls arriving on a channel to named handlers."""

    def __init__(self, codec, channel: Channel) -> None:
        self.codec = codec
        self.channel = channel
        self._handlers: dict[str, Handler] = {}
        self.calls_served = 0
        self.faults_returned = 0

    def register(self, method: str, handler: Handler) -> None:
        self._handlers[method] = handler

    def serve_one(self, timeout: float | None = None) -> bool:
        """Handle one call; False when the channel closed."""
        frame = self.channel.recv(timeout)
        if frame is None:
            return False
        if frame.type != FrameType.DATA:
            return True  # ignore HELLO/BYE noise
        kind, call_id, method, payload = _unpack(frame.payload)
        if kind != _CALL:
            raise ProtocolError(f"server received kind {kind}")
        try:
            handler = self._handlers.get(method)
            if handler is None:
                raise LookupError(f"no such method {method!r}")
            wire_method, params = self.codec.decode_call(payload)
            if wire_method != method:
                raise WireFormatError(
                    f"envelope says {method!r}, payload says "
                    f"{wire_method!r}")
            result = handler(params)
            reply = self.codec.encode_reply(method, result)
            self.channel.send(Frame(FrameType.DATA,
                                    _pack(_REPLY, call_id, method,
                                          reply)))
            self.calls_served += 1
        except Exception as exc:
            fault = self.codec.encode_fault(1, f"{type(exc).__name__}: "
                                               f"{exc}")
            self.channel.send(Frame(FrameType.DATA,
                                    _pack(_FAULT, call_id, method,
                                          fault)))
            self.faults_returned += 1
        return True

    def serve_forever(self, timeout: float | None = None) -> None:
        while self.serve_one(timeout):
            pass

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever,
                                  daemon=True, name="rpc-server")
        thread.start()
        return thread


class RPCClient:
    """Synchronous caller."""

    def __init__(self, codec, channel: Channel) -> None:
        self.codec = codec
        self.channel = channel
        self._ids = itertools.count(1)

    def call(self, method: str, params: dict,
             timeout: float | None = 30.0) -> dict:
        call_id = next(self._ids)
        payload = self.codec.encode_call(method, params)
        self.channel.send(Frame(FrameType.DATA,
                                _pack(_CALL, call_id, method,
                                      payload)))
        while True:
            frame = self.channel.recv(timeout)
            if frame is None:
                raise ProtocolError(
                    "connection closed awaiting RPC reply")
            if frame.type != FrameType.DATA:
                continue
            kind, reply_id, reply_method, body = _unpack(frame.payload)
            if reply_id != call_id:
                continue  # stale reply from an abandoned call
            if reply_method != method:
                raise ProtocolError(
                    f"reply names method {reply_method!r}, "
                    f"expected {method!r}")
            result = self.codec.decode_reply(method, body)
            if isinstance(result, dict) and "__fault__" in result:
                detail = result["__fault__"]
                raise RPCFault(int(detail.get("faultCode", 0)),
                               str(detail.get("faultString", "")))
            if kind == _FAULT:
                raise RPCFault(0, "peer signalled fault")
            return result

    def close(self) -> None:
        self.channel.close()
