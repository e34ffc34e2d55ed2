"""Frame encoding for the transport protocol.

Every frame is ``u32 length (big-endian) | u8 type | payload``; the
length covers type byte plus payload.  Frame types:

==========  =====================================================
DATA        a PBIO wire record (header + body)
FMT_REQ     payload = 8-byte format ID the sender cannot resolve
FMT_RSP     payload = 8-byte format ID + canonical format metadata
HELLO       connection greeting (payload = architecture name)
BYE         orderly shutdown
STATS_REQ   ask the peer for its telemetry snapshot (empty payload)
STATS_RSP   payload = UTF-8 JSON telemetry snapshot
LIN_REQ     lineage handshake: the digests the sender can decode
LIN_RSP     lineage handshake reply: the negotiated digest + chain
SHARD       publisher <-> shard worker control (``u8 sub-kind | body``)
==========  =====================================================

The lineage handshake (``docs/EVOLUTION.md``) rides on two frames:

``LIN_REQ``  ``u8 name_len | name utf-8 | u8 n (>=1) | n x 8B digests``
             — "for format *name*, here are the versions I hold
             native bindings for, oldest first".
``LIN_RSP``  ``u8 name_len | name utf-8 | u8 ok | 8B chosen |
             u8 m | m x 8B chain`` — ``ok=1``: *chosen* is the newest
             mutually-decodable digest (and appears in *chain*, the
             responder's full lineage oldest-first); ``ok=0``: no
             common version, *chosen* is eight zero bytes.

Both payloads are bounds-checked on decode; anything malformed raises
:class:`~repro.errors.ProtocolError` (never a crash), matching the
untrusted-wire posture of the rest of the protocol.
"""

from __future__ import annotations

import enum
import mmap
import struct
from dataclasses import dataclass

from repro.errors import FrameTooLargeError, ProtocolError
from repro.obs import runtime as _obs
from repro.obs.metrics import MALFORMED_FRAMES
from repro.pbio.format import FormatID

_PREFIX = struct.Struct(">IB")  # length (type byte + payload) | type
_LEN = struct.Struct(">I")
MAX_FRAME = 256 * 1024 * 1024  # defensive cap
_WINDOW = 4 + 64 * 1024  # a FrameReader's window: 64 KiB frames whole

_DIGEST_LEN = 8
_NULL_DIGEST = b"\x00" * _DIGEST_LEN
#: u8 count fields bound both the offered-version list and the chain
MAX_LINEAGE_DIGESTS = 255


class FrameType(enum.IntEnum):
    DATA = 1
    FMT_REQ = 2
    FMT_RSP = 3
    HELLO = 4
    BYE = 5
    # format-server service protocol (repro.pbio.remote_server)
    FMT_REG = 6   # payload = canonical metadata to register
    FMT_ACK = 7   # payload = 8-byte assigned format ID
    FMT_ERR = 8   # payload = UTF-8 error message
    # 9 is retired (shared-header record batches): unknown, not reused
    # live telemetry (repro.obs): snapshot over the data channel
    STATS_REQ = 10  # empty payload: request a telemetry snapshot
    STATS_RSP = 11  # payload = UTF-8 JSON snapshot + publisher stats
    # lineage-aware version negotiation (repro.pbio.lineage)
    LIN_REQ = 12  # payload = name + digests the sender can decode
    LIN_RSP = 13  # payload = name + negotiated digest + full chain
    # sharded broadcast control plane (repro.transport.sharded); only
    # ever valid on a worker's control socket, never from a subscriber
    SHARD = 14    # payload = u8 sub-kind + body


@dataclass(slots=True)
class Frame:
    """One transport frame, built once each way per message: a plain
    two-slot class.  Outbound, ``payload`` may be a tuple of buffers (a
    record's wire parts, sent unjoined); inbound, a large DATA payload
    may be a read-only ``memoryview`` of the frame's private receive
    buffer.  Otherwise it is ``bytes``."""

    type: FrameType
    payload: bytes | memoryview | tuple

    def buffers(self) -> list:
        """The frame as it goes on the wire, unjoined:
        ``[5-byte prefix, *payload parts]``."""
        parts = self.payload
        if type(parts) is not tuple:
            parts = (parts,)
        size = len(parts[0]) if len(parts) == 1 else sum(map(len, parts))
        return [_PREFIX.pack(size + 1, self.type), *parts]

    def encode(self) -> bytes:
        return b"".join(self.buffers())


def frame_bytes(ftype: int, *parts: bytes) -> bytes:
    """Assemble one wire frame from payload *parts* in a single join.

    The broadcast fan-out path encodes a record as (header, body)
    parts and frames them here without first concatenating a payload —
    one copy for the whole frame instead of one per layer.
    """
    total = len(parts[0]) if len(parts) == 1 else sum(map(len, parts))
    return b"".join((_PREFIX.pack(total + 1, ftype),) + parts)


def count_malformed(layer: str, reason: str) -> None:
    """Record one wire input rejected by *layer*; a peer sending
    garbage is an observable event, not a reason to tear the endpoint
    (or, on a server, anyone but the offending client) down."""
    if _obs.enabled:
        MALFORMED_FRAMES.labels(layer, reason).inc()


class _FrameTypes(dict):
    """Type byte -> :class:`FrameType`; any other byte is a
    :class:`~repro.errors.ProtocolError` (a hit stays a C lookup)."""

    def __missing__(self, code: int):
        raise ProtocolError(f"unknown frame type {code}")


FRAME_TYPES = _FrameTypes((ftype.value, ftype) for ftype in FrameType)


ZERO_LENGTH = "zero-length frame"  # the message, for counting it


def frame_length_error(length: int, limit: int) -> ProtocolError:
    """What every receiver raises for a length prefix not in 1..limit."""
    return (FrameTooLargeError(length, limit) if length
            else ProtocolError(ZERO_LENGTH))


def decode_frame(data: bytes) -> Frame:
    """Decode one framed message (length prefix already stripped)."""
    if not data:
        raise ProtocolError("empty frame")
    return Frame(FRAME_TYPES[data[0]], bytes(data[1:]))


class FrameReader:
    """The one length-prefix reassembler, behind ``TCPChannel``, each
    event-loop client (a shard worker's control socket is one) and the
    sharded publisher's control loop: the caller reads
    into the space :meth:`fill` offers, then takes whole frames.

    Bytes land in a 64 KiB + 4 B **window** (an anonymous private
    ``mmap``, mapped by the first read; only pages written take RAM)
    between cursors ``lo`` and ``hi``, so a frame of up to 64 KiB
    leaves it in one copy; one that would run past the end is first
    moved to the front.  A larger frame's payload gets a private buffer
    (decoded arrays alias it) that starts at the payload length halved
    towards the bytes in hand and only doubles when full: never over
    twice what the peer really sent, whatever the prefix claimed.
    """

    __slots__ = ("_window", "_view", "_lo", "_hi", "_frame", "_have",
                 "_size")

    def __init__(self) -> None:
        self._window: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._lo = self._hi = 0
        #: a large frame's own buffer, payload bytes in it, payload size
        self._frame: bytearray | None = None
        self._have = self._size = 0

    def fill(self, read) -> int:
        """``read(space)``, a ``recv_into``: its byte count, 0 at EOF."""
        frame = self._frame
        if frame is not None:
            if self._have == len(frame):
                frame *= 2
            with memoryview(frame) as view, \
                    view[self._have:self._size] as space:
                got = read(space)
            self._have += got
            return got
        if self._window is None:
            self._window = mmap.mmap(-1, _WINDOW, mmap.MAP_PRIVATE)
            self._view = memoryview(self._window)
        got = read(self._view[self._hi:] if self._hi else self._window)
        self._hi += got
        return got

    def pop(self, limit: int) -> tuple[int, bytes | memoryview] | None:
        """The next whole frame as ``(type byte, payload)``, else None;
        a large frame's payload is a read-only view of its buffer."""
        window, lo, hi = self._window, self._lo, self._hi
        if self._frame is not None:
            if self._have < self._size:
                return None
            payload = memoryview(self._frame)[:self._size].toreadonly()
            self._frame = None
            self._lo = self._hi = 0
            return window[lo + 4], payload
        need = 4
        if hi - lo >= 4:
            (length,) = _LEN.unpack_from(window, lo)
            if not 0 < length <= limit:
                raise frame_length_error(length, limit)
            end = lo + 4 + length
            if end <= hi:
                self._lo, self._hi = (0, 0) if end == hi else (end, hi)
                return window[lo + 4], window[lo + 5:end]
            if length <= _WINDOW - 4:
                need = 4 + length
            elif hi - lo < 5:
                need = 5
            else:  # the head that came with the prefix moves over
                size = room = length - 1
                while (room + 1) // 2 >= max(hi - lo - 5, _WINDOW - 4):
                    room = (room + 1) // 2
                self._frame = bytearray(room)
                self._frame[:hi - lo - 5] = self._view[lo + 5:hi]
                self._have, self._size, self._hi = hi - lo - 5, size, lo + 5
                return None
        if lo + need > _WINDOW:
            window.move(0, lo, hi - lo)
            self._lo, self._hi = 0, hi - lo
        return None

    def frame(self, limit: int) -> Frame | None:
        """:meth:`pop` as a :class:`Frame` (an unknown type raises);
        only a record, or a shard control frame carrying one, keeps a
        large payload as a view."""
        got = self.pop(limit)
        if got is None:
            return None
        ftype, payload = FRAME_TYPES[got[0]], got[1]
        if type(payload) is not bytes and ftype != FrameType.DATA \
                and ftype != FrameType.SHARD:
            payload = bytes(payload)
        return Frame(ftype, payload)

    def unread(self) -> bytes:
        """A copy of the bytes held, for another protocol's parser."""
        return self._window[self._lo:self._hi] if self._hi else b""

    def discard(self) -> None:
        self._lo = self._hi = 0


# -- lineage handshake payloads ---------------------------------------------

def _encode_name(name: str) -> bytes:
    encoded = name.encode("utf-8")
    if not encoded:
        raise ProtocolError("lineage handshake needs a format name")
    if len(encoded) > 255:
        raise ProtocolError(
            f"format name too long for handshake ({len(encoded)} bytes)")
    return bytes((len(encoded),)) + encoded


def _encode_digests(digests: tuple[FormatID, ...],
                    what: str) -> bytes:
    if len(digests) > MAX_LINEAGE_DIGESTS:
        raise ProtocolError(
            f"too many {what} digests ({len(digests)} > "
            f"{MAX_LINEAGE_DIGESTS})")
    return bytes((len(digests),)) + b"".join(
        fid.to_bytes() for fid in digests)


class _PayloadReader:
    """Cursor over an untrusted payload; every read is bounds-checked."""

    def __init__(self, payload: bytes, what: str) -> None:
        self._data = bytes(payload)
        self._pos = 0
        self._what = what

    def take(self, n: int, field: str) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise ProtocolError(
                f"{self._what}: truncated at {field} "
                f"(need {n} bytes, have {len(self._data) - self._pos})")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u8(self, field: str) -> int:
        return self.take(1, field)[0]

    def name(self) -> str:
        length = self.u8("name length")
        if length == 0:
            raise ProtocolError(f"{self._what}: empty format name")
        raw = self.take(length, "format name")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError(
                f"{self._what}: format name is not valid UTF-8"
            ) from None

    def digests(self, field: str) -> tuple[FormatID, ...]:
        count = self.u8(f"{field} count")
        return tuple(
            FormatID.from_bytes(self.take(_DIGEST_LEN, field))
            for _ in range(count))

    def done(self) -> None:
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{self._what}: {len(self._data) - self._pos} "
                f"trailing bytes after payload")


def encode_lineage_req(name: str, digests) -> bytes:
    """LIN_REQ payload: the versions of *name* the sender can decode
    natively, oldest first.  At least one digest is required."""
    digests = tuple(digests)
    if not digests:
        raise ProtocolError(
            "lineage request must offer at least one digest")
    return _encode_name(name) + _encode_digests(digests, "offered")


def decode_lineage_req(payload: bytes) -> tuple[str,
                                                tuple[FormatID, ...]]:
    """``(name, offered digests)`` from a LIN_REQ payload."""
    reader = _PayloadReader(payload, "lineage request")
    name = reader.name()
    offered = reader.digests("offered digest")
    if not offered:
        raise ProtocolError(
            "lineage request: no offered digests")
    reader.done()
    return name, offered


def encode_lineage_rsp(name: str, chosen: FormatID | None,
                       chain=()) -> bytes:
    """LIN_RSP payload.  *chosen* None means no common version (the
    ``ok=0`` form); otherwise *chosen* must appear in *chain* when a
    chain is sent."""
    chain = tuple(chain)
    if chosen is None:
        body = b"\x00" + _NULL_DIGEST
    else:
        if chain and chosen not in chain:
            raise ProtocolError(
                f"negotiated digest {chosen} is not in the "
                f"advertised chain")
        body = b"\x01" + chosen.to_bytes()
    return _encode_name(name) + body + _encode_digests(chain, "chain")


def lineage_reply(name: str, chosen: FormatID | None, chain) -> bytes:
    """The LIN_RSP payload a responder sends, under its one chain
    rule: a version negotiated outside the recorded lineage is
    announced with an empty chain."""
    if chosen is not None and chosen not in chain:
        chain = ()
    return encode_lineage_rsp(name, chosen, chain)


def decode_lineage_rsp(payload: bytes) \
        -> tuple[str, FormatID | None, tuple[FormatID, ...]]:
    """``(name, chosen or None, chain)`` from a LIN_RSP payload."""
    reader = _PayloadReader(payload, "lineage response")
    name = reader.name()
    ok = reader.u8("ok flag")
    if ok not in (0, 1):
        raise ProtocolError(
            f"lineage response: bad ok flag {ok}")
    raw_chosen = reader.take(_DIGEST_LEN, "chosen digest")
    chain = reader.digests("chain digest")
    reader.done()
    if ok == 0:
        if raw_chosen != _NULL_DIGEST:
            raise ProtocolError(
                "lineage response: ok=0 but chosen digest not zeroed")
        return name, None, chain
    chosen = FormatID.from_bytes(raw_chosen)
    if chain and chosen not in chain:
        raise ProtocolError(
            f"lineage response: chosen digest {chosen} missing "
            f"from advertised chain")
    return name, chosen, chain
