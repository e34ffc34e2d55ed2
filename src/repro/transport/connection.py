"""Connection: PBIO records over a channel with on-demand metadata.

A :class:`Connection` binds an :class:`~repro.pbio.context.IOContext`
to a :class:`~repro.transport.base.Channel`.  Sending encodes a record
and ships a DATA frame.  Receiving hands the payload to the context
unparsed — the context makes the one pass over the record header — and
returns the context's own :class:`~repro.pbio.context.DecodedRecord`.
Only a format ID the context cannot resolve costs a FMT_REQ/FMT_RSP
exchange with the peer (the connection-establishment cost the paper
describes) and a second decode.

The receive loop also services the peer's FMT_REQ frames, so two
endpoints blocked in ``receive()``/negotiation cannot deadlock; DATA
frames that arrive while a metadata request is outstanding are queued
and delivered in order.
"""

from __future__ import annotations

from collections import deque

from repro.errors import (
    DecodeError, FormatRegistrationError, ProtocolError,
    TransportError, UnknownFormatError,
)
from repro.pbio.context import DecodedRecord, IOContext
from repro.pbio.encode import parse_header
from repro.pbio.evolution import down_converter
from repro.pbio.format import FormatID, IOFormat
from repro.transport.base import Channel
from repro.transport.messages import (
    Frame, FrameType, count_malformed, decode_lineage_req,
    decode_lineage_rsp, encode_lineage_req, lineage_reply,
)


def answer_lineage_request(format_server, payload: bytes,
                           layer: str) \
        -> tuple[str, FormatID | None, bytes]:
    """The LIN_REQ responder, whoever owns the socket: negotiate the
    newest mutually-decodable version of the requested name against
    *format_server* and count the outcome (and, when pinned, the
    chosen position in the chain).  Returns ``(name, chosen or None,
    LIN_RSP payload)``; the caller records the pin, then sends."""
    from repro.obs import runtime as _obs
    try:
        name, offered = decode_lineage_req(payload)
    except ProtocolError:
        count_malformed(layer, "bad_lin_req")
        raise
    chosen = format_server.negotiate(name, offered)
    chain = format_server.lineage(name)
    if _obs.enabled:
        from repro.obs.metrics import EVOLUTION_EVENTS, NEGOTIATED_VERSIONS
        if chosen is None:
            EVOLUTION_EVENTS.labels("no_common_version").inc()
        else:
            EVOLUTION_EVENTS.labels("negotiations").inc()
            NEGOTIATED_VERSIONS.labels(
                f"v{chain.index(chosen)}" if chosen in chain
                else "unversioned").inc()
    return name, chosen, lineage_reply(name, chosen, chain)


def encode_at_version(context: IOContext, fmt: IOFormat, source,
                      target: FormatID) -> tuple:
    """The one sender-side down-convert: *source* — a record, or on
    the relay path its wire bytes at *fmt* — as wire parts at *target*,
    the older lineage version a peer negotiated.  Both memos it needs
    are the process's own: the context's wire-format table resolves
    *target*, and :func:`~repro.pbio.evolution.down_converter` is the
    digest-keyed converter cache."""
    converter = down_converter(fmt, context._resolve_wire_format(target))
    if isinstance(source, (bytes, bytearray, memoryview)):
        return (converter.convert_wire(source),)
    return converter.encode_record_parts(source)


#: what a connection delivers: the object ``IOContext.decode`` built
ReceivedMessage = DecodedRecord

#: an enum member costs a class lookup per read; the hot path reads this
_DATA = FrameType.DATA


class Connection:
    """One endpoint of a structured-data exchange.

    ``arrays`` selects the numeric-array representation every receive
    decodes to (``"list"`` default, ``"numpy"``, or zero-copy read-only
    ``"view"`` — see :class:`~repro.pbio.decode.RecordDecoder`).  With
    ``"view"``, records alias the received frame bytes; each frame is a
    private buffer, so views stay valid for the record's lifetime.
    """

    def __init__(self, context: IOContext, channel: Channel, *,
                 arrays: str = "list") -> None:
        self.context = context
        self.channel = channel
        self.arrays = arrays
        self._pending: deque[bytes] = deque()
        self._closed = False
        self.negotiations = 0  # metadata round-trips performed
        self.records_sent = 0
        self.records_received = 0
        #: name -> version the *peer* negotiated down to (we are the
        #: sender; send_negotiated encodes at this version)
        self._peer_versions: dict[str, FormatID] = {}
        #: name -> version the peer announced it streams (we are the
        #: receiver; filled by negotiate_version and by unsolicited
        #: LIN_RSP re-announcements during a cutover)
        self.announced_versions: dict[str, FormatID] = {}
        channel.send(Frame(FrameType.HELLO,
                           context.architecture.name.encode("utf-8")))
        self.peer_architecture: str | None = None

    # -- sending ------------------------------------------------------------

    def send(self, format_name: str | IOFormat, record: dict) -> None:
        """Encode *record* under a locally registered format and send
        it as wire parts: a large typed array goes from the caller's
        buffer to the kernel uncopied, and is the caller's to mutate
        again as soon as this returns."""
        wire = self.context.encode(format_name, record, parts=True)
        self.channel.send(tuple.__new__(Frame, (_DATA, wire)))
        self.records_sent += 1

    def send_encoded(self, wire: bytes) -> None:
        """Send an already-encoded record (from
        :meth:`~repro.pbio.context.IOContext.encode`).

        Lets a server marshal once and fan the same bytes out to many
        clients — the per-client processing reduction the paper's
        intro motivates for "single servers [that] must provide
        information to large numbers of clients"."""
        # reject non-records (and lying body lengths) before they hit
        # peers
        parse_header(wire, require_body=True)
        self.channel.send(Frame(FrameType.DATA, wire))
        self.records_sent += 1

    # -- version negotiation -------------------------------------------------

    def negotiate_version(self, name: str,
                          timeout: float | None = None) \
            -> FormatID | None:
        """Lineage handshake (receiver side): offer every version of
        *name* this endpoint decodes natively, learn the newest one
        the peer will send.  Returns the negotiated digest, or None
        when the peer shares no decodable version.  DATA arriving
        while the handshake is in flight is queued, not dropped."""
        offered = self.context.decodable_versions(name)
        self.negotiations += 1
        self.channel.send(Frame(FrameType.LIN_REQ,
                                encode_lineage_req(name, offered)))
        while True:
            frame = self.channel.recv(timeout)
            if frame is None or frame.type == FrameType.BYE:
                raise TransportError(
                    "connection closed during version negotiation")
            if frame.type == FrameType.LIN_RSP:
                rsp_name, chosen, _chain = \
                    self._import_lineage_response(frame.payload)
                if rsp_name == name:
                    return chosen
                continue  # unrelated announcement, already recorded
            if frame.type == _DATA:
                self._pending.append(frame.payload)
                continue
            self._service(frame)

    def peer_version(self, name: str) -> FormatID | None:
        """The version of *name* the peer negotiated down to (None if
        the peer never sent a LIN_REQ for it)."""
        return self._peer_versions.get(name)

    def send_negotiated(self, format_name: str | IOFormat,
                        record: dict) -> None:
        """Send *record*, down-converted to the version the peer
        negotiated when that is older than our current binding.

        Without a prior LIN_REQ from the peer (or when the peer keeps
        pace with our newest version) this is exactly :meth:`send`;
        after a peer pinned itself to an ancestor version, the record
        goes through :func:`encode_at_version` and is shipped as
        old-version wire bytes the peer decodes natively.
        """
        fmt = (format_name if isinstance(format_name, IOFormat)
               else self.context.lookup_format(format_name))
        target = self._peer_versions.get(fmt.name)
        if target is None or target == fmt.format_id:
            self.send(fmt, record)
            return
        self.channel.send(Frame(_DATA, encode_at_version(
            self.context, fmt, record, target)))
        self.records_sent += 1

    # -- receiving ----------------------------------------------------------

    def receive(self, timeout: float | None = None) \
            -> ReceivedMessage | None:
        """Deliver the next application record (None on orderly close)."""
        frame = None if self._pending else self.channel.recv(timeout)
        if frame is not None and frame.type is _DATA:
            wire = frame.payload  # the steady state: one record
        elif frame is None and not self._pending:
            return None  # orderly close
        else:
            wire = self._next_wire(timeout, frame)
            if wire is None:
                return None
        try:
            message = self.context.decode(wire, arrays=self.arrays)
        except (UnknownFormatError, DecodeError) as exc:
            message = self._recover(exc, self.context.decode, wire,
                                    timeout)
        self.records_received += 1
        return message

    def receive_as(self, native_name: str,
                   timeout: float | None = None) -> dict | None:
        """Like :meth:`receive` but converted to the receiver's own
        registered format view (restricted evolution applies)."""
        wire = self._next_wire(timeout)
        if wire is None:
            return None
        try:
            record = self.context.decode_as(wire, native_name,
                                            arrays=self.arrays)
        except (UnknownFormatError, DecodeError) as exc:
            record = self._recover(exc, self.context.decode_as, wire,
                                   timeout, native_name)
        self.records_received += 1
        return record

    # -- internals ----------------------------------------------------------

    def _recover(self, exc: Exception, decode, wire, timeout, *args):
        """A wire the context rejected: an unknown format is negotiated
        and *decode* retried, once; each record rejected is counted
        here."""
        try:
            if not isinstance(exc, UnknownFormatError):
                raise exc
            self._ensure_format(parse_header(wire)[0], timeout)
            return decode(wire, *args, arrays=self.arrays)
        except DecodeError:
            count_malformed("connection", "bad_record")
            raise

    def _next_wire(self, timeout: float | None,
                   frame: Frame | None = None):
        """The next record payload, None on orderly close: queued ones,
        then *frame* (if the caller read one), then the channel's, with
        metadata frames serviced on the way."""
        while True:
            if frame is None and self._pending:
                return self._pending.popleft()
            if frame is None:
                frame = self.channel.recv(timeout)
            if frame is None or frame.type == FrameType.BYE:
                return None
            if frame.type == _DATA:
                return frame.payload
            self._service(frame)
            frame = None

    def _ensure_format(self, fid: FormatID,
                       timeout: float | None) -> None:
        try:
            self.context.format_server.lookup_bytes(fid)
            return
        except UnknownFormatError:
            pass
        self.negotiations += 1
        self.channel.send(Frame(FrameType.FMT_REQ, fid.to_bytes()))
        while True:
            frame = self.channel.recv(timeout)
            if frame is None or frame.type == FrameType.BYE:
                raise TransportError(
                    "connection closed while awaiting format metadata")
            if frame.type == FrameType.FMT_RSP:
                got = self._import_format_response(frame.payload)
                if got == fid:
                    return
                continue
            if frame.type == _DATA:
                self._pending.append(frame.payload)
                continue
            self._service(frame)

    def _import_format_response(self, payload: bytes) -> FormatID:
        """Validate and import one FMT_RSP payload (8-byte announced
        ID + canonical metadata); malformed frames from the peer raise
        :class:`~repro.errors.ProtocolError`, never escape as registry
        errors.  Returns the announced format ID."""
        if len(payload) < 8:
            count_malformed("connection", "bad_fmt_rsp")
            raise ProtocolError(
                f"FMT_RSP payload too short: {len(payload)} bytes "
                "(need 8-byte format id + metadata)")
        announced = FormatID.from_bytes(payload[:8])
        try:
            imported = self.context.format_server.import_bytes(
                payload[8:])
        except (FormatRegistrationError, UnknownFormatError) as exc:
            count_malformed("connection", "bad_fmt_rsp")
            raise ProtocolError(
                f"peer sent unimportable metadata for format "
                f"{announced}: {exc}") from exc
        if imported != announced:
            count_malformed("connection", "bad_fmt_rsp")
            raise ProtocolError(
                f"FMT_RSP announced format {announced} but its "
                f"metadata deserialized to {imported}")
        return announced

    def _import_lineage_response(self, payload: bytes) \
            -> tuple[str, FormatID | None, tuple[FormatID, ...]]:
        """Decode one LIN_RSP and record what the peer now streams."""
        try:
            name, chosen, chain = decode_lineage_rsp(payload)
        except ProtocolError:
            count_malformed("connection", "bad_lin_rsp")
            raise
        if chosen is not None:
            self.announced_versions[name] = chosen
        return name, chosen, chain

    def _service(self, frame: Frame) -> None:
        if frame.type == FrameType.FMT_REQ:
            try:
                fid = FormatID.from_bytes(frame.payload)
            except UnknownFormatError as exc:
                count_malformed("connection", "bad_fmt_req")
                raise ProtocolError(
                    f"malformed FMT_REQ: {exc}") from None
            try:
                metadata = self.context.format_server.lookup_bytes(fid)
            except UnknownFormatError:
                count_malformed("connection", "bad_fmt_req")
                raise ProtocolError(
                    f"peer requested unknown format {fid}") from None
            self.channel.send(Frame(FrameType.FMT_RSP,
                                    fid.to_bytes() + metadata))
        elif frame.type == FrameType.FMT_RSP:
            # Unsolicited pre-announcement: a broadcast server pushes
            # each format's metadata once per client before the first
            # record in it, so subscribers never pay a FMT_REQ
            # round-trip (negotiations stays 0 on the fan-out path).
            self._import_format_response(frame.payload)
        elif frame.type == FrameType.LIN_REQ:
            name, chosen, reply = answer_lineage_request(
                self.context.format_server, frame.payload, "connection")
            if chosen is not None:
                self._peer_versions[name] = chosen
            self.channel.send(Frame(FrameType.LIN_RSP, reply))
        elif frame.type == FrameType.LIN_RSP:
            # Unsolicited announcement: a publisher cutting over to a
            # new version re-announces via LIN_RSP before the first
            # record at that version; record it so receive_as keeps
            # converting with no gap.
            self._import_lineage_response(frame.payload)
        elif frame.type == FrameType.HELLO:
            self.peer_architecture = frame.payload.decode(
                "utf-8", errors="replace")
        else:
            count_malformed("connection", "unexpected_frame")
            raise ProtocolError(
                f"unexpected frame type {frame.type!r}")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.channel.send(Frame(FrameType.BYE, b""))
            except TransportError:
                pass
            self.channel.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
