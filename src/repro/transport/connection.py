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
from repro.pbio.encode import explode_batch, is_batch, parse_header
from repro.pbio.evolution import DownConverter, down_converter
from repro.pbio.format import FormatID, IOFormat
from repro.transport.base import Channel
from repro.transport.messages import (
    RECORD_FRAMES, Frame, FrameType, count_malformed, decode_lineage_req,
    decode_lineage_rsp, encode_lineage_req, lineage_reply,
)


def count_negotiation(chosen: FormatID | None, chain) -> None:
    """Record one resolved lineage handshake (responder side): outcome
    plus the negotiated position in the lineage chain."""
    from repro.obs import runtime as _obs
    if not _obs.enabled:
        return
    from repro.obs.metrics import EVOLUTION_EVENTS, NEGOTIATED_VERSIONS
    if chosen is None:
        EVOLUTION_EVENTS.labels("no_common_version").inc()
        return
    EVOLUTION_EVENTS.labels("negotiations").inc()
    chain = tuple(chain)
    version = (f"v{chain.index(chosen)}" if chosen in chain
               else "unversioned")
    NEGOTIATED_VERSIONS.labels(version).inc()


def answer_lineage_request(format_server, payload: bytes,
                           layer: str) \
        -> tuple[str, FormatID | None, bytes]:
    """The LIN_REQ responder, whoever owns the socket: negotiate the
    newest mutually-decodable version of the requested name against
    *format_server* and count the outcome.  Returns ``(name, chosen or
    None, LIN_RSP payload)``; the caller records the pin, then sends."""
    try:
        name, offered = decode_lineage_req(payload)
    except ProtocolError:
        count_malformed(layer, "bad_lin_req")
        raise
    chosen = format_server.negotiate(name, offered)
    chain = format_server.lineage(name)
    count_negotiation(chosen, chain)
    return name, chosen, lineage_reply(name, chosen, chain)


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
        #: name -> cached DownConverter serving _peer_versions
        self._converters: dict[str, DownConverter] = {}
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
        self.channel.send(Frame(_DATA, wire))
        self.records_sent += 1

    def send_many(self, format_name: str | IOFormat, records) -> int:
        """Encode *records* into one shared-header batch and ship it
        as a single DATA_BATCH frame — N records, one header, one
        transport send.  Returns the number of records sent."""
        records = list(records)
        wire = self.context.encode_many(format_name, records)
        self.channel.send(Frame(FrameType.DATA_BATCH, wire))
        self.records_sent += len(records)
        return len(records)

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
            if frame.type in RECORD_FRAMES:
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
        is projected through the cached
        :class:`~repro.pbio.evolution.DownConverter` and shipped as
        old-version wire bytes the peer decodes natively.
        """
        fmt = (format_name if isinstance(format_name, IOFormat)
               else self.context.lookup_format(format_name))
        target = self._peer_versions.get(fmt.name)
        if target is None or target == fmt.format_id:
            self.send(fmt, record)
            return
        converter = self._converter_for(fmt, target)
        self.channel.send(Frame(FrameType.DATA,
                                converter.encode_record_parts(record)))
        self.records_sent += 1

    def _converter_for(self, fmt: IOFormat, target: FormatID):
        converter = self._converters.get(fmt.name)
        if converter is not None and \
                converter.new.format_id == fmt.format_id and \
                converter.old.format_id == target:
            return converter
        try:
            old = self.context.version_for(fmt.name, target)
        except UnknownFormatError:
            old = self.context.format_server.lookup(target)
        converter = down_converter(fmt, old)
        self._converters[fmt.name] = converter
        return converter

    # -- receiving ----------------------------------------------------------

    def receive(self, timeout: float | None = None) \
            -> ReceivedMessage | None:
        """Deliver the next application record (None on orderly close)."""
        frame = None if self._pending else self.channel.recv(timeout)
        if frame is not None and frame.type is _DATA \
                and not is_batch(frame.payload):
            wire = frame.payload  # the steady state: one plain record
        elif frame is None and not self._pending:
            return None  # orderly close
        else:
            wire = self._next_wire(timeout, True, frame)
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
        wire = self._next_wire(timeout, True)
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

    def receive_many(self, timeout: float | None = None) \
            -> list[ReceivedMessage] | None:
        """Deliver the next DATA_BATCH whole: one frame, one format
        resolution, one decoder for every record in it.  A plain DATA
        frame yields a one-element list; None means orderly close."""
        wire = self._next_wire(timeout, False)
        if wire is None:
            return None
        try:
            out = self._decode_whole(wire, arrays=self.arrays)
        except (UnknownFormatError, DecodeError) as exc:
            out = self._recover(exc, self._decode_whole, wire, timeout)
        self.records_received += len(out)
        return out

    # -- internals ----------------------------------------------------------

    def _recover(self, exc: Exception, decode, wire, timeout, *args):
        """A wire the context rejected: an unknown format is negotiated
        and *decode* retried, once; each record rejected is counted,
        here or (a batch that does not split) in :meth:`_next_wire`."""
        try:
            if not isinstance(exc, UnknownFormatError):
                raise exc
            self._ensure_format(parse_header(wire)[0], timeout)
            return decode(wire, *args, arrays=self.arrays)
        except DecodeError:
            count_malformed("connection", "bad_record")
            raise

    def _decode_whole(self, wire: bytes, *, arrays: str) -> list:
        """receive_many's *decode*: a batch or a single record."""
        if is_batch(wire):
            return self.context.decode_many(wire, arrays=arrays)
        return [self.context.decode(wire, arrays=arrays)]

    def _next_wire(self, timeout: float | None, single: bool,
                   frame: Frame | None = None):
        """The next record payload, None on orderly close: queued ones,
        then *frame* (if the caller read one), then the channel's, with
        metadata frames serviced on the way; *single* splits a batch
        into per-record wires queued ahead of the rest."""
        while True:
            if frame is None and self._pending:
                wire = self._pending.popleft()
            else:
                if frame is None:
                    frame = self.channel.recv(timeout)
                if frame is None or frame.type == FrameType.BYE:
                    return None
                if frame.type not in RECORD_FRAMES:
                    self._service(frame)
                    frame = None
                    continue
                wire, frame = frame.payload, None
            if not (single and is_batch(wire)):
                return wire
            try:
                singles = explode_batch(wire)
            except DecodeError:
                count_malformed("connection", "bad_record")
                raise
            self._pending.extendleft(reversed(singles))

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
            if frame.type in RECORD_FRAMES:
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
