"""IOContext: a process's PBIO endpoint.

An :class:`IOContext` owns the per-endpoint state the PBIO C library
kept in its ``IOContext``: the architecture records are laid out for,
the set of locally registered formats, compiled encoder/decoder caches,
and the connection to a :class:`~repro.pbio.format_server.FormatServer`
for ID <-> metadata resolution.

Typical sender::

    ctx = IOContext()
    fmt = ctx.register_layout("JoinRequest", [
        ("name", "string"), ("server", "unsigned integer"),
        ("ip_addr", "unsigned integer", 8), ...])
    wire = ctx.encode("JoinRequest", record)

Typical receiver::

    ctx = IOContext()
    decoded = ctx.decode(wire)     # DecodedRecord, sender's field view
    record = ctx.decode_as(wire, "JoinRequest")  # receiver's view

``decode`` makes the one checked pass over the record header and finds
the decoder bound to its raw digest in one table probe; a
:class:`~repro.transport.connection.Connection` returns the same
:class:`DecodedRecord`, unwrapped.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import (
    DecodeError, FormatRegistrationError, UnknownFormatError,
)
from repro.obs.registry import Tally
from repro.obs.spans import observe_phase, sample_t0, span
from repro.pbio.convert import ConversionPlan, plan_conversion
from repro.pbio.decode import RecordDecoder, decoder_for_format
from repro.pbio.encode import (
    FLAG_BATCH, HEADER_LEN, HEADER_MAGIC, HEADER_VERSION, RecordEncoder,
    encoder_for_format, parse_batch, split_header,
)
from repro.pbio.fields import FieldList
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer, global_format_server
from repro.pbio.layout import compute_layout
from repro.pbio.machine import Architecture, NATIVE


#: the record header as decode reads it: (magic + version, flags,
#: digest, body length), and what a shorter record stands in with
_HEADER = struct.Struct(">3sB8sI")
_MAGIC_VERSION = HEADER_MAGIC + bytes((HEADER_VERSION,))
_NO_HEADER = (b"", 0, b"", 0)


class ContextStats(Tally):
    """Counters an endpoint accumulates over its lifetime —
    the observability hook operators expect of a BCM endpoint.

    Read as attributes (``stats.records_encoded``) or
    :meth:`as_dict`; every context's cells, living or dead, sum into
    ``repro_codec_events_total{event=...}``.
    """

    _COUNTERS = ("records_encoded", "bytes_encoded", "records_decoded",
                 "bytes_decoded", "conversions_planned")
    _METRIC = "repro_codec_events_total"

    __slots__ = ()

    def count_encoded(self, records: int, nbytes: int) -> None:
        row = self.row()
        row["records_encoded"] += records
        row["bytes_encoded"] += nbytes

    def count_decoded(self, records: int, nbytes: int) -> None:
        row = self.row()
        row["records_decoded"] += records
        row["bytes_decoded"] += nbytes


class DecodedRecord(NamedTuple):
    """A record under its sender's field view: what
    :meth:`IOContext.decode` builds and ``Connection.receive`` returns
    (as ``ReceivedMessage``), the same object.  A named tuple, so
    ``decode`` builds it in C (``tuple.__new__``), one per record."""

    format_name: str
    format_id: FormatID
    record: dict


class IOContext:
    """Registration, marshaling and unmarshaling endpoint."""

    def __init__(self, *, architecture: Architecture = NATIVE,
                 format_server: FormatServer | None = None) -> None:
        self.architecture = architecture
        self.format_server = (format_server if format_server is not None
                              else global_format_server())
        self._formats: dict[str, IOFormat] = {}
        #: every version of a name this context holds native bindings
        #: for, oldest first (grown by register_evolution)
        self._versions: dict[str, list[IOFormat]] = {}
        #: keyed by ``FormatID.value``: an int hashes in C
        self._encoders: dict[int, RecordEncoder] = {}
        self._decoders: dict[tuple[FormatID, str], RecordDecoder] = {}
        #: arrays mode -> raw wire digest -> (bound ``decoder.decode``,
        #: format name, FormatID).  Ids are content-addressed, so an
        #: entry never goes stale and nothing invalidates the table.
        self._bound: dict[str, dict[bytes, tuple]] = {}
        self._wire_formats: dict[FormatID, IOFormat] = {}
        self._conversions: dict[tuple[FormatID, str], ConversionPlan] = {}
        #: marshaling counters (records/bytes in each direction)
        self.stats = ContextStats()

    # -- registration -----------------------------------------------------------

    def register_format(self, name: str, field_list: FieldList,
                        enums: dict[str, tuple[str, ...]] | None = None) \
            -> IOFormat:
        """Register a format from an explicit IOField list (the
        compiled-in metadata path the paper compares XMIT against)."""
        fmt = IOFormat(name, field_list, enums)
        self._register(fmt)
        return fmt

    def register_layout(self, name: str, specs, *,
                        subformats: dict[str, FieldList] | None = None,
                        enums: dict[str, tuple[str, ...]] | None = None) \
            -> IOFormat:
        """Register a format from ``(name, type[, size])`` field specs,
        computing this context's native layout."""
        layout = compute_layout(specs, architecture=self.architecture,
                                subformats=subformats)
        return self.register_format(name, layout.field_list, enums)

    def register(self, fmt: IOFormat) -> IOFormat:
        """Register a prebuilt :class:`IOFormat` (XMIT's path: the
        toolkit builds the format from XML metadata, then registers)."""
        self._register(fmt)
        return fmt

    def _register(self, fmt: IOFormat) -> None:
        existing = self._formats.get(fmt.name)
        if existing is not None and existing != fmt:
            raise FormatRegistrationError(
                f"format {fmt.name!r} already registered with different "
                "metadata; unregister or use a new name")
        with span("register", format=fmt.name):
            self.format_server.register(fmt)
            self._formats[fmt.name] = fmt
            self._wire_formats[fmt.format_id] = fmt
            versions = self._versions.setdefault(fmt.name, [])
            if fmt not in versions:
                versions.append(fmt)

    def register_evolution(self, new_fmt: IOFormat) -> IOFormat:
        """Rebind *new_fmt.name* to its next version.

        The currently bound format becomes the previous lineage link:
        the server-side digest chain grows by one validated step
        (fields only appended, shared fields convertible), the name
        now encodes at the new version, and this context keeps native
        bindings for **both** — :meth:`decodable_versions` reports the
        whole set, which is what a lineage handshake offers a peer.
        First-time names fall through to plain registration.
        """
        old = self._formats.get(new_fmt.name)
        if old is None or old == new_fmt:
            self._register(new_fmt)
            return new_fmt
        with span("register", format=new_fmt.name):
            self.format_server.register_evolution(old, new_fmt)
            self._formats[new_fmt.name] = new_fmt
            self._wire_formats[new_fmt.format_id] = new_fmt
            versions = self._versions.setdefault(new_fmt.name, [old])
            if new_fmt not in versions:
                versions.append(new_fmt)
        return new_fmt

    def decodable_versions(self, name: str) -> tuple[FormatID, ...]:
        """Digests of every version of *name* this context can decode
        natively, oldest first — exactly what a LIN_REQ offers."""
        versions = self._versions.get(name)
        if not versions:
            raise UnknownFormatError(
                f"format {name!r} not registered with this context")
        return tuple(fmt.format_id for fmt in versions)

    def version_for(self, name: str, fid: FormatID) -> IOFormat:
        """The locally bound version of *name* carrying digest *fid*
        (e.g. the one a handshake negotiated)."""
        for fmt in self._versions.get(name, ()):
            if fmt.format_id == fid:
                return fmt
        raise UnknownFormatError(
            f"no local version of {name!r} with id {fid}")

    def unregister(self, name: str) -> None:
        """Forget the local binding of *name* (so a changed format can
        re-register under the same name).  Server-side metadata is
        content-addressed and immutable, so only local state changes;
        records already on the wire keep decoding via their IDs."""
        fmt = self._formats.pop(name, None)
        if fmt is None:
            raise UnknownFormatError(
                f"format {name!r} not registered with this context")
        self._versions.pop(name, None)
        self._encoders.pop(fmt.format_id.value, None)
        self._conversions = {key: plan
                             for key, plan in self._conversions.items()
                             if key[1] != name}

    def lookup_format(self, name: str) -> IOFormat:
        try:
            return self._formats[name]
        except KeyError:
            raise UnknownFormatError(
                f"format {name!r} not registered with this context"
            ) from None

    @property
    def format_names(self) -> tuple[str, ...]:
        return tuple(self._formats)

    # -- encoding ---------------------------------------------------------------

    def encoder_for(self, fmt: IOFormat) -> RecordEncoder:
        key = fmt.format_id.value
        encoder = self._encoders.get(key)
        if encoder is None:
            # L2: the process-wide digest-keyed plan cache, so every
            # context encoding the same format shares one compiled plan
            encoder = self._encoders[key] = encoder_for_format(fmt)
        return encoder

    def encode(self, format_name: str | IOFormat, record: dict, *,
               parts: bool = False) -> bytes | tuple:
        """Encode *record*; returns header + body wire bytes — or,
        for transports, the same bytes unjoined (``parts=True``, see
        :meth:`~repro.pbio.encode.RecordEncoder.encode_wire_parts`)."""
        fmt = format_name
        if type(fmt) is str:  # first: a str hashes in C, an IOFormat not
            fmt = self._formats.get(fmt) or self.lookup_format(fmt)
        encoder = (self._encoders.get(fmt.format_id.value)
                   or self.encoder_for(fmt))
        t0 = sample_t0()
        wire = encoder.encode_wire_parts(record)
        if t0:
            observe_phase("marshal", t0)
        row = self.stats.row()
        row["records_encoded"] += 1
        row["bytes_encoded"] += (len(wire[0]) if len(wire) == 1
                                 else sum(map(len, wire)))
        return wire if parts else b"".join(wire)

    def encode_many(self, format_name: str | IOFormat,
                    records) -> bytes:
        """Encode *records* into one shared-header batch
        (:func:`~repro.pbio.encode.build_batch`): N same-format
        records under a single 16-byte header, ready for one
        transport frame."""
        fmt = (format_name if isinstance(format_name, IOFormat)
               else self.lookup_format(format_name))
        records = list(records)
        t0 = sample_t0()
        wire = self.encoder_for(fmt).encode_batch(records)
        if t0:
            observe_phase("marshal", t0)
        self.stats.count_encoded(len(records), len(wire))
        return wire

    # -- decoding ---------------------------------------------------------------

    def _resolve_wire_format(self, fid: FormatID) -> IOFormat:
        fmt = self._wire_formats.get(fid)
        if fmt is None:
            fmt = self.format_server.lookup(fid)
            self._wire_formats[fid] = fmt
        return fmt

    def decoder_for(self, fmt: IOFormat, *,
                    arrays: str = "list") -> RecordDecoder:
        key = (fmt.format_id, arrays)
        decoder = self._decoders.get(key)
        if decoder is None:
            decoder = decoder_for_format(fmt, arrays=arrays)
            self._decoders[key] = decoder
        return decoder

    def _bind(self, digest: bytes, arrays: str) -> tuple:
        """First record of a wire format in this arrays mode: resolve
        digest -> format -> compiled decoder once and remember the
        result under the raw digest."""
        fid = FormatID.from_bytes(digest)
        fmt = self._resolve_wire_format(fid)
        entry = (self.decoder_for(fmt, arrays=arrays).decode, fmt.name,
                 fid)
        self._bound.setdefault(arrays, {})[digest] = entry
        return entry

    def decode(self, data: bytes, *, arrays: str = "list") \
            -> DecodedRecord:
        """Decode a wire record under its *sender's* field view: one
        header unpack, one table probe, one result object."""
        size = len(data)
        magic_version, flags, digest, body_len = (
            _HEADER.unpack_from(data) if size >= HEADER_LEN
            else _NO_HEADER)
        if (magic_version != _MAGIC_VERSION or flags & FLAG_BATCH
                or body_len > size - HEADER_LEN):
            split_header(data, require_body=True)  # names the fault
            raise DecodeError(
                "data is a record batch; use decode_many()")
        try:
            decode, name, fid = self._bound[arrays][digest]
        except KeyError:
            decode, name, fid = self._bind(digest, arrays)
        t0 = sample_t0()
        record = decode(
            memoryview(data)[HEADER_LEN:HEADER_LEN + body_len])
        if t0:
            observe_phase("unmarshal", t0)
        row = self.stats.row()
        row["records_decoded"] += 1
        row["bytes_decoded"] += size
        return tuple.__new__(DecodedRecord, (name, fid, record))

    def decode_many(self, data: bytes, *, arrays: str = "list") \
            -> list[DecodedRecord]:
        """Decode a shared-header record batch produced by
        :meth:`encode_many` under its sender's field view: the format
        is resolved once for every record in it."""
        fid, _big, bodies = parse_batch(data)
        fmt = self._resolve_wire_format(fid)
        decode = self.decoder_for(fmt, arrays=arrays).decode
        t0 = sample_t0()
        records = [tuple.__new__(DecodedRecord,
                                 (fmt.name, fid, decode(body)))
                   for body in bodies]
        if t0:
            observe_phase("unmarshal", t0)
        self.stats.count_decoded(len(records), len(data))
        return records

    def decode_as(self, data: bytes, native_name: str, *,
                  arrays: str = "list") -> dict:
        """Decode a wire record and convert it into this context's
        registered *native_name* format view (restricted evolution:
        added wire fields dropped, missing ones defaulted)."""
        native = self.lookup_format(native_name)
        decoded = self.decode(data, arrays=arrays)
        key = (decoded.format_id, native_name)
        plan = self._conversions.get(key)
        if plan is None:
            wire = self._resolve_wire_format(decoded.format_id)
            with span("bind", view=native_name):
                plan = plan_conversion(wire, native)
            self._conversions[key] = plan
            self.stats.count("conversions_planned")
        return plan.apply(decoded.record)

    # -- convenience -------------------------------------------------------------

    def encoded_size(self, format_name: str | IOFormat,
                     record: dict) -> int:
        """Size in bytes of the encoded record including header
        (the paper's "Encoded Size" column)."""
        return len(self.encode(format_name, record))

    def roundtrip(self, format_name: str, record: dict) -> dict:
        """Encode then decode under the same format (testing aid)."""
        return self.decode(self.encode(format_name, record)).record
