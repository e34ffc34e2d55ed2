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
    name, record = ctx.decode(wire)          # sender's field view
    record = ctx.decode_as(wire, "JoinRequest")  # receiver's view
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import (
    DecodeError, FormatRegistrationError, UnknownFormatError,
)
from repro.obs.spans import observe_phase, sample_t0, span
from repro.pbio.convert import ConversionPlan, plan_conversion
from repro.pbio.decode import RecordDecoder, decoder_for_format
from repro.pbio.encode import (
    FLAG_BATCH, HEADER_LEN, EncodedRecord, RecordEncoder, build_header,
    encoder_for_format, parse_batch, parse_header_flags,
)
from repro.pbio.fields import FieldList
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.format_server import FormatServer, global_format_server
from repro.pbio.layout import compute_layout
from repro.pbio.machine import Architecture, NATIVE


class ContextStats:
    """Counters an endpoint accumulates over its lifetime —
    the observability hook operators expect of a BCM endpoint.

    All mutation goes through the ``count_*`` methods, which take one
    class-wide lock per operation and bump the per-context value
    *and* the process-wide totals together — exact under concurrent
    encoders, and centrally snapshottable: the totals surface in the
    :mod:`repro.obs` registry as
    ``repro_codec_events_total{event=...}`` via a snapshot-time
    collector, so the steady-state encode path pays nothing beyond
    the single lock round-trip it always paid.

    Attribute reads (``stats.records_encoded``) and :meth:`as_dict`
    behave exactly as the old dataclass did.
    """

    _FIELDS = ("records_encoded", "bytes_encoded", "records_decoded",
               "bytes_decoded", "conversions_planned")
    _LOCK = threading.Lock()
    _TOTALS = {name: 0 for name in _FIELDS}

    __slots__ = ("_records_encoded", "_bytes_encoded",
                 "_records_decoded", "_bytes_decoded",
                 "_conversions_planned")

    def __init__(self, records_encoded: int = 0,
                 bytes_encoded: int = 0, records_decoded: int = 0,
                 bytes_decoded: int = 0,
                 conversions_planned: int = 0) -> None:
        self._records_encoded = records_encoded
        self._bytes_encoded = bytes_encoded
        self._records_decoded = records_decoded
        self._bytes_decoded = bytes_decoded
        self._conversions_planned = conversions_planned

    # -- hot-path mutation (one lock round-trip each) -----------------------

    def count_encoded(self, records: int, nbytes: int) -> None:
        totals = ContextStats._TOTALS
        with ContextStats._LOCK:
            self._records_encoded += records
            self._bytes_encoded += nbytes
            totals["records_encoded"] += records
            totals["bytes_encoded"] += nbytes

    def count_decoded(self, records: int, nbytes: int) -> None:
        totals = ContextStats._TOTALS
        with ContextStats._LOCK:
            self._records_decoded += records
            self._bytes_decoded += nbytes
            totals["records_decoded"] += records
            totals["bytes_decoded"] += nbytes

    def count_conversion(self) -> None:
        with ContextStats._LOCK:
            self._conversions_planned += 1
            ContextStats._TOTALS["conversions_planned"] += 1

    # -- reads --------------------------------------------------------------

    @classmethod
    def totals_snapshot(cls) -> dict[str, int]:
        """Process-wide codec totals (all contexts, living or dead)."""
        with cls._LOCK:
            return dict(cls._TOTALS)

    def as_dict(self) -> dict:
        return {name: getattr(self, "_" + name)
                for name in self._FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in
                          self.as_dict().items())
        return f"ContextStats({inner})"

    def __eq__(self, other) -> bool:
        if isinstance(other, ContextStats):
            return self.as_dict() == other.as_dict()
        return NotImplemented


def _stats_property(name: str):
    attr = "_" + name

    def get(self) -> int:
        return getattr(self, attr)

    def set(self, value: int) -> None:
        # compat path for direct assignment: adjust the process
        # totals by the delta so the central snapshot stays truthful
        with ContextStats._LOCK:
            ContextStats._TOTALS[name] += value - getattr(self, attr)
            setattr(self, attr, value)
    return property(get, set)


for _name in ContextStats._FIELDS:
    setattr(ContextStats, _name, _stats_property(_name))
del _name


@dataclass(frozen=True)
class DecodedRecord:
    """Result of :meth:`IOContext.decode`."""

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
        self._encoders: dict[FormatID, RecordEncoder] = {}
        self._decoders: dict[tuple[FormatID, str], RecordDecoder] = {}
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
        self._encoders.pop(fmt.format_id, None)
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
        encoder = self._encoders.get(fmt.format_id)
        if encoder is None:
            # L2: the process-wide digest-keyed plan cache, so every
            # context encoding the same format shares one compiled plan
            encoder = encoder_for_format(fmt)
            self._encoders[fmt.format_id] = encoder
        return encoder

    def encode(self, format_name: str | IOFormat, record: dict, *,
               parts: bool = False) -> bytes | tuple:
        """Encode *record*; returns header + body wire bytes — or,
        for transports, the same bytes unjoined (``parts=True``, see
        :meth:`~repro.pbio.encode.RecordEncoder.encode_wire_parts`)."""
        fmt = (format_name if isinstance(format_name, IOFormat)
               else self.lookup_format(format_name))
        t0 = sample_t0()
        wire = self.encoder_for(fmt).encode_wire_parts(record)
        if t0:
            observe_phase("marshal", t0)
        self.stats.count_encoded(1, sum(map(len, wire)))
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

    def decode(self, data: bytes, *, arrays: str = "list") \
            -> DecodedRecord:
        """Decode a wire record under its *sender's* field view."""
        fid, body = self._split(data)
        fmt = self._resolve_wire_format(fid)
        t0 = sample_t0()
        record = self.decoder_for(fmt, arrays=arrays).decode(body)
        if t0:
            observe_phase("unmarshal", t0)
        self.stats.count_decoded(1, len(data))
        return DecodedRecord(format_name=fmt.name, format_id=fid,
                             record=record)

    def decode_many(self, data: bytes, *, arrays: str = "list") \
            -> list[DecodedRecord]:
        """Decode a shared-header record batch produced by
        :meth:`encode_many` under its sender's field view."""
        name, fid, records = self.decode_many_records(
            data, arrays=arrays)
        return [DecodedRecord(format_name=name, format_id=fid,
                              record=record) for record in records]

    def decode_many_records(self, data: bytes, *,
                            arrays: str = "list") \
            -> tuple[str, FormatID, list[dict]]:
        """Batch decode without per-record wrapping: the format name
        and id once, plus the raw record dicts.  This is the hot path
        for batched streaming — callers that build their own envelope
        (e.g. transport connections) skip a dataclass per record."""
        fid, _big, bodies = parse_batch(data)
        fmt = self._resolve_wire_format(fid)
        decode = self.decoder_for(fmt, arrays=arrays).decode
        t0 = sample_t0()
        records = [decode(body) for body in bodies]
        if t0:
            observe_phase("unmarshal", t0)
        self.stats.count_decoded(len(records), len(data))
        return fmt.name, fid, records

    def decode_as(self, data: bytes, native_name: str, *,
                  arrays: str = "list") -> dict:
        """Decode a wire record and convert it into this context's
        registered *native_name* format view (restricted evolution:
        added wire fields dropped, missing ones defaulted)."""
        native = self.lookup_format(native_name)
        fid, body = self._split(data)
        wire = self._resolve_wire_format(fid)
        t0 = sample_t0()
        record = self.decoder_for(wire, arrays=arrays).decode(body)
        if t0:
            observe_phase("unmarshal", t0)
        key = (fid, native_name)
        plan = self._conversions.get(key)
        if plan is None:
            with span("bind", view=native_name):
                plan = plan_conversion(wire, native)
            self._conversions[key] = plan
            self.stats.count_conversion()
        self.stats.count_decoded(1, len(data))
        return plan.apply(record)

    def _split(self, data: bytes) -> tuple[FormatID, memoryview]:
        fid, flags, body_len = parse_header_flags(data)
        if flags & FLAG_BATCH:
            raise DecodeError(
                "data is a record batch; use decode_many()")
        body = memoryview(data)[HEADER_LEN:]
        if len(body) < body_len:
            raise DecodeError(
                f"record truncated: header says {body_len} body bytes, "
                f"got {len(body)}")
        return fid, body[:body_len]

    # -- convenience -------------------------------------------------------------

    def encoded_size(self, format_name: str | IOFormat,
                     record: dict) -> int:
        """Size in bytes of the encoded record including header
        (the paper's "Encoded Size" column)."""
        return len(self.encode(format_name, record))

    def roundtrip(self, format_name: str, record: dict) -> dict:
        """Encode then decode under the same format (testing aid)."""
        return self.decode(self.encode(format_name, record)).record


def encode_with_header(fmt: IOFormat, record: EncodedRecord | dict) \
        -> bytes:
    """Module-level helper mirroring :meth:`IOContext.encode` for code
    that holds an :class:`IOFormat` but no context."""
    if isinstance(record, EncodedRecord):
        enc = record
    else:
        enc = encoder_for_format(fmt).encode(record)
    header = build_header(enc.format_id, len(enc.body),
                          big_endian=fmt.architecture.byte_order == "big")
    return header + enc.body
