"""Record marshaling: in-memory record dicts -> PBIO wire bytes.

The wire representation of a record is the sender's native structure
image ("receiver makes right" — no translation on the send side beyond
pointer swizzling), laid out as:

    +--------------------+------------------------------------------+
    | fixed section      | variable section                         |
    | (record_length B,  | (string bytes, dynamic-array elements,   |
    |  native offsets/   |  appended in encounter order, aligned)   |
    |  padding)          |                                          |
    +--------------------+------------------------------------------+

Pointer-valued struct slots (strings, dynamic arrays) carry the
*absolute byte offset* of their data within the record body; 0 is the
NULL sentinel (no data ever starts at offset 0, which is inside the
fixed section).  Dynamic arrays without a sizing field are prefixed
with a 32-bit element count.

A :class:`RecordEncoder` is compiled once per format — a flat list of
closures — and reused for every record, which is what makes PBIO-style
encoding a near-memcpy (and what Fig. 7 measures).  Bulk numeric arrays
take a NumPy fast path; a Python list crosses in one ``struct`` call
per run, packed in the wire's byte order.

Three steady-state optimizations ride on top of the compiled plan (see
``docs/MARSHALING.md``):

* **run fusion** — contiguous fixed-size scalar fields coalesce into a
  single precompiled :class:`struct.Struct`, one ``pack_into`` per run
  instead of one per field (runs break at pointer-valued fields,
  subformats, and large padding gaps);
* **whole-record plans** — a record whose fixed section is one fused
  run (no pointers, no arrays) packs header and body in a single
  ``Struct.pack`` call: no buffer, no join;
* **plan caching** — compiled encoders are cached per format digest
  (:func:`encoder_for_format`), so every context, codec and one-shot
  helper in the process shares one plan per format.

Record headers (prepended by :meth:`RecordEncoder.encode` /
:class:`~repro.pbio.context.IOContext`) are 16 bytes, always big-endian:
magic ``PB``, version, flags, 8-byte format ID, 4-byte body length.
Flag bit ``0x1`` marks a big-endian sender; every other flag bit is
rejected, and bit ``0x2`` (retired shared-header record batches) must
not be reused.
"""

from __future__ import annotations

import array
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import EncodeError, WireParseError
from repro.obs.registry import Tally
from repro.pbio.fields import FieldList, IOField
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.plancache import PlanFrontEnd, compile_codec
from repro.pbio.walk import (
    NUMPY_KINDS, Step, numpy_dtype, struct_code, walk_fields,
)

HEADER_MAGIC = b"PB"
HEADER_VERSION = 1
HEADER_LEN = 16
_HEADER_STRUCT = struct.Struct(">2sBB8sI")
_COUNT32 = struct.Struct(">I")

#: the one header flag bit; any other bit set is a malformed header
FLAG_BIG_ENDIAN = 0x1

#: typed var-array payloads at least this large spill out of the
#: record body as zero-copy segments (below it the extra frame part
#: costs more than the memcpy it saves)
SPILL_MIN_BYTES = 4096

#: stdlib array.array typecodes by (numpy kind char, itemsize) — the
#: typed sources the bulk path accepts without building an ndarray
_TYPECODE_KINDS: dict[str, tuple[str, int]] = (
    {c: ("i", array.array(c).itemsize) for c in "bhilq"}
    | {c: ("u", array.array(c).itemsize) for c in "BHILQ"}
    | {"f": ("f", 4), "d": ("f", 8)}
)

_NATIVE_ORDER_CHAR = "<" if sys.byteorder == "little" else ">"


class BulkStats(Tally):
    """Process-wide counters for the bulk-array fast path.

    Every bulk decision is counted, so tests and benchmarks can prove
    copy behavior (e.g. "this 1 MB grid moved as one zero-copy spill
    segment") instead of inferring it from timings — exactly, however
    many threads encode at once.  Read through :meth:`snapshot`.
    """

    _COUNTERS = (
        "zero_copy_views",   # source buffer used as-is, no copy
        "bulk_converts",     # one bulk dtype/byte-order convert
        "copied_arrays",     # payloads memcpy'd into the body
        "copied_bytes",
        "spilled_segments",  # payloads handed out as segments
        "spilled_bytes",
        "fallback_arrays",   # typed but bulk-ineligible: cast
    )

    __slots__ = ()


BULK_STATS = BulkStats()


def _bulk_view(value, dtype: np.dtype):
    """A C-contiguous byte view of *value* in the wire byte order.

    Returns ``(view, converted)`` — ``converted`` is False when the
    view aliases the caller's buffer (zero-copy) and True when one bulk
    dtype/byte-order conversion produced a private buffer — or ``None``
    when *value* is not bulk-eligible and goes through
    :func:`_run_bytes`.  Only typed 1-D sources qualify: ``np.ndarray``
    and ``array.array`` carry their element type, so reinterpreting
    their bytes can never change meaning (raw bytes/buffers are
    treated as element sequences).
    """
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            return None
        vd = value.dtype
        # identity first: numpy interns the native-order dtypes, so
        # the steady state skips building two ``.str`` strings
        if (vd is dtype or vd.str == dtype.str) \
                and value.flags.c_contiguous:
            return memoryview(value).cast("B"), False
        try:
            converted = np.ascontiguousarray(value, dtype=dtype)
        except (ValueError, TypeError, OverflowError):
            return None
        return memoryview(converted).cast("B"), True
    if isinstance(value, array.array):
        if _TYPECODE_KINDS.get(value.typecode) != (dtype.kind,
                                                   dtype.itemsize):
            return None
        if dtype.byteorder in ("|", "=", _NATIVE_ORDER_CHAR):
            return memoryview(value).cast("B"), False
        swapped = array.array(value.typecode, value)
        swapped.byteswap()
        return memoryview(swapped).cast("B"), True
    return None


@dataclass(frozen=True)
class EncodedRecord:
    """An encoded record: header + body, ready for a transport."""

    format_id: FormatID
    body: bytes


def build_header(format_id: FormatID, body_length: int,
                 *, big_endian: bool) -> bytes:
    flags = FLAG_BIG_ENDIAN if big_endian else 0
    return _HEADER_STRUCT.pack(HEADER_MAGIC, HEADER_VERSION, flags,
                               format_id.to_bytes(), body_length)


def split_header(data, *, require_body: bool = False) \
        -> tuple[bytes, int, int]:
    """The one checked pass over a record header; returns (raw 8-byte
    format digest, flags, body length).

    With ``require_body`` the declared body length is checked against
    the buffer — wire-facing callers holding the whole record must set
    it, so a lying header is rejected before its length drives any
    downstream slice or allocation.  (The default stays lenient for
    callers inspecting a bare 16-byte header.)
    """
    if len(data) < HEADER_LEN:
        raise WireParseError(
            f"record shorter than header ({len(data)} < {HEADER_LEN})")
    magic, version, flags, digest, body_len = \
        _HEADER_STRUCT.unpack_from(data)
    if magic != HEADER_MAGIC:
        raise WireParseError(f"bad record magic {magic!r}")
    if version != HEADER_VERSION:
        raise WireParseError(f"unsupported record version {version}")
    if flags & ~FLAG_BIG_ENDIAN:
        raise WireParseError(f"unknown record header flags {flags:#04x}")
    if require_body and body_len > len(data) - HEADER_LEN:
        raise WireParseError(
            f"record truncated: header says {body_len} body bytes, "
            f"got {len(data) - HEADER_LEN}")
    return digest, flags, body_len


def parse_header(data: bytes, *,
                 require_body: bool = False) -> tuple[FormatID, int]:
    """:func:`split_header` for callers that want the
    :class:`FormatID`; returns (format id, body length)."""
    digest, _flags, body_len = split_header(
        data, require_body=require_body)
    return FormatID.from_bytes(digest), body_len


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class _PartsBody(bytearray):
    """Record body that can divert large bulk payloads into zero-copy
    *segments* instead of copying them in.

    ``segments`` holds ``(physical_cut, byte_view)`` pairs: the payload
    logically sits at physical offset ``physical_cut`` but its bytes
    live in the caller's array.  ``__len__`` reports the **virtual**
    length (physical bytes plus every spilled segment), so the compiled
    ops' pointer arithmetic — which is all expressed through
    ``len(body)`` — stays wire-accurate without knowing about spills.
    C-level writes (``extend``/``pack_into``) address the physical
    buffer and are unaffected.
    """

    __slots__ = ("segments",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.segments: list[tuple[int, memoryview]] = []

    def __len__(self) -> int:
        n = bytearray.__len__(self)
        for _cut, part in self.segments:
            n += len(part)
        return n


class RecordEncoder:
    """Compiled encoder for one :class:`IOFormat`.

    ``fuse`` selects the codec plan: fused (default — contiguous
    scalar runs pack through one :class:`struct.Struct`) or the
    per-field baseline the fused plan is benchmarked against.

    ``bulk`` selects the array plan: bulk (default — typed 1-D array
    payloads move as single ``memoryview`` copies, byte-swapped in one
    pass when the wire order differs, and spill as zero-copy segments
    through :meth:`encode_wire_parts`) or the plan without buffer
    views (typed buffers are cast, lists pack as they always do) the
    bulk path is differentially tested against.
    """

    def __init__(self, fmt: IOFormat, *, fuse: bool = True,
                 bulk: bool = True) -> None:
        self.format = fmt
        self.field_list = fmt.field_list
        self.fuse = fuse
        self.bulk = bulk
        self.fused_runs = 0      # plan stats: runs of >= 2 fields
        self.fused_fields = 0    # fields covered by those runs
        self._bo = fmt.architecture.struct_byte_order_char
        self._byte_order = fmt.architecture.byte_order
        self._big = fmt.architecture.byte_order == "big"
        #: the 12 header bytes every record of this format shares; only
        #: the u32 body length after them varies
        self._header12 = build_header(
            fmt.format_id, 0, big_endian=self._big)[:12]
        ptr_size = fmt.architecture.sizeof("pointer")
        self._ptr = struct.Struct(
            self._bo + ("I" if ptr_size == 4 else "Q"))
        self._count = struct.Struct(self._bo + "I")
        # ops run in field order; each is fn(record, body, base)
        self._ops = self._compile(self.field_list, fmt.enums)
        #: ``wire(record)`` when the whole record is one fused run
        self._whole = self._compile_whole()
        self._names = self.field_list.name_set()
        self._length_links = _length_links(self.field_list)
        #: (name, element size) of the fields whose payload can spill
        self._spillable = tuple(
            (f.name, f.size) for f in self.field_list
            if bulk and f.field_type.dynamic_dim is not None
            and f.field_type.kind in NUMPY_KINDS)

    # -- public ---------------------------------------------------------------

    def encode(self, record: dict) -> EncodedRecord:
        return EncodedRecord(self.format.format_id,
                             bytes(self.encode_body(record)))

    def encode_body(self, record: dict) -> bytearray:
        record = self._normalize(record, self.field_list,
                                 self._length_links,
                                 path=self.format.name)
        body = bytearray(self.field_list.record_length)
        for op in self._ops:
            op(record, body, 0)
        return body

    def encode_wire(self, record: dict) -> bytes:
        """Header + body as one ``bytes``: the parts, joined once."""
        return b"".join(self.encode_wire_parts(record))

    def encode_wire_parts(self, record: dict) -> tuple:
        """The wire as a tuple of buffers, without concatenation.

        Transports frame records directly from these parts (a gather
        send, or one join for the whole frame), so the wire bytes are
        copied at most once instead of once per layer.  A record whose
        top-level var array is a typed buffer (``np.ndarray`` /
        ``array.array``) of at least :data:`SPILL_MIN_BYTES` runs on a
        :class:`_PartsBody` and gets such payloads back as zero-copy
        ``memoryview`` segments over the **caller's array**, between
        ``bytes`` pieces — consume (join/send) them before mutating
        the arrays.  Any other record runs the same ops on a fresh
        ``bytearray`` and is one part; a record that is one fused run
        is one ``pack`` of header and fields (:meth:`_compile_whole`).
        """
        if self._whole is not None and type(record) is dict \
                and record.keys() == self._names:
            return (self._whole(record),)
        record = self._normalize(record, self.field_list,
                                 self._length_links,
                                 path=self.format.name)
        spill = False
        for name, elem in self._spillable:
            value = record[name]
            spill |= isinstance(value, (np.ndarray, array.array)) \
                and len(value) * elem >= SPILL_MIN_BYTES
        body = (_PartsBody if spill else bytearray)(
            self.field_list.record_length)
        for op in self._ops:
            op(record, body, 0)
        length = _COUNT32.pack(len(body))
        if not (spill and body.segments):
            return (b"".join((self._header12, length, body)),)
        parts = [self._header12 + length]
        prev = 0
        with memoryview(body) as raw:
            for cut, segment in body.segments:
                if cut > prev:
                    parts.append(bytes(raw[prev:cut]))
                parts.append(segment)
                prev = cut
            if bytearray.__len__(body) > prev:
                parts.append(bytes(raw[prev:]))
        return tuple(parts)

    # -- normalization ---------------------------------------------------------

    def _normalize(self, record: dict, field_list: FieldList,
                   links: dict[str, str], path: str) -> dict:
        """Check field presence, auto-fill sizing fields, reject
        unknown fields."""
        if not isinstance(record, dict):
            raise EncodeError(
                f"{path}: record must be a mapping, got "
                f"{type(record).__name__}")
        known = field_list.name_set()
        if record.keys() == known:
            # steady-state fast path: every field present and every
            # sizing field already telling the truth — no dict copy
            for array_name, (length_name, trailing) in links.items():
                value = record[array_name]
                flat = 0 if value is None else len(value)
                if (trailing > 1 and flat % trailing) or \
                        record[length_name] != flat // trailing:
                    break   # let the slow path fill or reject it
            else:
                return record
        unknown = set(record) - known
        if unknown:
            raise EncodeError(f"{path}: unknown fields {sorted(unknown)}")
        out = dict(record)
        for array_name, (length_name, trailing) in links.items():
            value = out.get(array_name)
            flat = 0 if value is None else len(value)
            if trailing > 1 and flat % trailing:
                raise EncodeError(
                    f"{path}.{array_name}: element count {flat} not a "
                    f"multiple of trailing dimensions {trailing}")
            actual = flat // trailing
            declared = out.get(length_name)
            if declared is None:
                out[length_name] = actual
            elif declared != actual:
                raise EncodeError(
                    f"{path}.{array_name}: sizing field "
                    f"{length_name!r} = {declared} but array has "
                    f"{actual} elements")
        missing = known - set(out)
        if missing:
            raise EncodeError(f"{path}: missing fields {sorted(missing)}")
        return out

    # -- compilation ------------------------------------------------------------

    def _compile(self, field_list: FieldList,
                 enums: dict[str, tuple[str, ...]]) -> list:
        """One op per :func:`~repro.pbio.walk.walk_fields` step."""
        emit = self._EMITTERS
        return [emit[step.kind](self, step, enums)
                for step in walk_fields(field_list, fuse=self.fuse)]

    def _compile_fused_run(self, step: Step, enums):
        """One pack_into for a contiguous run of scalar fields.

        Padding holes between fields become ``x`` pad codes, so the
        compiled struct writes the run's full byte span in one call.
        The op's code is shared by every run of the same length
        (:func:`_fused_run_factory`); this run supplies only its
        ``Struct``, start offset, converters and keys, and keeps them
        as ``op.layout`` for :meth:`_compile_whole`.
        """
        run = step.run
        self.fused_runs += 1
        self.fused_fields += len(run)
        start = run[0][0].offset
        parts: list[str] = []
        cells: list = []          # convert, exact type, key, ...
        singles: list[tuple] = [] # (name, convert, struct format)
        pos = start
        for field, ftype in run:
            if field.offset > pos:
                parts.append(f"{field.offset - pos}x")
            code = struct_code(ftype.kind, field.size)
            parts.append(code)
            convert = _scalar_converter(ftype.kind, field,
                                        enums.get(field.name))
            cells += (convert, _EXACT.get(ftype.kind), field.name)
            singles.append((field.name, convert, self._bo + code))
            pos = field.offset + field.size
        codes, singles = "".join(parts), tuple(singles)
        make_op, _, _ = _fused_run_factory(len(run))
        op = make_op(struct.Struct(self._bo + codes).pack_into, start,
                     singles, *cells)
        # the run's codes from offset 0, where it ends, and its cells
        op.layout = (f"{start}x{codes}", pos, singles, cells)
        return op

    def _compile_whole(self):
        """``wire(record)`` for a format whose fixed section is one
        fused run, else None: the constant header and the run op's
        layout in one ``Struct.pack`` (``16s``, codes, trailing pad),
        generated like the op, so a bad value fails with its message."""
        if len(self._ops) != 1 or not hasattr(self._ops[0], "layout"):
            return None
        codes, end, singles, cells = self._ops[0].layout
        length = self.field_list.record_length
        packer = struct.Struct(f"{self._bo}16s{codes}{length - end}x")
        _, make_whole, _ = _fused_run_factory(len(singles))
        return make_whole(packer.pack,
                          self._header12 + _COUNT32.pack(length),
                          singles, *cells)

    def _compile_scalar(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        name, offset = field.name, field.offset
        kind = ftype.kind
        packer = struct.Struct(self._bo + struct_code(kind, field.size))
        convert = _scalar_converter(kind, field, enums.get(name))

        def op(record, body, base, *, _p=packer, _c=convert):
            try:
                _p.pack_into(body, base + offset, _c(record[name]))
            except (struct.error, TypeError, ValueError) as exc:
                raise EncodeError(
                    f"field {name!r}: cannot encode "
                    f"{record[name]!r}: {exc}") from None
        return op

    def _compile_string(self, step: Step, enums):
        name, offset = step.field.name, step.field.offset
        ptr = self._ptr

        def op(record, body, base):
            value = record[name]
            if value is None:
                ptr.pack_into(body, base + offset, 0)
                return
            if not isinstance(value, str):
                raise EncodeError(
                    f"field {name!r}: string value expected, got "
                    f"{type(value).__name__}")
            data = value.encode("utf-8") + b"\x00"
            where = len(body)
            body.extend(data)
            ptr.pack_into(body, base + offset, where)
        return op

    def _compile_fixed_array(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        name, offset = field.name, field.offset
        count = ftype.static_element_count
        kind = ftype.kind
        if kind == "char":
            size = count

            def char_op(record, body, base):
                data = _char_array_bytes(name, record[name], size)
                body[base + offset:base + offset + size] = data
            return char_op
        dtype = numpy_dtype(kind, field.size, self._byte_order,
                            field_name=name)
        convert = _scalar_converter(kind, field, enums.get(name))
        nbytes = count * field.size
        bulk = self.bulk
        stats = BULK_STATS
        packer = struct.Struct(
            f"{self._bo}{count}{struct_code(kind, field.size)}")

        def op(record, body, base):
            value = record[name]
            if bulk and isinstance(value, (np.ndarray, array.array)):
                src = _bulk_view(value, dtype)
                if src is not None:
                    view, converted = src
                    if len(view) != nbytes:
                        raise EncodeError(
                            f"field {name!r}: fixed array of {count}, "
                            f"got {len(view) // field.size} elements")
                    row = stats.row()
                    row["bulk_converts" if converted
                        else "zero_copy_views"] += 1
                    body[base + offset:base + offset + nbytes] = view
                    row["copied_arrays"] += 1
                    row["copied_bytes"] += nbytes
                    return
                stats.count("fallback_arrays")
            items = _as_items(name, value)
            if len(items) != count:
                raise EncodeError(
                    f"field {name!r}: fixed array of {count}, got "
                    f"{len(items)} elements")
            body[base + offset:base + offset + nbytes] = \
                _run_bytes(name, items, packer, dtype, convert)
        return op

    def _compile_var_array(self, step: Step, enums):
        field, ftype = step.field, step.ftype
        name, offset = field.name, field.offset
        kind = ftype.kind
        ptr = self._ptr
        counter = self._count
        self_sized = step.sizing is None
        trailing = ftype.static_element_count  # row-major trailing dims
        if kind == "char":
            def char_op(record, body, base):
                value = record[name]
                if value is None:
                    ptr.pack_into(body, base + offset, 0)
                    return
                data = (value.encode("utf-8") if isinstance(value, str)
                        else bytes(value))
                where = _append_var(body, 4 if self_sized else 1)
                if self_sized:
                    body.extend(counter.pack(len(data)))
                body.extend(data)
                ptr.pack_into(body, base + offset, where)
            return char_op
        dtype = numpy_dtype(kind, field.size, self._byte_order,
                            field_name=name)
        convert = _scalar_converter(kind, field, enums.get(name))
        align = max(field.size, 4 if self_sized else 1)
        elem = field.size
        bulk = self.bulk
        stats = BULK_STATS
        code = self._bo + "%d" + struct_code(kind, elem)

        def op(record, body, base):
            value = record[name]
            if value is None:
                ptr.pack_into(body, base + offset, 0)
                return
            view = None
            if bulk and isinstance(value, (np.ndarray, array.array)):
                src = _bulk_view(value, dtype)
                if src is None:
                    stats.count("fallback_arrays")
                else:
                    view, converted = src
            if view is None:
                items = _as_items(name, value)
                count = len(items)
            else:
                count = len(view) // elem
            if trailing > 1 and count % trailing:
                raise EncodeError(
                    f"field {name!r}: element count {count} not a "
                    f"multiple of trailing dimensions {trailing}")
            where = _append_var(body, align)
            if self_sized:
                body.extend(counter.pack(count // (trailing or 1)))
                pad = _round_up(len(body), elem) - len(body)
                if pad:
                    body.extend(b"\x00" * pad)
            start = len(body)
            if view is None:
                body += _run_bytes(name, items, _run_packer(code % count),
                                   dtype, convert)
            else:
                row = stats.row()
                row["bulk_converts" if converted
                    else "zero_copy_views"] += 1
                nbytes = len(view)
                segments = getattr(body, "segments", None)
                if segments is not None and nbytes >= SPILL_MIN_BYTES:
                    segments.append((bytearray.__len__(body), view))
                    row["spilled_segments"] += 1
                    row["spilled_bytes"] += nbytes
                else:
                    body += view
                    row["copied_arrays"] += 1
                    row["copied_bytes"] += nbytes
            ptr.pack_into(body, base + offset,
                          where if self_sized else start)
        return op

    def _compile_subformat(self, step: Step, enums):
        field, ftype, sub_list = step.field, step.ftype, step.sub
        name, offset = field.name, field.offset
        sub_ops = self._compile(sub_list, {})
        sub_links = _length_links(sub_list)
        stride = sub_list.record_length
        normalize = self._normalize
        ptr = self._ptr
        counter = self._count
        path = f"{self.format.name}.{name}"

        if not ftype.dims:
            def scalar_op(record, body, base):
                sub = normalize(record[name], sub_list, sub_links, path)
                for op in sub_ops:
                    op(sub, body, base + offset)
            return scalar_op

        count = ftype.static_element_count
        if ftype.is_inline:
            def fixed_op(record, body, base):
                items = _as_items(name, record[name])
                if len(items) != count:
                    raise EncodeError(
                        f"field {name!r}: fixed array of {count}, got "
                        f"{len(items)} records")
                for i, item in enumerate(items):
                    sub = normalize(item, sub_list, sub_links,
                                    f"{path}[{i}]")
                    at = base + offset + i * stride
                    for op in sub_ops:
                        op(sub, body, at)
            return fixed_op

        self_sized = step.sizing is None

        def var_op(record, body, base):
            value = record[name]
            if value is None:
                ptr.pack_into(body, base + offset, 0)
                return
            items = _as_items(name, value)
            where = _append_var(body, 8)
            if self_sized:
                body.extend(counter.pack(len(items)))
                pad = _round_up(len(body), 8) - len(body)
                body.extend(b"\x00" * pad)
            # Pointer values are virtual (wire) offsets, but pack_into
            # addresses the physical buffer — they differ once a bulk
            # payload has spilled out of the body as a segment.
            zone = len(body)
            zone_physical = bytearray.__len__(body)
            body.extend(bytes(stride * len(items)))
            for i, item in enumerate(items):
                sub = normalize(item, sub_list, sub_links,
                                f"{path}[{i}]")
                at = zone_physical + i * stride
                for op in sub_ops:
                    op(sub, body, at)
            ptr.pack_into(body, base + offset,
                          where if self_sized else zone)
        return var_op

    _EMITTERS = {"run": _compile_fused_run, "scalar": _compile_scalar,
                 "string": _compile_string, "fixed": _compile_fixed_array,
                 "var": _compile_var_array, "sub": _compile_subformat}


#: kind -> the exact type whose values skip the converter (None: no type)
_EXACT = {"integer": int, "unsigned": int, "float": float}


@lru_cache(maxsize=64)
def _fused_run_factory(length: int):
    """The code of every fused run over *length* fields, compiled once
    per process (bounded: run lengths are schema data).

    Returns three makers that close one run's facts over that shared
    code: ``make_op(pack_into, start, singles, convert0, exact0, key0,
    ...)`` (the run's encode op), ``make_whole(pack, header, singles,
    ...)`` (``wire(record)`` of a record that is the run alone) and
    ``make_decode(unpack_from, length, short, key0, ...)`` (its
    ``record(data, at, n)``).  Each is one C-level struct call, a value
    of its field's exact type packed as is, any other converted.
    """
    cells = ", ".join(f"_c{i}, _t{i}, _k{i}" for i in range(length))
    args = ", ".join(
        f"_x if type(_x := record[_k{i}]) is _t{i} else _c{i}(_x)"
        for i in range(length))
    keys = ", ".join(f"_k{i}" for i in range(length))
    values = ", ".join(f"_v{i}" for i in range(length))
    stores = "".join(f"        out[_k{i}] = _v{i}\n" for i in range(length))
    diagnose = (
        "        except EncodeError:\n"
        "            raise\n"
        "        except (_struct_error, TypeError, ValueError,\n"
        "                KeyError) as exc:\n"
        "            _diag(record, _singles, exc)\n")
    src = (
        f"def make_op(_pack_into, _start, _singles, {cells}):\n"
        "    def _fused(record, body, base):\n"
        "        try:\n"
        f"            _pack_into(body, base + _start, {args})\n"
        f"{diagnose}"
        "    return _fused\n"
        f"def make_whole(_pack, _header, _singles, {cells}):\n"
        "    def _whole(record):\n"
        "        try:\n"
        f"            return _pack(_header, {args})\n"
        f"{diagnose}"
        "    return _whole\n"
        f"def make_decode(_unpack_from, _length, _short, {keys}):\n"
        "    def _decode(data, at, n):\n"
        "        if n < _length:\n"
        "            _short(n)\n"
        f"        {values}, = _unpack_from(data, at)\n"
        "        out = _dict()\n"
        f"{stores}"
        "        return out\n"
        "    return _decode\n")
    env = {"EncodeError": EncodeError, "_struct_error": struct.error,
           "_diag": _diagnose_fused_failure, "_dict": dict}
    # the one exec in the package: source generated right here from an
    # integer — no text from a format, the disk or a peer reaches it
    exec(compile(src, "<fused-run>", "exec"), env)
    return env["make_op"], env["make_whole"], env["make_decode"]


def _diagnose_fused_failure(record: dict, singles, exc) -> None:
    """A fused pack failed; re-run its fields one by one so the error
    names the specific offender, not just the run."""
    for name, convert, fmt in singles:
        if name not in record:
            raise EncodeError(
                f"field {name!r}: missing from record") from None
        try:
            struct.pack(fmt, convert(record[name]))
        except EncodeError:
            raise
        except (struct.error, TypeError, ValueError) as err:
            raise EncodeError(
                f"field {name!r}: cannot encode "
                f"{record[name]!r}: {err}") from None
    names = [name for name, _, _ in singles]
    raise EncodeError(
        f"cannot encode fused run {names}: {exc}") from None


def _length_links(field_list: FieldList) -> dict[str, tuple[str, int]]:
    """Map array field -> (sizing field, trailing-dim element count).

    The sizing field counts *rows*: for ``float[n][3]`` a record with
    six elements has ``n == 2``.
    """
    links: dict[str, tuple[str, int]] = {}
    for field in field_list:
        ftype = field.field_type
        dim = ftype.dynamic_dim
        if dim is not None and dim.length_field is not None:
            links[field.name] = (dim.length_field,
                                 ftype.static_element_count)
    return links


def _append_var(body: bytearray, align: int) -> int:
    """Pad *body* to *align*; return the aligned end offset."""
    where = _round_up(len(body), align)
    if where != len(body):
        body.extend(b"\x00" * (where - len(body)))
    return where


def _as_items(name: str, value):
    if isinstance(value, (list, np.ndarray, array.array)):
        return value  # typed buffers keep their cast semantics
    if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
        raise EncodeError(
            f"field {name!r}: sequence expected, got "
            f"{type(value).__name__}")
    return list(value)


_PACK_ERRORS = (struct.error, TypeError, ValueError, OverflowError)

#: ``Struct`` per var-array run format; the count in it is caller
#: data, so the memo is bounded
_run_packer = lru_cache(maxsize=128)(struct.Struct)


def _run_bytes(name: str, items, packer: struct.Struct,
               dtype: np.dtype, convert) -> bytes:
    """Wire bytes of one array run that did not move as a bulk view.

    A list crosses in one ``packer.pack`` — *packer* is the run's
    whole-length Struct in the wire's byte order.  What struct refuses
    (enum names, numpy scalars in integer slots, ...) goes through the
    field's scalar rules and is packed again; what those refuse too is
    re-run element by element so the error carries the index.
    """
    if not isinstance(items, list):
        try:
            return np.ascontiguousarray(items, dtype=dtype).tobytes()
        except (ValueError, TypeError, OverflowError) as exc:
            raise EncodeError(
                f"field {name!r}: cannot encode array: {exc}") from None
    try:
        return packer.pack(*items)
    except _PACK_ERRORS:
        pass
    try:
        return packer.pack(*[convert(item) for item in items])
    except (EncodeError, *_PACK_ERRORS):
        pass
    one = struct.Struct(packer.format[0] + packer.format[-1])
    prefix = f"field {name!r}"
    for i, item in enumerate(items):
        try:
            one.pack(convert(item))
        except EncodeError as exc:
            raise EncodeError(str(exc).replace(
                prefix, f"{prefix}[{i}]", 1)) from None
        except _PACK_ERRORS as exc:
            raise EncodeError(f"{prefix}[{i}]: cannot encode "
                              f"{item!r}: {exc}") from None
    raise EncodeError(f"{prefix}: cannot encode array")


def _char_array_bytes(name: str, value, size: int) -> bytes:
    if isinstance(value, str):
        data = value.encode("utf-8")
    elif isinstance(value, (bytes, bytearray)):
        data = bytes(value)
    else:
        raise EncodeError(
            f"field {name!r}: char array expects str/bytes, got "
            f"{type(value).__name__}")
    if len(data) > size:
        raise EncodeError(
            f"field {name!r}: {len(data)} bytes exceed char[{size}]")
    return data + b"\x00" * (size - len(data))


def _scalar_converter(kind: str, field: IOField,
                      enum_values: tuple[str, ...] | None):
    name = field.name
    if kind == "enumeration":
        if enum_values is None:
            # Subformat enums are validated at format construction; a
            # missing table here means integer indices only.
            return lambda v: int(v)
        index = {v: i for i, v in enumerate(enum_values)}
        limit = len(enum_values)

        def conv_enum(value):
            if isinstance(value, str):
                try:
                    return index[value]
                except KeyError:
                    raise EncodeError(
                        f"field {name!r}: {value!r} not in enumeration "
                        f"{list(enum_values)}") from None
            i = int(value)
            if not 0 <= i < limit:
                raise EncodeError(
                    f"field {name!r}: enum index {i} out of range")
            return i
        return conv_enum
    if kind == "boolean":
        return lambda v: 1 if v else 0
    if kind == "char":
        def conv_char(value):
            if isinstance(value, str):
                if len(value) != 1:
                    raise EncodeError(
                        f"field {name!r}: char expects one character")
                cp = ord(value)
                if cp > 0xFF:
                    raise EncodeError(
                        f"field {name!r}: char {value!r} outside "
                        "single-byte range")
                return cp
            return int(value)
        return conv_char
    if kind == "float":
        return float
    # integer / unsigned

    def conv_int(value):
        if type(value) is int:   # exact ints dominate the hot path
            return value
        if isinstance(value, bool) or not isinstance(value, (int,
                                                             np.integer)):
            raise EncodeError(
                f"field {name!r}: integer expected, got "
                f"{type(value).__name__}")
        return int(value)
    return conv_int


# ---------------------------------------------------------------------------
# process-wide codec plan cache
# ---------------------------------------------------------------------------

ENCODERS = PlanFrontEnd("encoder")


def encoder_for_format(fmt: IOFormat) -> RecordEncoder:
    """The process-wide compiled encoder for *fmt*.

    Keyed by the format's digest-derived :class:`FormatID` (identical
    metadata registered anywhere shares one ID, hence one plan), so
    every context, wire codec and one-shot helper reuses a single
    compiled plan per format.  See
    :class:`~repro.pbio.plancache.PlanFrontEnd` for the cache contract
    (LRU, single-flight, ``repro_codec_plans_total`` misses count
    actual compiles) and :func:`~repro.pbio.plancache.compile_codec`
    for what a miss does.
    """
    return ENCODERS.get(fmt.format_id, lambda: compile_codec(
        "encoder", RecordEncoder, fmt))


def clear_encoder_cache(*, persistent: bool = True) -> None:
    """Drop all cached encoder plans (tests and format churn).

    Also purges the active disk tier, so a cleared format cannot be
    restored from it; pass ``persistent=False`` to keep the disk tier
    (e.g. to measure a warm start)."""
    ENCODERS.clear(persistent=persistent)
