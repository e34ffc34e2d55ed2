"""XDR (Sun RPC) and CORBA CDR (IIOP): one aligned-stream walk.

Both encodings walk a record element at a time into a flat byte
stream: structs are their members in declaration order, strings and
variable arrays lead with a u32 length, fixed arrays are elements back
to back.  They differ only in a small policy table per codec:

* **XDR**, RFC 1014 -- the canonical *sender-makes-right* format the
  paper contrasts with PBIO's receiver-makes-right design.  Every
  sender converts to big-endian regardless of its own architecture, so
  homogeneous little-endian pairs pay conversion twice.  Every item
  occupies a multiple of 4 bytes: 1/2-byte integers widen to 4, and
  string data is NUL-padded to a 4-byte unit.
* **CDR**, the Common Data Representation IIOP puts on the wire.  A
  one-byte **byte-order flag** leads each encapsulation; the sender
  writes in its own order and the *reader makes right* (the paper's
  section 5 discussion of IIOP).  Every primitive is aligned to its
  natural size *relative to the start of the encapsulation* (CDR's
  defining quirk), enums are unsigned longs, and a string's length
  counts its trailing NUL.

Marshaling is element-at-a-time with per-element alignment arithmetic
and value copies at both ends -- IIOP "is not sufficient to allow such
message exchanges without copying of data at both sender and receiver",
which is why CORBA sits above PBIO but below XML in Fig. 8.
"""

from __future__ import annotations

import struct

from repro.errors import WireFormatError
from repro.pbio.fields import FieldList
from repro.pbio.format import IOFormat
from repro.pbio.types import FieldType
from repro.pbio.walk import STRUCT_CODES
from repro.wire.base import WireCodec, items_of

_U32 = ("unsigned", 4)


class AlignedStreamCodec(WireCodec):
    """The record walk shared by XDR and CDR; a subclass is its policy."""

    #: (kind, native size) -> (struct code, wire width)
    scalars: dict[tuple[str, int], tuple[str, int]]
    #: a primitive starts at a multiple of ``min(width, max_align)``,
    #: counted from the start of the stream
    max_align: int
    #: trailing NULs a string's length counts, and the unit its
    #: payload is padded to
    string_nul: int
    string_pad: int
    #: a leading byte names the sender's byte order (else big-endian)
    order_flag: bool

    def __init__(self, fmt: IOFormat) -> None:
        super().__init__(fmt)
        self._label = self.codec_name.upper()
        self._bo = (fmt.architecture.struct_byte_order_char
                    if self.order_flag else ">")
        self._tables = {bo: {
            key: (struct.Struct(bo + code), min(width, self.max_align))
            for key, (code, width) in self.scalars.items()}
            for bo in "<>"}

    def _scalar(self, table: dict, kind: str, size: int, name: str):
        try:
            return table[(kind, size)]
        except KeyError:
            raise WireFormatError(
                f"{name}: no {self._label} representation for "
                f"{kind}/{size}") from None

    # -- encode -----------------------------------------------------------------

    def encode(self, record: dict) -> bytes:
        out = bytearray()
        if self.order_flag:
            out.append(0 if self._bo == ">" else 1)  # 1 = little-endian
        self._put_struct(out, self._tables[self._bo],
                         self.format.field_list, record)
        return bytes(out)

    def _put_struct(self, out: bytearray, table: dict,
                    field_list: FieldList, record: dict) -> None:
        for field in field_list:
            ftype = field.field_type
            name = field.name
            try:
                value = record[name]
            except KeyError:
                raise WireFormatError(
                    f"field {name!r} missing from record") from None
            if ftype.is_string or (ftype.kind == "char" and ftype.dims):
                self._put_string(out, table, value)
                continue
            if ftype.dynamic_dim is not None:
                items = items_of(value)
                self._put(out, table[_U32], len(items), name)
            elif ftype.dims:
                items = list(value)
                if len(items) != ftype.static_element_count:
                    raise WireFormatError(
                        f"{name}: expected {ftype.static_element_count} "
                        f"elements, got {len(items)}")
            else:
                items = (value,)
            for item in items:
                self._put_element(out, table, field_list, ftype,
                                  field.size, item, name)

    def _put_element(self, out: bytearray, table: dict,
                     field_list: FieldList, ftype: FieldType, size: int,
                     value, name: str) -> None:
        kind = ftype.kind
        if kind == "subformat":
            self._put_struct(out, table, field_list.subformat(ftype.base),
                             value)
            return
        if kind == "enumeration" and isinstance(value, str):
            values = self.format.enums.get(name)
            if values is None or value not in values:
                raise WireFormatError(
                    f"{name}: unknown enum label {value!r}")
            value = values.index(value)
        elif kind == "char" and isinstance(value, str):
            if len(value) != 1:
                raise WireFormatError(f"{name}: char expects one character")
            value = ord(value)
        elif kind == "boolean":
            value = 1 if value else 0
        elif kind == "float":
            value = float(value)
        self._put(out, self._scalar(table, kind, size, name), value, name)

    def _put(self, out: bytearray, scalar, value, name: str) -> None:
        packer, align = scalar
        pad = -len(out) % align
        if pad:
            out.extend(bytes(pad))
        try:
            out.extend(packer.pack(value))
        except struct.error as exc:
            raise WireFormatError(
                f"{name}: cannot {self._label}-encode {value!r}: "
                f"{exc}") from None

    def _put_string(self, out: bytearray, table: dict, value) -> None:
        data = ("" if value is None else str(value)).encode("utf-8")
        length = len(data) + self.string_nul
        self._put(out, table[_U32], length, "string length")
        out.extend(data)
        out.extend(bytes(self.string_nul + -length % self.string_pad))

    # -- decode -----------------------------------------------------------------

    def decode(self, data: bytes) -> dict:
        reader = _Reader(data, self._label)
        bo = ">"
        if self.order_flag:
            if not data:
                raise WireFormatError(
                    f"empty {self._label} encapsulation")
            bo = "<" if data[0] == 1 else ">"
            reader.pos = 1
        return self._get_struct(reader, self._tables[bo],
                                self.format.field_list)

    def _get_struct(self, reader: "_Reader", table: dict,
                    field_list: FieldList) -> dict:
        record: dict = {}
        for field in field_list:
            ftype = field.field_type
            name = field.name
            if ftype.is_string or (ftype.kind == "char" and ftype.dims):
                record[name] = self._get_string(reader, table)
                continue
            if ftype.dynamic_dim is not None:
                count = reader.take(table[_U32])
            elif ftype.dims:
                count = ftype.static_element_count
            else:
                record[name] = self._get_element(
                    reader, table, field_list, ftype, field.size, name)
                continue
            record[name] = [
                self._get_element(reader, table, field_list, ftype,
                                  field.size, name)
                for _ in range(count)]
        return record

    def _get_element(self, reader: "_Reader", table: dict,
                     field_list: FieldList, ftype: FieldType, size: int,
                     name: str):
        kind = ftype.kind
        if kind == "subformat":
            return self._get_struct(reader, table,
                                    field_list.subformat(ftype.base))
        value = reader.take(self._scalar(table, kind, size, name))
        if kind == "char":
            return chr(value)
        if kind == "boolean":
            return bool(value)
        if kind == "enumeration":
            values = self.format.enums.get(name)
            if values is not None:
                if value >= len(values):
                    raise WireFormatError(
                        f"{name}: enum index {value} out of range")
                return values[value]
        return value

    def _get_string(self, reader: "_Reader", table: dict) -> str:
        length = reader.take(table[_U32])
        start = reader.pos
        end = start + length + -length % self.string_pad
        if end > len(reader.data):
            raise WireFormatError(f"truncated {self._label} string")
        reader.pos = end
        return str(reader.data[start:start + length - self.string_nul],
                   "utf-8")


class _Reader:
    """Cursor over one encoded record."""

    __slots__ = ("data", "pos", "label")

    def __init__(self, data: bytes, label: str) -> None:
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, scalar):
        unpacker, align = scalar
        pos = self.pos + -self.pos % align
        try:
            value = unpacker.unpack_from(self.data, pos)[0]
        except struct.error as exc:
            raise WireFormatError(
                f"truncated {self.label} data: {exc}") from None
        self.pos = pos + unpacker.size
        return value


_WIDEN = {"b": "i", "h": "i", "B": "I", "H": "I"}


class XDRWireCodec(AlignedStreamCodec):
    """RFC 1014 canonical big-endian encoding."""

    codec_name = "xdr"
    scalars = {key: (_WIDEN.get(code, code), max(key[1], 4))
               for key, code in STRUCT_CODES.items()}
    max_align = 4
    string_nul = 0
    string_pad = 4
    order_flag = False


class CDRWireCodec(AlignedStreamCodec):
    """CDR encapsulation with reader-makes-right byte order."""

    codec_name = "cdr"
    scalars = {key: ("I", 4) if key[0] == "enumeration" else (code, key[1])
               for key, code in STRUCT_CODES.items()}
    max_align = 8
    string_nul = 1
    string_pad = 1
    order_flag = True
