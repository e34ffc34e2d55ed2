"""MPI-style pack/unpack codec.

Models how MPI(CH) of the paper's era marshaled user structures: the
application builds a **derived datatype** (``MPI_Type_struct``) whose
flattened *typemap* lists every ``(offset, basic type)`` pair, and
``MPI_Pack`` walks that typemap copying elements one block at a time
into a contiguous buffer.  No byte-order conversion happens on pack
(MPI assumes a homogeneous communicator or converts on receive); the
cost driver is the per-block datatype-walk and copy, which is why the
paper's reference [12] measured MPICH roughly 10x slower than PBIO for
~100-byte structures.

Dynamic content (strings, runtime-sized arrays) is where the model gets
clunky in real MPI too: such fields cannot live in a static typemap, so
they are packed after the fixed typemap walk with explicit
length-prefixed appends (the idiom MPI applications actually used).
"""

from __future__ import annotations

import struct

from repro.errors import WireFormatError
from repro.pbio.format import IOFormat
from repro.pbio.types import FieldType
from repro.pbio.walk import STRUCT_CODES
from repro.wire.base import WireCodec, items_of


class _TypemapEntry:
    """One block of the flattened derived datatype."""

    __slots__ = ("field_path", "code", "count", "packer", "kind",
                 "is_array")

    def __init__(self, field_path: tuple[str, ...], code: str,
                 count: int, byte_order: str, kind: str,
                 is_array: bool) -> None:
        self.field_path = field_path
        self.code = code
        self.count = count
        self.packer = struct.Struct(byte_order + code * count)
        self.kind = kind
        self.is_array = is_array


class MPIWireCodec(WireCodec):
    """Derived-datatype pack/unpack."""

    codec_name = "mpi"

    def __init__(self, fmt: IOFormat) -> None:
        super().__init__(fmt)
        self._bo = fmt.architecture.struct_byte_order_char
        self._count = struct.Struct(self._bo + "I")
        # "Type commit": flatten the structure into a typemap plus a
        # list of dynamic appendices.
        self._typemap: list[_TypemapEntry] = []
        self._dynamic: list[tuple[tuple[str, ...], FieldType, int]] = []
        self._flatten(fmt.field_list, ())

    def _flatten(self, field_list, path: tuple[str, ...]) -> None:
        for field in field_list:
            ftype = field.field_type
            fpath = path + (field.name,)
            if ftype.kind == "subformat":
                sub = field_list.subformat(ftype.base)
                if ftype.dims and ftype.dynamic_dim is None:
                    for i in range(ftype.static_element_count):
                        self._flatten(sub, fpath + (str(i),))
                elif ftype.dims:
                    self._dynamic.append((fpath, ftype,
                                          field.size))
                else:
                    self._flatten(sub, fpath)
            elif ftype.is_string or ftype.dynamic_dim is not None:
                self._dynamic.append((fpath, ftype, field.size))
            else:
                code = self._code(ftype, field.size)
                self._typemap.append(_TypemapEntry(
                    fpath, code, ftype.static_element_count, self._bo,
                    ftype.kind, bool(ftype.dims)))

    def _code(self, ftype: FieldType, size: int) -> str:
        try:
            # MPI basic types are the C types, packed in native order
            return STRUCT_CODES[(ftype.kind, size)]
        except KeyError:
            raise WireFormatError(
                f"no MPI basic type for {ftype.kind}/{size}") from None

    # -- pack -------------------------------------------------------------------

    def encode(self, record: dict) -> bytes:
        out = bytearray()
        # MPI_Pack: walk the typemap, copying block by block.
        for entry in self._typemap:
            values = self._fetch(record, entry.field_path)
            if not entry.is_array:
                out.extend(entry.packer.pack(
                    self._coerce(values, entry.code)))
            else:
                if entry.kind == "char" and isinstance(values, str):
                    values = values.ljust(entry.count, "\x00")
                items = [self._coerce(v, entry.code) for v in values]
                if len(items) != entry.count:
                    raise WireFormatError(
                        f"{'.'.join(entry.field_path)}: expected "
                        f"{entry.count} elements, got {len(items)}")
                out.extend(entry.packer.pack(*items))
        for fpath, ftype, elem_size in self._dynamic:
            self._pack_dynamic(out, record, fpath, ftype, elem_size)
        return bytes(out)

    def _pack_dynamic(self, out: bytearray, record: dict,
                      fpath: tuple[str, ...], ftype: FieldType,
                      elem_size: int) -> None:
        value = self._fetch(record, fpath)
        if ftype.is_string or ftype.kind == "char":
            data = b"" if value is None else str(value).encode("utf-8")
            out.extend(self._count.pack(len(data)))
            out.extend(data)
            return
        if ftype.kind == "subformat":
            items = items_of(value)
            out.extend(self._count.pack(len(items)))
            sub_codec = MPIWireCodec(_sub_format(self.format, ftype.base))
            for item in items:
                packed = sub_codec.encode(item)
                out.extend(self._count.pack(len(packed)))
                out.extend(packed)
            return
        items = items_of(value)
        out.extend(self._count.pack(len(items)))
        code = self._code(ftype, elem_size)
        packer = struct.Struct(self._bo + code)
        for item in items:  # element-at-a-time, as MPI_Pack does
            out.extend(packer.pack(self._coerce(item, code)))

    @staticmethod
    def _coerce(value, code: str):
        if code in ("f", "d"):
            return float(value)
        if isinstance(value, str):
            if len(value) != 1:
                raise WireFormatError(
                    f"char value must be one character, got {value!r}")
            return ord(value)
        if isinstance(value, bool):
            return int(value)
        return int(value)

    @staticmethod
    def _fetch(record: dict, path: tuple[str, ...]):
        value = record
        for part in path:
            if part.isdigit() and isinstance(value, (list, tuple)):
                value = value[int(part)]
            else:
                try:
                    value = value[part]
                except (KeyError, TypeError):
                    raise WireFormatError(
                        f"field {'.'.join(path)!r} missing from record"
                    ) from None
        return value

    # -- unpack ------------------------------------------------------------------

    def decode(self, data: bytes) -> dict:
        try:
            return self._unpack(data)
        except struct.error as exc:
            raise WireFormatError(f"truncated MPI buffer: {exc}") from None

    def _unpack(self, data: bytes) -> dict:
        record: dict = {}
        pos = 0
        for entry in self._typemap:
            values = entry.packer.unpack_from(data, pos)
            pos += entry.packer.size
            if entry.kind == "char":
                values = [chr(v) for v in values]
                if entry.is_array:
                    text = "".join(values)
                    values = [text.split("\x00", 1)[0]]
                    self._store_raw(record, entry.field_path, values[0])
                    continue
            elif entry.kind == "boolean":
                values = [bool(v) for v in values]
            elif entry.code in ("f", "d"):
                values = [float(v) for v in values]
            value = list(values) if entry.is_array else values[0]
            self._store_raw(record, entry.field_path, value)
        for fpath, ftype, elem_size in self._dynamic:
            pos = self._unpack_dynamic(data, pos, record, fpath, ftype,
                                       elem_size)
        return record

    def _unpack_dynamic(self, data: bytes, pos: int, record: dict,
                        fpath: tuple[str, ...], ftype: FieldType,
                        elem_size: int) -> int:
        (n,) = self._count.unpack_from(data, pos)
        pos += 4
        if ftype.is_string or ftype.kind == "char":
            _check_room(data, pos + n)
            value = data[pos:pos + n].decode("utf-8")
            pos += n
            self._store_raw(record, fpath, value)
            return pos
        if ftype.kind == "subformat":
            sub_codec = MPIWireCodec(_sub_format(self.format, ftype.base))
            items = []
            for _ in range(n):
                (blen,) = self._count.unpack_from(data, pos)
                pos += 4
                _check_room(data, pos + blen)
                items.append(sub_codec.decode(data[pos:pos + blen]))
                pos += blen
            self._store_raw(record, fpath, items)
            return pos
        code = self._code(ftype, elem_size)
        unpacker = struct.Struct(self._bo + code)
        items = []
        for _ in range(n):
            items.append(unpacker.unpack_from(data, pos)[0])
            pos += unpacker.size
        if code in ("f", "d"):
            items = [float(x) for x in items]
        self._store_raw(record, fpath, items)
        return pos

    @staticmethod
    def _store_raw(record: dict, path: tuple[str, ...], value) -> None:
        target = record
        for i, part in enumerate(path[:-1]):
            nxt = path[i + 1]
            if part.isdigit():
                continue  # list levels created below
            if nxt.isdigit():
                lst = target.setdefault(part, [])
                idx = int(nxt)
                while len(lst) <= idx:
                    lst.append({})
                target = lst[idx]
            else:
                target = target.setdefault(part, {})
        last = path[-1]
        if not last.isdigit():
            target[last] = value


def _sub_format(fmt: IOFormat, sub_name: str) -> IOFormat:
    """Wrap a subformat's field list as a standalone IOFormat."""
    return IOFormat(sub_name, fmt.field_list.subformat(sub_name))


def _check_room(data: bytes, end: int) -> None:
    if end > len(data):
        raise WireFormatError(
            f"truncated MPI buffer: needs {end} bytes, has {len(data)}")
