"""IOFormat: a registered message format and its wire metadata.

An :class:`IOFormat` bundles a format name, the sender-native
:class:`~repro.pbio.fields.FieldList` (with its architecture), and any
enumeration value tables.  Its :class:`FormatID` is a truncated digest
of the canonical metadata serialization, so identical formats registered
anywhere in the system share an ID — this is what lets PBIO put only an
8-byte identifier on the wire (Fig. 2 caption: "format identifiers are
generated which allow component programs to retrieve the metadata on
demand").

The canonical serialization is a self-contained, line-oriented,
tab-separated text format (PBIO had its own metadata encoding; we avoid
dragging in a generic serializer on the wire path).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.errors import (
    FormatRegistrationError, LayoutError, UnknownFormatError,
)
from repro.pbio.fields import FieldList, IOField
from repro.pbio.machine import Architecture

_MAGIC = "PBIOFMT"
_VERSION = 1


@dataclass(frozen=True, order=True)
class FormatID:
    """64-bit self-certifying format identifier."""

    value: int

    MAX = (1 << 64) - 1

    def __post_init__(self) -> None:
        if not 0 <= self.value <= self.MAX:
            raise FormatRegistrationError(
                f"format id {self.value:#x} out of 64-bit range")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(8, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FormatID":
        if len(data) != 8:
            raise UnknownFormatError(
                f"format id must be 8 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __str__(self) -> str:
        return f"{self.value:016x}"


def _check_token(text: str, what: str) -> str:
    if "\t" in text or "\n" in text or not text:
        raise FormatRegistrationError(
            f"{what} {text!r} must be non-empty and free of tabs/newlines")
    return text


class IOFormat:
    """A format as known to contexts and the format server."""

    def __init__(self, name: str, field_list: FieldList,
                 enums: dict[str, tuple[str, ...]] | None = None) -> None:
        self.name = _check_token(name, "format name")
        self.field_list = field_list
        self.enums: dict[str, tuple[str, ...]] = {
            k: tuple(v) for k, v in (enums or {}).items()}
        for fname, values in self.enums.items():
            if fname not in field_list:
                raise FormatRegistrationError(
                    f"enum table for unknown field {fname!r}")
            if not values:
                raise FormatRegistrationError(
                    f"enum table for field {fname!r} is empty")
        for field in field_list:
            if field.field_type.kind == "enumeration" and \
                    field.name not in self.enums:
                raise FormatRegistrationError(
                    f"enumeration field {field.name!r} requires a value "
                    "table")
        self._canonical: bytes | None = None

    # -- identity ------------------------------------------------------------

    @property
    def architecture(self) -> Architecture:
        return self.field_list.architecture

    def canonical_bytes(self) -> bytes:
        if self._canonical is None:
            self._canonical = serialize_format(self)
        return self._canonical

    @cached_property
    def format_id(self) -> FormatID:
        # computed once, then a plain instance attribute: the encode
        # path reads it per record
        digest = hashlib.sha256(self.canonical_bytes()).digest()
        return FormatID(int.from_bytes(digest[:8], "big"))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IOFormat):
            return self.canonical_bytes() == other.canonical_bytes()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.format_id)

    def __repr__(self) -> str:
        return (f"IOFormat({self.name!r}, id={self.format_id}, "
                f"{len(self.field_list)} fields, "
                f"arch={self.architecture.name})")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def serialize_format(fmt: IOFormat) -> bytes:
    """Serialize *fmt* to the canonical wire metadata text."""
    lines: list[str] = [f"{_MAGIC}\t{_VERSION}"]
    lines.append(f"name\t{fmt.name}")
    arch = fmt.architecture
    lines.append(f"arch\t{arch.name}\t{arch.byte_order}"
                 f"\t{arch.max_alignment}")
    for atomic in sorted(arch.sizes):
        lines.append(f"size\t{atomic}\t{arch.sizes[atomic]}")
    _serialize_field_list(lines, fmt.field_list)
    for fname in sorted(fmt.enums):
        values = fmt.enums[fname]
        for v in values:
            _check_token(v, "enum value")
        lines.append("enum\t" + "\t".join((fname,) + values))
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _serialize_field_list(lines: list[str], field_list: FieldList) -> None:
    lines.append(f"record\t{field_list.record_length}")
    for sub_name in sorted(field_list.subformats):
        lines.append(f"subformat\t{_check_token(sub_name, 'subformat')}")
        _serialize_field_list(lines, field_list.subformats[sub_name])
        lines.append("endsub")
    for field in field_list:
        _check_token(field.name, "field name")
        _check_token(field.type, "field type")
        lines.append(f"field\t{field.name}\t{field.type}"
                     f"\t{field.size}\t{field.offset}")


def deserialize_format(data: bytes) -> IOFormat:
    """Parse canonical wire metadata back into an :class:`IOFormat`."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnknownFormatError(f"metadata is not UTF-8: {exc}") from None
    lines = [ln for ln in text.split("\n") if ln]
    parser = _MetadataParser(lines)
    try:
        return parser.parse()
    except ValueError as exc:
        raise UnknownFormatError(
            f"malformed numeric field in metadata: {exc}") from None


class _MetadataParser:
    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.pos = 0

    def _next(self) -> list[str]:
        if self.pos >= len(self.lines):
            raise UnknownFormatError("truncated format metadata")
        parts = self.lines[self.pos].split("\t")
        self.pos += 1
        return parts

    def _peek_tag(self) -> str:
        if self.pos >= len(self.lines):
            return ""
        return self.lines[self.pos].split("\t", 1)[0]

    def parse(self) -> IOFormat:
        magic = self._next()
        if (len(magic) != 2 or magic[0] != _MAGIC
                or int(magic[1]) != _VERSION):
            raise UnknownFormatError(
                f"bad metadata header {magic!r}")
        tag, name = self._expect("name", 2)
        arch = self._parse_arch()
        field_list = self._parse_field_list(arch)
        enums: dict[str, tuple[str, ...]] = {}
        while self._peek_tag() == "enum":
            parts = self._next()
            if len(parts) < 3:
                raise UnknownFormatError("malformed enum line")
            enums[parts[1]] = tuple(parts[2:])
        self._expect("end", 1)
        _ = tag
        # only the concrete registration/layout failures are metadata
        # problems; anything else (MemoryError, KeyboardInterrupt, a
        # fuzz-discovered bug) must propagate, not masquerade as a
        # format error
        try:
            return IOFormat(name, field_list, enums)
        except (FormatRegistrationError, LayoutError) as exc:
            raise UnknownFormatError(
                f"inconsistent format metadata: {exc}") from exc

    def _expect(self, tag: str, arity: int) -> list[str]:
        parts = self._next()
        if parts[0] != tag or len(parts) != arity:
            raise UnknownFormatError(
                f"expected {tag!r} line, got {parts!r}")
        return parts

    def _parse_arch(self) -> Architecture:
        parts = self._expect("arch", 4)
        name, byte_order, max_alignment = parts[1], parts[2], int(parts[3])
        sizes: dict[str, int] = {}
        while self._peek_tag() == "size":
            _, atomic, size = self._next()
            sizes[atomic] = int(size)
        try:
            return Architecture(name=name, byte_order=byte_order,
                                sizes=sizes, max_alignment=max_alignment)
        except LayoutError as exc:
            raise UnknownFormatError(
                f"bad architecture in metadata: {exc}") from exc

    def _parse_field_list(self, arch: Architecture) -> FieldList:
        parts = self._expect("record", 2)
        record_length = int(parts[1])
        subformats: dict[str, FieldList] = {}
        fields: list[IOField] = []
        while True:
            tag = self._peek_tag()
            if tag == "subformat":
                _, sub_name = self._next()
                subformats[sub_name] = self._parse_field_list(arch)
                self._expect("endsub", 1)
            elif tag == "field":
                fparts = self._next()
                if len(fparts) != 5:
                    raise UnknownFormatError(
                        f"malformed field line {fparts!r}")
                fields.append(IOField(name=fparts[1], type=fparts[2],
                                      size=int(fparts[3]),
                                      offset=int(fparts[4])))
            else:
                break
        try:
            return FieldList(fields, architecture=arch,
                             record_length=record_length,
                             subformats=subformats)
        except (LayoutError, FormatRegistrationError) as exc:
            raise UnknownFormatError(
                f"inconsistent field list in metadata: {exc}") from exc
