"""C structure layout computation.

Given field declarations ``(name, type_string[, element_size])`` and an
:class:`~repro.pbio.machine.Architecture`, compute the offsets, padding
and total size the platform's C compiler would produce, following the
System V-style rules all modeled ABIs share:

* each member is aligned to ``min(natural alignment, max_alignment)``;
* struct alignment is the maximum member alignment;
* total size is rounded up to the struct alignment (trailing padding).

This is the piece that lets XMIT go from architecture-independent XML
metadata to "structure offsets and data type sizes for BCMs requiring
them" (section 3.1) without a C compiler on the discovery path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LayoutError
from repro.pbio.fields import FieldList, IOField
from repro.pbio.machine import Architecture, NATIVE
from repro.pbio.types import FieldType, parse_field_type

FieldSpec = "tuple[str, str] | tuple[str, str, int]"


@dataclass(frozen=True)
class StructLayout:
    """The result of layout: a field list plus struct alignment."""

    field_list: FieldList
    alignment: int

    @property
    def architecture(self) -> Architecture:
        return self.field_list.architecture


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def element_size_for(arch: Architecture, ftype: FieldType,
                     explicit: int | None,
                     subformats: dict[str, FieldList]) -> int:
    """Per-element size of *ftype* on *arch* (explicit size wins for
    integers/floats, as C code may use any width)."""
    kind = ftype.kind
    if kind == "subformat":
        try:
            return subformats[ftype.base].record_length
        except KeyError:
            raise LayoutError(
                f"unknown subformat {ftype.base!r} during layout"
            ) from None
    if kind == "string":
        return arch.sizeof("pointer")
    if kind in ("char", "boolean"):
        return 1
    if explicit is not None:
        return explicit
    if kind == "float":
        return arch.sizeof("double" if ftype.base == "double" else "float")
    # integer / unsigned / enumeration default to C int
    return arch.sizeof("int")


def element_alignment_for(arch: Architecture, ftype: FieldType,
                          element_size: int,
                          subformats: dict[str, FieldList],
                          sub_alignments: dict[str, int]) -> int:
    if ftype.kind == "subformat":
        return sub_alignments.get(ftype.base,
                                  min(arch.max_alignment, 8))
    return min(element_size, arch.max_alignment)


def compute_layout(specs, *, architecture: Architecture = NATIVE,
                   subformats: dict[str, FieldList] | None = None,
                   sub_alignments: dict[str, int] | None = None) \
        -> StructLayout:
    """Lay out *specs* (an iterable of ``(name, type)`` or
    ``(name, type, element_size)``) on *architecture*.

    ``subformats`` supplies already-laid-out nested structs (their
    FieldLists must target the same architecture); ``sub_alignments``
    their alignments (defaulting to pointer alignment when omitted).
    """
    arch = architecture
    subformats = dict(subformats or {})
    sub_alignments = dict(sub_alignments or {})
    for name, sub in subformats.items():
        if sub.architecture is not arch:
            raise LayoutError(
                f"subformat {name!r} laid out for "
                f"{sub.architecture.name}, not {arch.name}")

    offset = 0
    struct_align = 1
    fields: list[IOField] = []
    for spec in specs:
        if len(spec) == 2:
            name, type_string = spec
            explicit = None
        elif len(spec) == 3:
            name, type_string, explicit = spec
        else:
            raise LayoutError(f"bad field spec {spec!r}")
        ftype = parse_field_type(type_string)

        elem_size = element_size_for(arch, ftype, explicit, subformats)
        if ftype.is_inline:
            align = element_alignment_for(arch, ftype, elem_size,
                                          subformats, sub_alignments)
            extent = elem_size * ftype.static_element_count
        else:
            # pointer-valued: the struct slot is a pointer.
            align = arch.alignof("pointer")
            extent = arch.sizeof("pointer")
        offset = _round_up(offset, align)
        fields.append(IOField(name=name, type=str(ftype), size=elem_size,
                              offset=offset))
        offset += extent
        struct_align = max(struct_align, align)

    record_length = _round_up(max(offset, 1), struct_align)
    field_list = FieldList(fields, architecture=arch,
                           record_length=record_length,
                           subformats=subformats)
    return StructLayout(field_list=field_list, alignment=struct_align)


def field_list_for(specs, *, architecture: Architecture = NATIVE,
                   subformats: dict[str, FieldList] | None = None) \
        -> FieldList:
    """Convenience: :func:`compute_layout` returning just the field list."""
    return compute_layout(specs, architecture=architecture,
                          subformats=subformats).field_list
