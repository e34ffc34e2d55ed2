"""The PBIO metadata target.

Converts IR formats into PBIO :class:`~repro.pbio.format.IOFormat`
objects: IR type references become PBIO type strings and element sizes,
nested formats become subformats (laid out first, dependency order),
and the layout engine supplies the structure offsets and padding for
the requested architecture — "the mapping also includes information
such as structure offsets and data type sizes for BCMs requiring them"
(section 3.1).

This is the artifact the paper's evaluation times: binding a format
through this target plus registering the result is the "XMIT
registration time" of Figs. 3 and 6.
"""

from __future__ import annotations

from repro.core.binding import BindingToken
from repro.core.ir import FieldIR, FormatIR, IRSet, TypeRef
from repro.core.targets.base import MetadataTarget
from repro.errors import TargetError
from repro.pbio.layout import StructLayout, compute_layout
from repro.pbio.machine import Architecture, NATIVE
from repro.pbio.format import IOFormat


class PBIOTarget(MetadataTarget):
    """IR -> IOFormat (field lists laid out for an architecture)."""

    target_name = "pbio"

    def generate(self, ir: IRSet, format_name: str,
                 **options) -> BindingToken:
        self._reject_unknown_options(options, {"architecture"},
                                     self.target_name)
        arch: Architecture = options.get("architecture", NATIVE)
        fmt_ir = ir.format(format_name)
        layout = self._layout(ir, format_name, arch)
        enums = {f.name: ir.enum(f.type.enum_name).values
                 for f in fmt_ir.fields if f.type.is_enum}
        io_format = IOFormat(format_name, layout.field_list, enums)
        return BindingToken(
            format_name=format_name, target=self.target_name,
            artifact=io_format,
            details={"architecture": arch,
                     "alignment": layout.alignment,
                     "subformats": {
                         dep: self._layout(ir, dep, arch).field_list
                         for dep in ir.dependencies(format_name)}})

    def _layout(self, ir: IRSet, format_name: str,
                arch: Architecture) -> StructLayout:
        """The layout of *format_name* on *arch*, nested formats first;
        computed once per loaded IR however many messages nest it."""
        layout = ir.layouts.get((format_name, arch))
        # equal Architectures share a key, but field lists nest by identity
        if layout is None or layout.architecture is not arch:
            fmt_ir = ir.format(format_name)
            nested = {f.type.format_name: self._layout(
                          ir, f.type.format_name, arch)
                      for f in fmt_ir.fields if f.type.is_nested}
            layout = compute_layout(
                self._specs(ir, fmt_ir, arch), architecture=arch,
                subformats={name: sub.field_list
                            for name, sub in nested.items()},
                sub_alignments={name: sub.alignment
                                for name, sub in nested.items()})
            ir.layouts[format_name, arch] = layout
        return layout

    # -- IR -> field specs -------------------------------------------------------

    def _specs(self, ir: IRSet, fmt_ir: FormatIR,
               arch: Architecture) -> list[tuple[str, str, int] |
                                           tuple[str, str]]:
        specs: list = []
        for field in fmt_ir.fields:
            base, size = self._base_type(ir, field.type, arch)
            dims = self._dims(field)
            type_string = base + dims
            if size is None:
                specs.append((field.name, type_string))
            else:
                specs.append((field.name, type_string, size))
        return specs

    def _base_type(self, ir: IRSet, tref: TypeRef,
                   arch: Architecture) -> tuple[str, int | None]:
        if tref.is_nested:
            return tref.format_name, None
        if tref.is_enum:
            return "enumeration", arch.sizeof("int")
        kind = tref.kind
        if kind == "string":
            return "string", None
        if kind == "boolean":
            return "boolean", 1
        if kind == "float":
            return ("double", 8) if tref.bits == 64 else ("float", 4)
        size = arch.int_size_for(tref.bits)
        if kind == "unsigned":
            return "unsigned integer", size
        if kind == "integer":
            return "integer", size
        raise TargetError(f"unmappable IR type {tref.describe()}")

    @staticmethod
    def _dims(field: FieldIR) -> str:
        if field.array is None:
            return ""
        if field.array.fixed_size is not None:
            return f"[{field.array.fixed_size}]"
        if field.array.length_field is not None:
            return f"[{field.array.length_field}]"
        return "[*]"
