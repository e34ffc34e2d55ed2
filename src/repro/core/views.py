"""Runtime type extension: client-customized format views.

The paper's future-work scenario (section 1): "less capable
visualization engines such as handhelds can customize remote metadata
for their own needs."  A *view* is a client-side derivation of a
discovered format — a subset of its fields, optionally with numeric
precision reduced — that the client binds and registers as its own
native format.  PBIO's restricted-evolution conversion then delivers
exactly the view's fields from full records sent by unmodified peers.

Usage::

    xmit.load_url(url)                       # full GridMeta discovered
    view = derive_view(xmit.ir, "GridMeta",
                       fields=["timestep", "min_depth", "max_depth"],
                       name="GridMetaHandheld")
    xmit.ir.add_format(view)                 # now bindable like any format
    token = xmit.bind("GridMetaHandheld")
    receiver_ctx.register(token.artifact)
    small = receiver_ctx.decode_as(wire, "GridMetaHandheld")
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.ir import FieldIR, FormatIR, IRSet, TypeRef
from repro.errors import XMITError


def derive_view(ir: IRSet, format_name: str, *,
                fields: list[str] | None = None,
                name: str | None = None,
                reduce_floats: bool = False,
                drop_arrays: bool = False) -> FormatIR:
    """Derive a reduced :class:`FormatIR` from a discovered format.

    ``fields``       keeps only the named fields (in base-format order);
    ``reduce_floats`` narrows 64-bit floats to 32-bit (handheld-class
    precision; conversion stays lossless *for the receiver* because the
    wire value is converted on decode, not re-encoded);
    ``drop_arrays``  removes dynamic-array payload fields (and their
    now-unreferenced sizing fields) — metadata-only consumption.

    The derived format keeps the base field names and types, so PBIO's
    conversion planner (:mod:`repro.pbio.convert`) maps full wire
    records onto it by name with no custom code.
    """
    base = ir.format(format_name)
    selected = list(base.fields)

    if drop_arrays:
        dropped = {f.name for f in selected
                   if f.array is not None and f.array.fixed_size is None}
        sizing_still_needed = {
            f.array.length_field for f in selected
            if f.array is not None and f.array.length_field
            and f.name not in dropped}
        orphan_sizers = {
            f.array.length_field for f in selected
            if f.array is not None and f.array.length_field
            and f.name in dropped} - sizing_still_needed
        selected = [f for f in selected
                    if f.name not in dropped
                    and f.name not in orphan_sizers]

    if fields is not None:
        wanted = set(fields)
        unknown = wanted - {f.name for f in base.fields}
        if unknown:
            raise XMITError(
                f"view of {format_name!r}: unknown fields "
                f"{sorted(unknown)}")
        # keep sizing fields for any kept dynamic arrays
        for field in base.fields:
            if field.name in wanted and field.array is not None and \
                    field.array.length_field:
                wanted.add(field.array.length_field)
        selected = [f for f in selected if f.name in wanted]

    if reduce_floats:
        selected = [self_reduce_float(f) for f in selected]

    if not selected:
        raise XMITError(
            f"view of {format_name!r} selects no fields")

    view_name = name or f"{format_name}View"
    if view_name == format_name:
        raise XMITError("a view must not shadow its base format")
    return FormatIR(
        name=view_name, fields=tuple(selected),
        documentation=(f"Client-derived view of {format_name} "
                       f"({len(selected)}/{len(base.fields)} fields)."))


def self_reduce_float(field: FieldIR) -> FieldIR:
    tref = field.type
    if tref.is_primitive and tref.kind == "float" and tref.bits == 64:
        return replace(field, type=TypeRef(kind="float", bits=32))
    return field


def view_conversion_names(base: FormatIR, view: FormatIR) \
        -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(kept, dropped) field names, for reporting/UI."""
    view_names = set(view.field_names())
    kept = tuple(n for n in base.field_names() if n in view_names)
    dropped = tuple(n for n in base.field_names()
                    if n not in view_names)
    return kept, dropped
