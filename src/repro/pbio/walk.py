"""The one walk over a :class:`FieldList` both codec compilers share.

Where a fused scalar run starts and breaks, and which of the six step
kinds a field dispatches to, is decided here and nowhere else; the
encoder and the decoder are each a step-kind -> emitter table over
:func:`walk_fields`.  The struct / numpy type tables the emitters size
their closures with live beside it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import EncodeError
from repro.pbio.fields import FieldList, IOField
from repro.pbio.types import FieldType

#: padding gaps larger than this break a fused run (a run spanning a
#: huge hole would pack pad bytes instead of skipping them)
MAX_RUN_GAP = 16

#: struct format characters by (kind, element size).
STRUCT_CODES: dict[tuple[str, int], str] = {
    ("integer", 1): "b", ("integer", 2): "h",
    ("integer", 4): "i", ("integer", 8): "q",
    ("unsigned", 1): "B", ("unsigned", 2): "H",
    ("unsigned", 4): "I", ("unsigned", 8): "Q",
    ("enumeration", 1): "B", ("enumeration", 2): "H",
    ("enumeration", 4): "I", ("enumeration", 8): "Q",
    ("float", 4): "f", ("float", 8): "d",
    ("boolean", 1): "B",
    ("char", 1): "B",
}

#: numpy dtype kind letters by field kind (sized at use).
NUMPY_KINDS = {"integer": "i", "unsigned": "u", "float": "f",
               "enumeration": "u", "boolean": "u"}


def struct_code(kind: str, size: int) -> str:
    try:
        return STRUCT_CODES[(kind, size)]
    except KeyError:
        raise EncodeError(
            f"no wire representation for {kind} of size {size}") from None


def numpy_dtype(kind: str, size: int, byte_order: str,
                field_name: str | None = None) -> np.dtype:
    try:
        letter = NUMPY_KINDS[kind]
    except KeyError:
        where = f"field {field_name!r}: " if field_name else ""
        raise EncodeError(
            f"{where}no bulk representation for kind {kind}") from None
    prefix = "<" if byte_order == "little" else ">"
    return np.dtype(f"{prefix}{letter}{size}")


def fusible(field: IOField, ftype: FieldType) -> bool:
    """True for fields a fused scalar run may absorb: fixed-size
    atomic scalars living inline in the fixed section."""
    return (not ftype.dims and not ftype.is_string
            and (ftype.kind, field.size) in STRUCT_CODES)


class Step(NamedTuple):
    """One unit of codec compilation.

    ``kind`` is ``run`` (>= 2 contiguous fusible scalars, all in
    ``run``; ``field`` is the first), ``scalar``, ``string``, ``fixed``
    (inline array), ``var`` (pointer-valued array) or ``sub`` (nested
    format, any shape; ``sub`` is its field list).  A dynamic array's
    ``sizing`` is its length field **in the enclosing field list** —
    the list this walk is over, not the top-level one — or None when
    the array carries its own count.
    """

    kind: str
    field: IOField
    ftype: FieldType
    run: tuple = ()
    sizing: IOField | None = None
    sub: FieldList | None = None


def walk_fields(field_list: FieldList, *,
                fuse: bool = True) -> Iterator[Step]:
    """The compilation steps for *field_list*, in field order.

    With ``fuse`` off every scalar is its own step (the per-field
    reference plan the fused one is differentially tested against).
    """
    run: list[tuple[IOField, FieldType]] = []
    for field in field_list:
        ftype = field_list.field_type(field.name)
        if fuse and fusible(field, ftype):
            if run and field.offset - (run[-1][0].offset
                                       + run[-1][0].size) > MAX_RUN_GAP:
                yield _run_step(run)
                run = []
            run.append((field, ftype))
            continue
        if run:
            yield _run_step(run)
            run = []
        dim = ftype.dynamic_dim
        sizing = (field_list[dim.length_field]
                  if dim is not None and dim.length_field else None)
        if ftype.kind == "subformat":
            yield Step("sub", field, ftype, sizing=sizing,
                       sub=field_list.subformat(ftype.base))
        elif ftype.is_string:
            yield Step("string", field, ftype)
        elif not ftype.dims:
            yield Step("scalar", field, ftype)
        elif ftype.is_inline:
            yield Step("fixed", field, ftype)
        else:
            yield Step("var", field, ftype, sizing=sizing)
    if run:
        yield _run_step(run)


def _run_step(run: list) -> Step:
    field, ftype = run[0]
    if len(run) == 1:
        return Step("scalar", field, ftype)
    return Step("run", field, ftype, run=tuple(run))
