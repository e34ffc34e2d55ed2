"""Format inspection.

:func:`describe_format` prints a format's field table, Fig. 2 style:
each field's offset, type and size, nested subformats, and enum
tables.  It reads metadata only.
"""

from __future__ import annotations

from io import StringIO

from repro.pbio.fields import FieldList
from repro.pbio.format import IOFormat


def describe_format(fmt: IOFormat) -> str:
    """A human-readable field table for *fmt*."""
    out = StringIO()
    arch = fmt.architecture
    out.write(f"format {fmt.name!r}  id={fmt.format_id}\n")
    out.write(f"architecture {arch.name} ({arch.byte_order}-endian), "
              f"record length {fmt.field_list.record_length}\n")
    _write_field_table(out, fmt.field_list, indent="")
    for field_name, values in sorted(fmt.enums.items()):
        out.write(f"enum table for {field_name!r}: "
                  f"{list(values)}\n")
    return out.getvalue()


def _write_field_table(out: StringIO, field_list: FieldList,
                       indent: str) -> None:
    for field in field_list:
        out.write(f"{indent}  [{field.offset:4d}] "
                  f"{field.name:<16s} {field.type:<24s} "
                  f"size {field.size}\n")
        ftype = field.field_type
        if ftype.kind == "subformat":
            out.write(f"{indent}    subformat {ftype.base}:\n")
            _write_field_table(out, field_list.subformat(ftype.base),
                               indent + "    ")
