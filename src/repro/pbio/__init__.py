"""PBIO: Portable Binary I/O — the binary communication mechanism.

A from-scratch reimplementation of the PBIO library the paper builds
on (Eisenhauer & Daley, "Fast heterogeneous binary data interchange",
HCW 2000).  PBIO's model:

* A message format is described by an **IOField list** — for each field
  its name, type string, element size, and byte offset within the
  sender's native C structure (the paper's Fig. 2 middle panel).
* Formats are **registered** with an :class:`IOContext`, which obtains
  a compact **format ID** from a :class:`FormatServer`; records on the
  wire carry only the ID, and receivers fetch metadata on demand.
* Records are transmitted in the **sender's native layout** ("receiver
  makes right"): encoding is a near-copy of the in-memory structure,
  with pointer-valued fields (strings, dynamic arrays) swizzled to
  offsets into a trailing variable-length section.
* Receivers build a **conversion plan** from the wire format to their
  own registered format: byte order, sizes, and field offsets are
  reconciled once per (wire format, native format) pair and reused for
  every record.
* Formats support **restricted evolution**: fields added by newer
  senders are ignored by older receivers; fields missing from older
  senders decode to defaults.

Heterogeneity is simulated through explicit :class:`Architecture`
descriptions (endianness, type sizes, alignment), so a single host can
exercise e.g. SPARC-to-x86 exchanges exactly as the paper's testbed did.
"""

from repro.pbio.machine import (
    Architecture,
    NATIVE,
    SPARC_32,
    SPARC_V9,
    X86_32,
    X86_64,
    architecture_by_name,
)
from repro.pbio.types import FieldType, parse_field_type
from repro.pbio.fields import IOField, FieldList
from repro.pbio.layout import StructLayout, compute_layout, field_list_for
from repro.pbio.format import IOFormat, FormatID
from repro.pbio.format_server import FormatServer, global_format_server
from repro.pbio.context import IOContext
from repro.pbio.encode import EncodedRecord
from repro.pbio.evolution import can_evolve, evolution_report
from repro.pbio.iofile import IOFileReader, IOFileWriter

__all__ = [
    "Architecture",
    "EncodedRecord",
    "FieldList",
    "FieldType",
    "FormatID",
    "FormatServer",
    "IOContext",
    "IOField",
    "IOFileReader",
    "IOFileWriter",
    "IOFormat",
    "NATIVE",
    "SPARC_32",
    "SPARC_V9",
    "StructLayout",
    "X86_32",
    "X86_64",
    "architecture_by_name",
    "can_evolve",
    "compute_layout",
    "evolution_report",
    "field_list_for",
    "global_format_server",
    "parse_field_type",
]
