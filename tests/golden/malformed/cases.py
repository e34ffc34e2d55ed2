"""Minimized malformed-frame regression vectors.

Each entry is one frame the hardened decode layer must *reject* with a
typed :class:`~repro.errors.DecodeError` whose message matches
``match`` — a minimized reproduction of a bug class the fuzz harness
(:mod:`repro.testing.fuzz`) is meant to keep fixed:

* pointers aliasing the fixed region (silent misdecode before the
  pointer range check),
* pointers or self-sizing counters past the end of the record (raw
  ``struct.error`` escapes before normalization),
* smashed element counts (multi-GB allocations before the clamp),
* record headers whose declared lengths lie about the buffer, or
  that set a flag bit no sender may set (bit ``0x2`` once marked a
  shared-header record batch; it is retired and rejected).

Frames are derived deterministically from the pristine golden vectors
(``tests/golden/vectors.json``) and committed as hex in
``frames.json`` — regenerate with ``python tests/golden/malformed/regen.py``
only alongside an intentional wire change.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from tests.golden.cases import ARCHITECTURES, build_format, load_vectors
from repro.pbio.encode import HEADER_LEN

FRAMES_PATH = Path(__file__).with_name("frames.json")

_U32BE = struct.Struct(">I")


def _pristine(case: str, order: str) -> bytearray:
    return bytearray(bytes.fromhex(load_vectors()[case][order]))


def _arch(order: str):
    return ARCHITECTURES[order]


def _field(case: str, order: str, name: str):
    fmt = build_format(case, _arch(order))
    return fmt, fmt.field_list[name]


def _poke_pointer(wire: bytearray, case: str, order: str,
                  field_name: str, value: int) -> bytearray:
    """Overwrite *field_name*'s pointer slot in the body with *value*
    (arch byte order, arch pointer width)."""
    fmt, field = _field(case, order, field_name)
    width = fmt.architecture.sizeof("pointer")
    code = fmt.architecture.struct_byte_order_char + (
        "I" if width == 4 else "Q")
    struct.pack_into(code, wire, HEADER_LEN + field.offset, value)
    return wire

def _poke_scalar(wire: bytearray, case: str, order: str,
                 field_name: str, code: str, value: int) -> bytearray:
    fmt, field = _field(case, order, field_name)
    struct.pack_into(fmt.architecture.struct_byte_order_char + code,
                     wire, HEADER_LEN + field.offset, value)
    return wire


def _read_pointer(wire: bytearray, case: str, order: str,
                  field_name: str) -> int:
    fmt, field = _field(case, order, field_name)
    width = fmt.architecture.sizeof("pointer")
    code = fmt.architecture.struct_byte_order_char + (
        "I" if width == 4 else "Q")
    return struct.unpack_from(code, wire, HEADER_LEN + field.offset)[0]


# -- the vectors ------------------------------------------------------------

def _string_ptr_alias_fixed(order: str) -> bytearray:
    # channel's pointer re-aimed into EchoEvent's own fixed section:
    # pre-hardening this silently decoded fixed-region bytes as text
    wire = _pristine("EchoEvent", order)
    return _poke_pointer(wire, "EchoEvent", order, "channel", 8)


def _string_ptr_past_end(order: str) -> bytearray:
    wire = _pristine("EchoEvent", order)
    body_len = len(wire) - HEADER_LEN
    return _poke_pointer(wire, "EchoEvent", order, "channel", body_len)


def _var_ptr_alias_fixed(order: str) -> bytearray:
    # weights' data pointer aimed at the fixed section: pre-hardening
    # np.frombuffer happily decoded `n` doubles of unrelated fields
    wire = _pristine("NestedTelemetry", order)
    return _poke_pointer(wire, "NestedTelemetry", order, "weights", 16)


def _self_sized_count_truncated(order: str) -> bytearray:
    # payload's pointer lands 2 bytes before the end: its u32 element
    # count straddles the record boundary (raw struct.error before)
    wire = _pristine("EchoEvent", order)
    body_len = len(wire) - HEADER_LEN
    return _poke_pointer(wire, "EchoEvent", order, "payload",
                         body_len - 2)


def _self_sized_count_smashed(order: str) -> bytearray:
    # extra's in-band element count smashed to 2^31-1: ~16 GiB of
    # doubles; must be clamped before any allocation
    wire = _pristine("VarArrays", order)
    where = _read_pointer(wire, "VarArrays", order, "extra")
    fmt = build_format("VarArrays", _arch(order))
    struct.pack_into(fmt.architecture.struct_byte_order_char + "I",
                     wire, HEADER_LEN + where, 0x7FFFFFFF)
    return wire


def _sizing_field_smashed(order: str) -> bytearray:
    wire = _pristine("SimpleData", order)
    return _poke_scalar(wire, "SimpleData", order, "size", "i",
                        0x7FFFFFFF)


def _sizing_field_negative(order: str) -> bytearray:
    wire = _pristine("SimpleData", order)
    return _poke_scalar(wire, "SimpleData", order, "size", "i", -1)


def _header_body_len_lies(order: str) -> bytearray:
    wire = _pristine("SimpleData", order)
    body_len = len(wire) - HEADER_LEN
    _U32BE.pack_into(wire, 12, body_len + 100)
    return wire


def _unknown_flags(order: str) -> bytearray:
    # a valid record with the retired batch bit (0x2) set beside the
    # byte-order bit: rejected at the header, never decoded
    wire = _pristine("SimpleData", order)
    wire[3] |= 0x2
    return wire


def _bulk_count_smashed(order: str) -> bytearray:
    # n sizes the 4 KiB bulk payload; smashed to 2^31-1 it claims
    # ~8 GiB of int32s — must be clamped before frombuffer/view
    wire = _pristine("BulkInt32_1k", order)
    return _poke_scalar(wire, "BulkInt32_1k", order, "n", "i",
                        0x7FFFFFFF)


def _bulk_count_negative(order: str) -> bytearray:
    wire = _pristine("BulkInt32_1k", order)
    return _poke_scalar(wire, "BulkInt32_1k", order, "n", "i", -17)


def _bulk_ptr_misaligned(order: str) -> bytearray:
    # values' pointer nudged +3 into the bulk interior: a stride
    # misalignment whose 4 KiB tail now reads past the record end
    wire = _pristine("BulkInt32_1k", order)
    where = _read_pointer(wire, "BulkInt32_1k", order, "values")
    return _poke_pointer(wire, "BulkInt32_1k", order, "values",
                         where + 3)


def _bulk_ptr_alias_fixed(order: str) -> bytearray:
    # extra's pointer spliced into the fixed section: a zero-copy
    # view over it would expose unrelated header fields as doubles
    wire = _pristine("BulkDouble_1k", order)
    return _poke_pointer(wire, "BulkDouble_1k", order, "extra", 4)


def _bulk_selfsized_count_smashed(order: str) -> bytearray:
    # extra's in-band u32 count smashed: 2^31-1 doubles from a 8 KiB
    # region — the bounds check fires before any slice is taken
    wire = _pristine("BulkDouble_1k", order)
    where = _read_pointer(wire, "BulkDouble_1k", order, "extra")
    fmt = build_format("BulkDouble_1k", _arch(order))
    struct.pack_into(fmt.architecture.struct_byte_order_char + "I",
                     wire, HEADER_LEN + where, 0x7FFFFFFF)
    return wire


_CASES: dict[str, tuple] = {
    # name: (builder, base case, expected DecodeError message substring)
    "string_ptr_alias_fixed": (
        _string_ptr_alias_fixed, "EchoEvent",
        "string pointer 8 outside variable region"),
    "string_ptr_past_end": (
        _string_ptr_past_end, "EchoEvent",
        "outside variable region"),
    "var_ptr_alias_fixed": (
        _var_ptr_alias_fixed, "NestedTelemetry",
        "data pointer 16 outside variable region"),
    "self_sized_count_truncated": (
        _self_sized_count_truncated, "EchoEvent",
        "element count at offset"),
    "self_sized_count_smashed": (
        _self_sized_count_smashed, "VarArrays",
        "outside record"),
    "sizing_field_smashed": (
        _sizing_field_smashed, "SimpleData",
        "outside record"),
    "sizing_field_negative": (
        _sizing_field_negative, "SimpleData",
        "negative element count"),
    "header_body_len_lies": (
        _header_body_len_lies, "SimpleData",
        "record truncated"),
    "unknown_flags": (
        _unknown_flags, "SimpleData",
        "unknown record header flags"),
    "bulk_count_smashed": (
        _bulk_count_smashed, "BulkInt32_1k",
        "outside record"),
    "bulk_count_negative": (
        _bulk_count_negative, "BulkInt32_1k",
        "negative element count"),
    "bulk_ptr_misaligned": (
        _bulk_ptr_misaligned, "BulkInt32_1k",
        "outside record"),
    "bulk_ptr_alias_fixed": (
        _bulk_ptr_alias_fixed, "BulkDouble_1k",
        "data pointer 4 outside variable region"),
    "bulk_selfsized_count_smashed": (
        _bulk_selfsized_count_smashed, "BulkDouble_1k",
        "outside record"),
}


def malformed_names() -> list[str]:
    return sorted(_CASES)


def compute_frames() -> dict[str, dict[str, dict[str, str]]]:
    """All malformed vectors as {name: {order: {hex, case, match}}}."""
    out: dict[str, dict[str, dict[str, str]]] = {}
    for name, (builder, case, match) in _CASES.items():
        out[name] = {}
        for order in ARCHITECTURES:
            out[name][order] = {
                "case": case,
                "match": match,
                "hex": bytes(builder(order)).hex(),
            }
    return out


def load_frames() -> dict[str, dict[str, dict[str, str]]]:
    with FRAMES_PATH.open() as fh:
        return json.load(fh)
