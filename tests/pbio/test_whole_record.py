"""Whole-record plans against the per-field baseline.

A format whose fixed section is one fused run encodes as one
``Struct.pack`` of header and fields and decodes as one
``unpack_from``.  Across drawn all-scalar formats — padding holes up to
``MAX_RUN_GAP`` between fields, trailing padding, all four ABIs — the
wire must be the header plus the ``fuse=False`` body, the decode must
be the ``fuse=False`` decode, and every rejected record or body must
fail with the ``fuse=False`` plan's message.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import DecodeError, EncodeError
from repro.pbio.context import IOContext
from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import RecordEncoder, build_header
from repro.pbio.fields import FieldList, IOField
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_32, SPARC_V9, X86_32, X86_64
from repro.pbio.walk import MAX_RUN_GAP

from tests.strategies import value_for

ABIS = (X86_64, SPARC_V9, X86_32, SPARC_32)

#: (IOField type, size): every fusible scalar but enumerations
SCALARS = [("integer", 1), ("integer", 2), ("integer", 4),
           ("integer", 8), ("unsigned integer", 1),
           ("unsigned integer", 2), ("unsigned integer", 4),
           ("unsigned integer", 8), ("float", 4), ("float", 8),
           ("boolean", 1), ("char", 1)]
INTEGERS = ("integer", "unsigned integer")


@st.composite
def whole_record_format(draw):
    """``(IOFormat, [(name, type, size)])``: 2-8 scalars, each after a
    hole of 0..MAX_RUN_GAP bytes, then 0..16 bytes of padding."""
    arch = draw(st.sampled_from(ABIS))
    kinds = draw(st.lists(st.sampled_from(SCALARS), min_size=2,
                          max_size=8))
    fields, specs, pos = [], [], 0
    for i, (type_string, size) in enumerate(kinds):
        pos += draw(st.integers(0, MAX_RUN_GAP))
        fields.append(IOField(f"f{i}", type_string, size, pos))
        specs.append((f"f{i}", type_string, size))
        pos += size
    length = pos + draw(st.integers(0, 16))
    field_list = FieldList(fields, architecture=arch, record_length=length)
    return IOFormat("P", field_list), specs


def record_for(specs):
    return st.fixed_dictionaries(
        {name: value_for(type_string, size)
         for name, type_string, size in specs})


def message(call, *args) -> str:
    with pytest.raises((EncodeError, DecodeError)) as info:
        call(*args)
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(case=whole_record_format(), data=st.data())
def test_wire_and_decode_equal_the_per_field_plan(case, data):
    fmt, specs = case
    record = data.draw(record_for(specs))
    encoder = RecordEncoder(fmt)
    assert encoder._whole is not None
    body = bytes(RecordEncoder(fmt, fuse=False).encode_body(record))
    header = build_header(fmt.format_id, len(body),
                          big_endian=fmt.architecture.byte_order == "big")
    assert encoder.encode_wire_parts(record) == (header + body,)
    assert len(body) == fmt.field_list.record_length
    plain = RecordDecoder(fmt, fuse=False).decode(body)
    decoder = RecordDecoder(fmt)
    assert decoder.decode(body) == plain
    assert (decoder._whole is None) == any(
        t in ("boolean", "char") for _, t, _ in specs)


def _missing(record, specs, data):
    del record[data.draw(st.sampled_from(sorted(record)))]


def _unknown(record, specs, data):
    record["zz_extra"] = 1


def _ints(specs):
    return [(name, t, size) for name, t, size in specs if t in INTEGERS]


def _bool_in_int(record, specs, data):
    assume(_ints(specs))
    record[data.draw(st.sampled_from(_ints(specs)))[0]] = True


def _out_of_range(record, specs, data):
    assume(_ints(specs))
    name, t, size = data.draw(st.sampled_from(_ints(specs)))
    record[name] = data.draw(st.sampled_from(
        [1 << (8 * size), -(1 << (8 * size)) - 1]))


def _wrong_type(record, specs, data):
    name = data.draw(st.sampled_from(
        [name for name, t, _ in specs if t != "boolean"] or [None]))
    assume(name is not None)
    record[name] = data.draw(st.sampled_from(["five", [1], None, 2.5j]))


CORRUPTIONS = {"missing": _missing, "unknown": _unknown,
               "bool_in_int": _bool_in_int, "out_of_range": _out_of_range,
               "wrong_type": _wrong_type}


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("corrupt", list(CORRUPTIONS))
@given(case=whole_record_format(), data=st.data())
def test_rejected_records_fail_with_the_per_field_message(corrupt, case,
                                                          data):
    fmt, specs = case
    record = dict(data.draw(record_for(specs)))
    CORRUPTIONS[corrupt](record, specs, data)
    expected = message(RecordEncoder(fmt, fuse=False).encode_body, record)
    encoder = RecordEncoder(fmt)
    assert message(encoder.encode_wire_parts, record) == expected
    assert message(encoder.encode_wire, record) == expected


@settings(max_examples=60, deadline=None)
@given(case=whole_record_format(), data=st.data())
def test_a_short_body_fails_with_the_per_field_message(case, data):
    fmt, specs = case
    body = bytes(RecordEncoder(fmt).encode_body(data.draw(record_for(specs))))
    short = body[:data.draw(st.integers(0, len(body) - 1))]
    assert message(RecordDecoder(fmt).decode, short) == \
        message(RecordDecoder(fmt, fuse=False).decode, short)


def test_one_generated_source_per_run_length():
    """The run's op and both whole-record functions come from one
    ``_fused_run_factory`` entry, and the whole-record wire is one
    ``pack``."""
    specs = [IOField("a", "integer", 4, 0), IOField("b", "float", 8, 8)]
    fmt = IOFormat("Q", FieldList(specs, architecture=X86_64))
    encoder, decoder = RecordEncoder(fmt), RecordDecoder(fmt)
    (op,) = encoder._ops
    made = (op, encoder._whole, decoder._whole)
    assert {fn.__code__.co_filename for fn in made} == {"<fused-run>"}
    wire = encoder.encode_wire({"a": 1, "b": 2.0})
    assert wire[16:] == struct.pack("<i4xd", 1, 2.0)
    assert decoder.decode(wire[16:]) == {"a": 1, "b": 2.0}


#: one integer, one unsigned, one double and one float slot
MIXED = [IOField("i", "integer", 4, 0),
         IOField("u", "unsigned integer", 2, 4),
         IOField("d", "float", 8, 8), IOField("f", "float", 4, 16)]


@pytest.mark.parametrize("value", [True, np.int32(3), 1, "1.5", 2.5],
                         ids=["bool", "np.int32", "int", "str", "float"])
@pytest.mark.parametrize("slot", ["i", "u", "d", "f"])
def test_only_a_value_of_its_slots_exact_type_skips_the_converter(
        slot, value):
    """The whole-record pack lets an exact ``int`` into an integer slot
    and an exact ``float`` into a float slot uncalled; anything else
    meets the field's converter, so ``True`` is rejected where an
    integer is expected and ``np.int32`` / an ``int`` or ``str`` for a
    double are coerced — byte for byte, message for message, as the
    per-field plan does."""
    fmt = IOFormat("M", FieldList(MIXED, architecture=X86_64))
    record = {"i": -1, "u": 2, "d": 0.5, "f": 0.25, slot: value}
    plain, encoder = RecordEncoder(fmt, fuse=False), RecordEncoder(fmt)
    assert encoder._whole is not None
    try:
        body = bytes(plain.encode_body(record))
    except EncodeError:
        expected = message(plain.encode_body, record)
        assert message(encoder.encode_wire_parts, record) == expected
        assert message(encoder.encode_body, record) == expected
        return
    assert encoder.encode_wire(record)[16:] == body
    assert bytes(encoder.encode_body(record)) == body


def test_the_contexts_wire_decode_reads_at_16_and_fails_as_decode_does():
    """The context's bound entry for a whole-record format is the
    generated unpack at offset 16 of the wire — no slice, no
    ``RecordDecoder.decode`` — with the same length check and text."""
    fmt = IOFormat("M", FieldList(MIXED, architecture=X86_64))
    ctx = IOContext(format_server=FormatServer())
    ctx.register(fmt)
    record = {"i": -1, "u": 2, "d": 0.5, "f": 0.25}
    wire = ctx.encode(fmt, record)
    assert ctx.decode(wire).record == record
    decode, _name, _fid = ctx._bound["list"][fmt.format_id.to_bytes()]
    assert decode is ctx.decoder_for(fmt)._whole
    for n in (0, 7, fmt.field_list.record_length - 1):
        short = build_header(fmt.format_id, n, big_endian=False) + \
            wire[16:16 + n]
        assert message(ctx.decode, short) == message(
            RecordDecoder(fmt, fuse=False).decode, wire[16:16 + n])
