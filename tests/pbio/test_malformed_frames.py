"""The committed malformed frames must stay rejected — typed, named.

``tests/golden/malformed/frames.json`` holds one minimized frame per
bug class the hardening fixed (pointer aliasing, smashed counts, lying
envelope lengths).  Every frame must raise :class:`DecodeError` with
the recorded message under both the fused and per-field decode plans;
a frame that starts decoding again is a regression, a frame that
raises anything untyped is a contract break.
"""

from __future__ import annotations

import re
import struct

import pytest

import repro.pbio.decode as decode_mod
from repro.errors import DecodeError, EncodeError
from repro.pbio.context import IOContext
from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import (
    HEADER_LEN, RecordEncoder, build_batch, is_batch, parse_batch,
    parse_header,
)
from repro.pbio.format import FormatID, IOFormat
from repro.pbio.layout import compute_layout
from repro.pbio.machine import X86_64
from tests.golden.cases import ARCHITECTURES, build_format
from tests.golden.malformed.cases import compute_frames, load_frames

FRAMES = load_frames()
_ENTRIES = [(name, order) for name in sorted(FRAMES)
            for order in sorted(FRAMES[name])]


def _strict_decode(fmt, wire: bytes, *, fuse: bool):
    """The receiving pipeline with no leniency: envelope length checks
    plus a validated decoder, as Connection/iofile run it."""
    decoder = RecordDecoder(fmt, fuse=fuse)
    if is_batch(wire):
        _fid, _big, bodies = parse_batch(wire)
        return [decoder.decode(bytes(b)) for b in bodies]
    _fid, body_len = parse_header(wire, require_body=True)
    return decoder.decode(wire[HEADER_LEN:HEADER_LEN + body_len])


def test_committed_frames_in_sync():
    # frames.json derives from vectors.json; regen both together
    assert compute_frames() == FRAMES


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "plain"])
@pytest.mark.parametrize("name,order", _ENTRIES)
def test_frame_rejected(name: str, order: str, fuse: bool):
    entry = FRAMES[name][order]
    fmt = build_format(entry["case"], ARCHITECTURES[order])
    wire = bytes.fromhex(entry["hex"])
    with pytest.raises(DecodeError,
                       match=re.escape(entry["match"])):
        _strict_decode(fmt, wire, fuse=fuse)


_BULK_ENTRIES = [(name, order) for name, order in _ENTRIES
                 if name.startswith("bulk_")]


@pytest.mark.parametrize("name,order", _BULK_ENTRIES)
def test_bulk_frame_rejected_by_view_decoder(name: str, order: str):
    """The zero-copy decode mode rides the same bounds checks: a
    corrupt bulk frame must be rejected before any view over the
    receive buffer is handed out."""
    entry = FRAMES[name][order]
    fmt = build_format(entry["case"], ARCHITECTURES[order])
    wire = bytes.fromhex(entry["hex"])
    _fid, body_len = parse_header(wire, require_body=True)
    body = wire[HEADER_LEN:HEADER_LEN + body_len]
    with pytest.raises(DecodeError,
                       match=re.escape(entry["match"])):
        RecordDecoder(fmt, arrays="view").decode(body)


def test_context_rejects_lying_header():
    entry = FRAMES["header_body_len_lies"]["little"]
    ctx = IOContext()
    fmt = build_format(entry["case"], ARCHITECTURES["little"])
    ctx.register(fmt)
    with pytest.raises(DecodeError, match="truncated"):
        ctx.decode(bytes.fromhex(entry["hex"]))


class TestVarSubformatPointer:
    """The nested (subformat array) decode path shares the pointer
    discipline; the golden corpus has no var subformat array, so pin
    it with a purpose-built format."""

    def _format(self) -> IOFormat:
        sub = compute_layout([("x", "double"), ("y", "double")],
                             architecture=X86_64).field_list
        layout = compute_layout(
            [("tag", "integer", 4), ("points", "Point2[*]")],
            architecture=X86_64, subformats={"Point2": sub})
        return IOFormat("VarSub", layout.field_list)

    def _body(self, fmt: IOFormat) -> bytearray:
        record = {"tag": 5, "points": [{"x": 1.0, "y": 2.0},
                                       {"x": -3.0, "y": 4.5}]}
        wire = RecordEncoder(fmt).encode_wire(record)
        return bytearray(wire[HEADER_LEN:])

    @pytest.mark.parametrize("fuse", [True, False])
    def test_pointer_aliasing_fixed_region(self, fuse):
        fmt = self._format()
        body = self._body(fmt)
        field = fmt.field_list["points"]
        struct.pack_into("<Q", body, field.offset, 4)  # inside fixed
        with pytest.raises(DecodeError,
                           match="pointer 4 outside variable region"):
            RecordDecoder(fmt, fuse=fuse).decode(bytes(body))

    def test_pointer_past_end(self):
        fmt = self._format()
        body = self._body(fmt)
        field = fmt.field_list["points"]
        struct.pack_into("<Q", body, field.offset, len(body) + 64)
        with pytest.raises(DecodeError, match="outside variable"):
            RecordDecoder(fmt).decode(bytes(body))

    def test_count_clamped_before_list_build(self):
        fmt = self._format()
        body = self._body(fmt)
        field = fmt.field_list["points"]
        where = struct.unpack_from("<Q", body, field.offset)[0]
        struct.pack_into("<I", body, where, 0x7FFFFFFF)
        with pytest.raises(DecodeError, match="outside record"):
            RecordDecoder(fmt).decode(bytes(body))


class TestParseBatchLies:
    """parse_batch against envelopes whose lengths lie about the
    buffer — every rejection typed, none via raw struct.error."""

    FID = FormatID(0x1234)

    def _frame(self, payload: bytes) -> bytes:
        good = build_batch(self.FID, [b"abcd"], big_endian=False)
        header = bytearray(good[:HEADER_LEN])
        struct.pack_into(">I", header, 12, len(payload))
        return bytes(header) + payload

    def test_payload_shorter_than_declared(self):
        good = build_batch(self.FID, [b"abcd"], big_endian=False)
        with pytest.raises(DecodeError, match="batch truncated"):
            parse_batch(good[:-1])

    def test_total_cannot_hold_count(self):
        with pytest.raises(DecodeError, match="cannot hold a count"):
            parse_batch(self._frame(b"\x00\x00"))

    def test_count_impossible_for_payload(self):
        payload = struct.pack(">I", 1000) + b"\x00" * 8
        with pytest.raises(DecodeError, match="impossible"):
            parse_batch(self._frame(payload))

    def test_record_length_extends_past_payload(self):
        payload = struct.pack(">II", 1, 100) + b"\x00" * 4
        with pytest.raises(DecodeError, match="extends past"):
            parse_batch(self._frame(payload))

    def test_length_prefix_straddles_end(self):
        # record 0 consumes the bytes record 1's prefix needs
        payload = (struct.pack(">II", 2, 3) + b"\x00" * 3 + b"\x00\x00")
        with pytest.raises(DecodeError,
                           match="inside record 1's length prefix"):
            parse_batch(self._frame(payload))

    def test_rejections_also_satisfy_legacy_encode_type(self):
        # WireParseError bridges both hierarchies: parse-layer callers
        # that predate the hardening catch EncodeError
        with pytest.raises(EncodeError):
            parse_batch(self._frame(b"\x00\x00"))
        with pytest.raises(EncodeError):
            parse_header(b"XX" + b"\x00" * 14)


class TestHostileCountListDecode:
    """``arrays="list"`` decode takes fixed arrays through a
    compile-time ``struct`` and swaps foreign-order var arrays in
    bulk; a wire-derived count still meets ``_check_bounds`` before
    anything is allocated — and never reaches a ``struct`` format."""

    @pytest.mark.parametrize("order", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("spelling", ["double[n]", "double[*]"])
    def test_smashed_count_rejected_before_allocation(
            self, order, spelling, monkeypatch):
        arch = ARCHITECTURES[order]
        layout = compute_layout(
            [("n", "integer", 4), ("gains", "float[8]", 4),
             ("samples", spelling, 8)], architecture=arch)
        fmt = IOFormat("Hostile", layout.field_list)
        record = {"n": 4, "gains": [0.5] * 8,
                  "samples": [1.0, 2.0, 3.0, 4.0]}
        body = bytearray(
            RecordEncoder(fmt).encode_wire(record)[HEADER_LEN:])
        decoder = RecordDecoder(fmt)
        assert decoder.decode(bytes(body)) == record
        bo = arch.struct_byte_order_char
        if spelling == "double[n]":
            at = fmt.field_list["n"].offset
        else:
            at = struct.unpack_from(
                bo + "Q", body, fmt.field_list["samples"].offset)[0]
        struct.pack_into(bo + "I", body, at, 0x7FFFFFF0)

        allocations = []
        real = decode_mod.np.frombuffer
        monkeypatch.setattr(
            decode_mod.np, "frombuffer",
            lambda *a, **kw: allocations.append(kw) or real(*a, **kw))
        with pytest.raises(DecodeError,
                           match="field 'samples': data .* outside "
                                 "record"):
            decoder.decode(bytes(body))
        assert allocations == []
