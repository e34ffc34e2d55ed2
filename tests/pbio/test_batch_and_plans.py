"""Record batches and compiled codec plans.

Covers the shared-header batch framing (:func:`build_batch` /
:func:`parse_batch` / :func:`explode_batch`), the batch encode/decode
APIs, the process-wide plan caches, and the encode buffer pool.
"""

import pytest

from repro.errors import DecodeError, EncodeError
from repro.pbio.context import IOContext
from repro.pbio.decode import (
    RecordDecoder, clear_decoder_cache, decode_batch, decoder_for_format,
)
from repro.pbio.encode import (
    BufferPool, RecordEncoder, build_batch, clear_encoder_cache,
    encoder_for_format, explode_batch, is_batch, parse_batch,
)
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import SPARC_V9, X86_64

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]


@pytest.fixture
def ctx():
    return IOContext(architecture=X86_64, format_server=FormatServer())


@pytest.fixture
def fmt(ctx):
    return ctx.register_layout("SimpleData", SPECS)


def records(n):
    return [{"timestep": i, "data": [float(i)] * (i % 3)}
            for i in range(n)]


class TestBatchFraming:
    def test_roundtrip(self, fmt):
        encoder = encoder_for_format(fmt)
        bodies = encoder.encode_bodies(records(4))
        wire = encoder.encode_batch(records(4))
        assert is_batch(wire)
        fid, big_endian, parsed = parse_batch(wire)
        assert fid == fmt.format_id
        assert big_endian is False
        assert [bytes(p) for p in parsed] == [bytes(b) for b in bodies]

    def test_big_endian_flag_preserved(self):
        ctx = IOContext(architecture=SPARC_V9,
                        format_server=FormatServer())
        fmt = ctx.register_layout("SimpleData", SPECS)
        wire = encoder_for_format(fmt).encode_batch(records(2))
        _fid, big_endian, _bodies = parse_batch(wire)
        assert big_endian is True

    def test_single_record_wire_is_not_batch(self, fmt):
        wire = encoder_for_format(fmt).encode_wire(records(1)[0])
        assert not is_batch(wire)
        with pytest.raises(EncodeError, match="FLAG_BATCH"):
            parse_batch(wire)

    def test_empty_batch(self, fmt):
        wire = build_batch(fmt.format_id, [], big_endian=False)
        _fid, _big, bodies = parse_batch(wire)
        assert bodies == []
        assert explode_batch(wire) == []

    def test_explode_yields_standalone_wires(self, ctx, fmt):
        wire = encoder_for_format(fmt).encode_batch(records(3))
        singles = explode_batch(wire)
        assert len(singles) == 3
        decoded = [ctx.decode(s) for s in singles]
        assert [d.record["timestep"] for d in decoded] == [0, 1, 2]

    def test_truncated_batch_rejected(self, fmt):
        wire = encoder_for_format(fmt).encode_batch(records(3))
        with pytest.raises(EncodeError, match="truncated"):
            parse_batch(wire[:len(wire) - 5])

    def test_corrupt_count_rejected(self, fmt):
        wire = bytearray(encoder_for_format(fmt).encode_batch(
            records(2)))
        wire[16:20] = (2 ** 31).to_bytes(4, "big")  # absurd count
        with pytest.raises(EncodeError, match="count"):
            parse_batch(bytes(wire))


class TestBatchCodecs:
    def test_decode_batch(self, fmt):
        wire = encoder_for_format(fmt).encode_batch(records(5))
        out = decode_batch(fmt, wire)
        assert [r["timestep"] for r in out] == [0, 1, 2, 3, 4]

    def test_decode_batch_rejects_foreign_format(self, ctx, fmt):
        other = ctx.register_layout("Other", [("x", "integer")])
        wire = encoder_for_format(fmt).encode_batch(records(1))
        with pytest.raises(DecodeError, match="format"):
            decode_batch(other, wire)

    def test_context_encode_many_decode_many(self, ctx, fmt):
        wire = ctx.encode_many("SimpleData", records(4))
        out = ctx.decode_many(wire)
        assert [d.record["timestep"] for d in out] == [0, 1, 2, 3]
        assert all(d.format_name == "SimpleData" for d in out)
        assert ctx.stats.records_encoded == 4
        assert ctx.stats.records_decoded == 4

    def test_context_decode_rejects_batch(self, ctx, fmt):
        wire = ctx.encode_many("SimpleData", records(2))
        with pytest.raises(DecodeError, match="decode_many"):
            ctx.decode(wire)

    def test_decode_many_matches_per_record_decode(self, ctx, fmt):
        recs = records(6)
        wire = ctx.encode_many("SimpleData", recs)
        batch = [d.record for d in ctx.decode_many(wire)]
        singles = [ctx.decode(s).record for s in explode_batch(wire)]
        assert batch == singles


class TestPlanCaches:
    def test_encoder_cache_shares_plans(self, fmt):
        clear_encoder_cache()
        first = encoder_for_format(fmt)
        assert encoder_for_format(fmt) is first

    def test_decoder_cache_keyed_by_arrays_mode(self, fmt):
        clear_decoder_cache()
        as_list = decoder_for_format(fmt)
        assert decoder_for_format(fmt) is as_list
        assert decoder_for_format(fmt, arrays="numpy") is not as_list

    def test_contexts_share_process_plans(self, fmt):
        clear_encoder_cache()
        ctx_a = IOContext(architecture=X86_64,
                          format_server=FormatServer())
        ctx_b = IOContext(architecture=X86_64,
                          format_server=FormatServer())
        assert ctx_a.encoder_for(fmt) is ctx_b.encoder_for(fmt)

    def test_fused_and_unfused_plans_agree(self, fmt):
        rec = {"timestep": 12, "data": [1.5, -2.25, 0.0]}
        fused = RecordEncoder(fmt, fuse=True)
        plain = RecordEncoder(fmt, fuse=False)
        assert fused.fused_fields >= 2
        assert plain.fused_runs == 0
        body = fused.encode_body(rec)
        assert bytes(body) == bytes(plain.encode_body(rec))
        assert RecordDecoder(fmt, fuse=True).decode(body) == \
            RecordDecoder(fmt, fuse=False).decode(body)


class TestBufferPool:
    def test_reuse_and_zeroing(self):
        pool = BufferPool(max_buffers=2)
        buf = pool.acquire(32)
        buf[0] = 0xFF
        pool.release(buf)
        again = pool.acquire(32)
        assert again is buf
        assert bytes(again) == b"\x00" * 32
        assert pool.reuses == 1

    def test_pool_bounded(self):
        pool = BufferPool(max_buffers=1)
        a, b = pool.acquire(8), pool.acquire(8)
        pool.release(a)
        pool.release(b)  # over capacity: dropped
        assert pool.acquire(8) is a
        assert pool.acquire(8) is not b

    def test_encode_reuses_pooled_buffer(self, fmt):
        encoder = RecordEncoder(fmt)
        for i in range(5):
            encoder.encode({"timestep": i, "data": [1.0]})
        assert encoder._pool.reuses >= 4
