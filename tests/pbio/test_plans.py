"""Compiled codec plans: the process-wide plan caches."""

import pytest

from repro.pbio.context import IOContext
from repro.pbio.decode import (
    RecordDecoder, clear_decoder_cache, decoder_for_format,
)
from repro.pbio.encode import (
    RecordEncoder, clear_encoder_cache, encoder_for_format,
)
from repro.pbio.format_server import FormatServer
from repro.pbio.machine import X86_64

SPECS = [("timestep", "integer"), ("size", "integer"),
         ("data", "float[size]")]


@pytest.fixture
def ctx():
    return IOContext(architecture=X86_64, format_server=FormatServer())


@pytest.fixture
def fmt(ctx):
    return ctx.register_layout("SimpleData", SPECS)


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

