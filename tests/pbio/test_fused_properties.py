"""Property-based marshaling invariants for the fused codec path.

Across randomly generated formats and records, the fused fast path
must be indistinguishable from the per-field baseline: identical wire
bytes out, identical records back.  Combined with the golden vectors
this locks the optimization to the wire contract.
"""

from hypothesis import given, settings, strategies as st

from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import RecordEncoder
from repro.pbio.format import IOFormat
from repro.pbio.machine import SPARC_V9, X86_64

from tests.strategies import (
    assert_record_roundtrip, field_list_of, format_case,
    scalar_run_case,
)

ARCHS = (X86_64, SPARC_V9)


def _format_for(specs, arch):
    return IOFormat("P", field_list_of(specs, arch))


@settings(max_examples=200, deadline=None)
@given(case=format_case(allow_nested=True),
       arch=st.sampled_from(ARCHS), data=st.data())
def test_roundtrip_is_identity(case, arch, data):
    specs, record_strategy = case
    record = data.draw(record_strategy)
    fmt = _format_for(specs, arch)
    body = RecordEncoder(fmt).encode_body(record)
    decoded = RecordDecoder(fmt).decode(body)
    assert_record_roundtrip(record, decoded, specs)


@settings(max_examples=200, deadline=None)
@given(case=format_case(allow_nested=True),
       arch=st.sampled_from(ARCHS), data=st.data())
def test_fused_bytes_equal_per_field_bytes(case, arch, data):
    specs, record_strategy = case
    record = data.draw(record_strategy)
    fmt = _format_for(specs, arch)
    fused = RecordEncoder(fmt, fuse=True).encode_body(record)
    plain = RecordEncoder(fmt, fuse=False).encode_body(record)
    assert bytes(fused) == bytes(plain)
    assert RecordDecoder(fmt, fuse=True).decode(fused) == \
        RecordDecoder(fmt, fuse=False).decode(fused)


@settings(max_examples=150, deadline=None)
@given(case=scalar_run_case(), arch=st.sampled_from(ARCHS),
       data=st.data())
def test_guaranteed_runs_agree_with_baseline(case, arch, data):
    specs, record_strategy = case
    record = data.draw(record_strategy)
    fmt = _format_for(specs, arch)
    encoder = RecordEncoder(fmt, fuse=True)
    assert encoder.fused_fields >= 2  # the run actually fused
    body = encoder.encode_body(record)
    assert bytes(body) == bytes(
        RecordEncoder(fmt, fuse=False).encode_body(record))
    decoded = RecordDecoder(fmt, fuse=True).decode(body)
    assert_record_roundtrip(record, decoded, specs)
