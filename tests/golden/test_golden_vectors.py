"""Byte-for-byte wire stability, on both simulated byte orders.

Every case must encode to exactly the hex stored in ``vectors.json``,
with the fused fast path and the per-field baseline agreeing — so a
codec change that alters the wire, even one bit, fails here before it
reaches a peer that can't read it.  CI runs the little- and big-endian
halves as separate steps via ``-k little`` / ``-k big``.
"""

import pytest

from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import (
    HEADER_LEN, RecordEncoder, is_batch, parse_header,
)
from tests.golden.cases import (
    ARCHITECTURES, build_format, bulk_case_names, bulk_record,
    case_names, case_record, encode_case, entry_matches, load_vectors,
)

VECTORS = load_vectors()

PARAMS = [pytest.param(case, order, id=f"{case}-{order}")
          for case in case_names()
          for order in ARCHITECTURES]

BULK_PARAMS = [pytest.param(case, order, source,
                            id=f"{case}-{order}-{source}")
               for case in bulk_case_names()
               for order in ARCHITECTURES
               for source in ("ndarray", "array")]


@pytest.mark.parametrize("case,order", PARAMS)
def test_wire_matches_golden(case, order):
    wire = encode_case(case, ARCHITECTURES[order])
    assert entry_matches(VECTORS[case][order], wire), (
        f"{case}/{order}: wire bytes changed; if intentional, rerun "
        "tests/golden/regen.py and note the compatibility break")


@pytest.mark.parametrize("case,order,source", BULK_PARAMS)
def test_bulk_sources_match_golden(case, order, source):
    """The bulk fast path (ndarray / array.array payloads) must write
    the exact bytes the per-element baseline pinned in vectors.json —
    zero wire-format drift, both byte orders."""
    arch = ARCHITECTURES[order]
    fmt = build_format(case, arch)
    bulk_wire = RecordEncoder(fmt, bulk=True).encode_wire(
        bulk_record(case, source))
    assert entry_matches(VECTORS[case][order], bulk_wire)
    baseline = RecordEncoder(fmt, bulk=False).encode_wire(
        bulk_record(case, "list"))
    assert bulk_wire == baseline
    parts = RecordEncoder(fmt, bulk=True).encode_wire_parts(
        bulk_record(case, source))
    assert b"".join(parts) == baseline


@pytest.mark.parametrize("case,order", PARAMS)
def test_fused_matches_per_field_baseline(case, order):
    arch = ARCHITECTURES[order]
    assert encode_case(case, arch, fuse=True) == \
        encode_case(case, arch, fuse=False)


@pytest.mark.parametrize("case,order", PARAMS)
def test_golden_wire_decodes_identically_both_paths(case, order):
    arch = ARCHITECTURES[order]
    entry = VECTORS[case][order]
    if isinstance(entry, dict):     # digest-pinned: rebuild the wire
        wire = encode_case(case, arch)
        assert entry_matches(entry, wire)
    else:
        wire = bytes.fromhex(entry)
    if is_batch(wire):
        return  # batch framing is covered by the byte tests above
    fmt = build_format(case, arch)
    _fid, body_len = parse_header(wire)
    body = wire[HEADER_LEN:HEADER_LEN + body_len]
    fused = RecordDecoder(fmt, fuse=True).decode(body)
    plain = RecordDecoder(fmt, fuse=False).decode(body)
    assert fused == plain
    record = case_record(case)
    assert fused["timestep" if "timestep" in record
                 else next(iter(record))] is not None


@pytest.mark.parametrize("order", ARCHITECTURES)
def test_nested_sizing_vector_decodes_to_its_record(order):
    """The stored bytes, not just a fresh encode: the nested ``v`` is
    sized by the nested ``n`` (3), not the outer one (9) or ``pad``."""
    wire = bytes.fromhex(VECTORS["NestedSizing"][order])
    fmt = build_format("NestedSizing", ARCHITECTURES[order])
    assert RecordDecoder(fmt).decode(wire[HEADER_LEN:]) == \
        case_record("NestedSizing")


def test_every_stored_case_is_still_defined():
    assert sorted(VECTORS) == sorted(case_names())
