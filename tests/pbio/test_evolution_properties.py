"""Property-based invariants for sender-side down-conversion.

For random formats and random appended-field evolutions, a stale
receiver must not be able to tell how its frame was produced: decoding
a down-converted new-version frame yields exactly what a native
old-version roundtrip of the same (projected) record yields — under
the fused decode plan and the per-field baseline alike, on both byte
orders.  This is the paper's restricted-evolution promise, checked
from the upgraded sender's side.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import (
    HEADER_LEN, encoder_for_format, parse_header,
)
from repro.pbio.evolution import DownConverter, can_evolve
from repro.pbio.format import IOFormat
from repro.pbio.layout import field_list_for
from repro.pbio.machine import SPARC_V9, X86_64

from tests.strategies import atomic_field, field_names, format_case

ARCHS = (X86_64, SPARC_V9)


@st.composite
def evolution_case(draw):
    """(old specs, new specs, new-record strategy): a random format
    plus a random legal evolution appending 1-3 fresh fields."""
    old_specs, old_record = draw(format_case(min_fields=1,
                                             max_fields=5))
    taken = {spec[0] for spec in old_specs}
    extra_names = draw(st.lists(
        field_names.filter(lambda n: n not in taken),
        min_size=1, max_size=3, unique=True))
    appended = []
    strats = {}
    for name in extra_names:
        spec, values = draw(atomic_field(name))
        appended.append(spec)
        strats[name] = values
    new_record = st.tuples(
        old_record, st.fixed_dictionaries(strats)).map(
        lambda pair: {**pair[0], **pair[1]})
    return old_specs, old_specs + appended, new_record


def _formats(old_specs, new_specs, arch):
    old = IOFormat("Evo", field_list_for(old_specs, architecture=arch))
    new = IOFormat("Evo", field_list_for(new_specs, architecture=arch))
    return old, new


def _decode(fmt: IOFormat, wire: bytes, *, fuse: bool) -> dict:
    fid, body_len = parse_header(wire, require_body=True)
    assert fid == fmt.format_id
    return RecordDecoder(fmt, fuse=fuse).decode(
        wire[HEADER_LEN:HEADER_LEN + body_len])


def _values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_values_equal(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    return a == b


@settings(max_examples=150, deadline=None)
@given(case=evolution_case(), arch=st.sampled_from(ARCHS),
       data=st.data())
def test_appended_fields_are_always_a_legal_evolution(case, arch,
                                                      data):
    old_specs, new_specs, _ = case
    old, new = _formats(old_specs, new_specs, arch)
    assert can_evolve(old, new)


@settings(max_examples=150, deadline=None)
@given(case=evolution_case(), arch=st.sampled_from(ARCHS),
       fuse=st.booleans(), data=st.data())
def test_down_converted_decode_equals_native_roundtrip(case, arch,
                                                       fuse, data):
    """decode_old(down_convert(encode_new(r))) ==
    decode_old(encode_old(project(r))) — fused and per-field."""
    old_specs, new_specs, record_strategy = case
    record = data.draw(record_strategy)
    old, new = _formats(old_specs, new_specs, arch)
    conv = DownConverter(new, old)

    new_wire = encoder_for_format(new).encode_wire(record)
    via_down = _decode(old, conv.convert_wire(new_wire), fuse=fuse)

    old_names = {f.name for f in old.field_list}
    projected = {k: v for k, v in record.items() if k in old_names}
    native = _decode(old,
                     encoder_for_format(old).encode_wire(projected),
                     fuse=fuse)
    assert _values_equal(via_down, native)


@settings(max_examples=150, deadline=None)
@given(case=evolution_case(), arch=st.sampled_from(ARCHS),
       data=st.data())
def test_fast_path_equals_wire_path(case, arch, data):
    """The publisher fast path (project the in-memory record, skip the
    decode) must produce byte-identical old-version wire."""
    old_specs, new_specs, record_strategy = case
    record = data.draw(record_strategy)
    old, new = _formats(old_specs, new_specs, arch)
    conv = DownConverter(new, old)
    new_wire = encoder_for_format(new).encode_wire(record)
    assert conv.encode_record(record) == conv.convert_wire(new_wire)


@settings(max_examples=150, deadline=None)
@given(case=evolution_case(), arch=st.sampled_from(ARCHS),
       data=st.data())
def test_down_converted_frame_decodes_same_fused_and_per_field(
        case, arch, data):
    old_specs, new_specs, record_strategy = case
    record = data.draw(record_strategy)
    old, new = _formats(old_specs, new_specs, arch)
    wire = DownConverter(new, old).encode_record(record)
    assert _values_equal(_decode(old, wire, fuse=True),
                         _decode(old, wire, fuse=False))


@settings(max_examples=100, deadline=None)
@given(case=evolution_case(), arch=st.sampled_from(ARCHS),
       data=st.data())
def test_projection_is_exactly_the_old_field_set(case, arch, data):
    old_specs, new_specs, record_strategy = case
    record = data.draw(record_strategy)
    old, new = _formats(old_specs, new_specs, arch)
    conv = DownConverter(new, old)
    new_wire = encoder_for_format(new).encode_wire(record)
    decoded_new = _decode(new, new_wire, fuse=True)
    projected = conv.convert_record(decoded_new)
    assert set(projected) == {f.name for f in old.field_list}
