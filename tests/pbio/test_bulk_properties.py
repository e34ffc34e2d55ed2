"""Property-based differential battery for the bulk-array fast path.

Every bulk decision the codec can make — zero-copy view, byteswap
convert, spill segment, small-array fallback — must be byte-for-byte
indistinguishable from the per-element baseline, across element type,
byte order, payload source (list / ndarray / array.array), fuse mode,
validation mode and batching.  The decode side must agree across its
three representations (``list`` / ``numpy`` / ``view``), and the
zero-copy views must honor the buffer-lifetime contract: read-only,
alive views pin the buffer, and a materialized copy survives anything
done to the buffer afterwards.
"""

from __future__ import annotations

import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pbio.encode as encode_mod
from repro.errors import EncodeError
from repro.pbio.decode import RecordDecoder, materialize_record
from repro.pbio.encode import (
    BULK_STATS, HEADER_LEN, RecordEncoder, numpy_dtype, parse_batch,
)
from repro.pbio.format import IOFormat
from repro.pbio.layout import field_list_for
from repro.pbio.machine import SPARC_V9, X86_64

ARCHS = (X86_64, SPARC_V9)

#: (type string, size, numpy dtype code, array.array typecode) for
#: every element type the bulk path accepts.  The typecodes are the
#: fixed-width ones ('l'/'L' are platform-sized and intentionally
#: left to the typecode-mismatch fallback).
_ELEMENT_TYPES = [
    ("integer", 1, "i1", "b"), ("integer", 2, "i2", "h"),
    ("integer", 4, "i4", "i"), ("integer", 8, "i8", "q"),
    ("unsigned integer", 1, "u1", "B"),
    ("unsigned integer", 2, "u2", "H"),
    ("unsigned integer", 4, "u4", "I"),
    ("unsigned integer", 8, "u8", "Q"),
    ("float", 4, "f4", "f"), ("float", 8, "f8", "d"),
]


def _element_values(type_string: str, size: int) -> st.SearchStrategy:
    if type_string == "float":
        return st.floats(width=32, allow_nan=False) if size == 4 \
            else st.floats(allow_nan=False)
    if type_string == "unsigned integer":
        return st.integers(0, (1 << (8 * size)) - 1)
    half = 1 << (8 * size - 1)
    return st.integers(-half, half - 1)


@st.composite
def bulk_case(draw, max_arrays: int = 3, max_elements: int = 24):
    """(specs, record-with-list-payloads, [(name, dtype, typecode)]).

    Mixes length-linked and self-sized numeric arrays (empty through
    *max_elements* elements) with a leading scalar and an optional
    trailing string, so the variable region holds more than just the
    bulk payloads.
    """
    specs: list[tuple] = [("tag", "integer", 4)]
    record: dict = {"tag": draw(st.integers(-1000, 1000))}
    arrays: list[tuple[str, str, str]] = []
    for i in range(draw(st.integers(1, max_arrays))):
        name = f"arr{i}"
        t, size, np_code, typecode = draw(st.sampled_from(
            _ELEMENT_TYPES))
        values = draw(st.lists(_element_values(t, size), min_size=0,
                               max_size=max_elements))
        if draw(st.booleans()):
            specs.append((f"{name}_n", "integer", 4))
            specs.append((name, f"{t}[{name}_n]", size))
            record[f"{name}_n"] = len(values)
        else:
            specs.append((name, f"{t}[*]", size))
        record[name] = values
        arrays.append((name, np_code, typecode))
    if draw(st.booleans()):
        specs.append(("note", "string"))
        record["note"] = draw(st.text(max_size=8).filter(
            lambda s: "\x00" not in s))
    return specs, record, arrays


def _as_source(record: dict, arrays, source: str) -> dict:
    out = dict(record)
    for name, np_code, typecode in arrays:
        if source == "ndarray":
            out[name] = np.asarray(record[name], dtype=np_code)
        elif source == "array":
            out[name] = array.array(typecode, record[name])
    return out


def _format_for(specs, arch) -> IOFormat:
    return IOFormat("B", field_list_for(specs, architecture=arch))


# -- encode: bulk == per-element baseline, all sources ----------------------

@settings(max_examples=150, deadline=None)
@given(case=bulk_case(), arch=st.sampled_from(ARCHS),
       source=st.sampled_from(("ndarray", "array")),
       fuse=st.booleans(), data=st.data())
def test_bulk_wire_equals_baseline(case, arch, source, fuse, data):
    specs, record, arrays = case
    fmt = _format_for(specs, arch)
    baseline = RecordEncoder(fmt, fuse=fuse,
                             bulk=False).encode_wire(record)
    typed = _as_source(record, arrays, source)
    encoder = RecordEncoder(fmt, fuse=fuse)
    assert encoder.encode_wire(typed) == baseline
    assert b"".join(encoder.encode_wire_parts(typed)) == baseline


@settings(max_examples=80, deadline=None)
@given(case=bulk_case(max_elements=64), arch=st.sampled_from(ARCHS),
       source=st.sampled_from(("ndarray", "array")))
def test_parts_join_matches_wire_with_spills(case, arch, source):
    """With the spill threshold forced down, every bulk payload leaves
    the body as a zero-copy segment — the virtual-length bookkeeping
    (pointers, counts, pads around the cut points) must still produce
    the baseline bytes exactly."""
    specs, record, arrays = case
    fmt = _format_for(specs, arch)
    baseline = RecordEncoder(fmt, bulk=False).encode_wire(record)
    before = BULK_STATS.snapshot()["spilled_segments"]
    old = encode_mod.SPILL_MIN_BYTES
    encode_mod.SPILL_MIN_BYTES = 1
    try:
        parts = RecordEncoder(fmt).encode_wire_parts(
            _as_source(record, arrays, source))
        joined = b"".join(parts)
    finally:
        encode_mod.SPILL_MIN_BYTES = old
    assert joined == baseline
    if any(record[name] for name, _d, _t in arrays):
        assert BULK_STATS.snapshot()["spilled_segments"] > before


@settings(max_examples=60, deadline=None)
@given(case=bulk_case(max_arrays=2), arch=st.sampled_from(ARCHS),
       source=st.sampled_from(("list", "ndarray", "array")))
def test_batch_bulk_equals_baseline(case, arch, source):
    specs, record, arrays = case
    fmt = _format_for(specs, arch)
    batch = [dict(record, tag=t) for t in range(3)]
    baseline = RecordEncoder(fmt, bulk=False).encode_batch(batch)
    typed = [_as_source(r, arrays, source) for r in batch]
    assert RecordEncoder(fmt).encode_batch(typed) == baseline
    _fid, _big, bodies = parse_batch(baseline)
    listed = RecordDecoder(fmt).decode_many(
        [bytes(b) for b in bodies])
    viewed = RecordDecoder(fmt, arrays="view").decode_many(
        [bytes(b) for b in bodies])
    assert [materialize_record(r) for r in viewed] == listed


# -- decode: list / numpy / view representations agree ----------------------

@settings(max_examples=100, deadline=None)
@given(case=bulk_case(), arch=st.sampled_from(ARCHS),
       fuse=st.booleans())
def test_decode_representations_agree(case, arch, fuse):
    specs, record, arrays = case
    fmt = _format_for(specs, arch)
    wire = RecordEncoder(fmt, bulk=False).encode_wire(record)
    body = wire[HEADER_LEN:]
    listed = RecordDecoder(fmt, fuse=fuse).decode(body)
    for mode in ("numpy", "view"):
        decoded = RecordDecoder(fmt, arrays=mode,
                                fuse=fuse).decode(body)
        assert materialize_record(decoded) == listed
        if mode == "view":
            for name, _d, _t in arrays:
                assert not decoded[name].flags.writeable


# -- buffer-lifetime contract ----------------------------------------------

def _grid_format():
    specs = [("n", "integer", 4), ("data", "float[n]", 8),
             ("label", "string")]
    return specs, _format_for(specs, X86_64)


def test_materialized_copy_survives_buffer_mutation():
    _specs, fmt = _grid_format()
    record = {"n": 256, "data": [i * 0.5 for i in range(256)],
              "label": "grid"}
    wire = RecordEncoder(fmt).encode_wire(record)
    body = bytearray(wire[HEADER_LEN:])
    decoded = RecordDecoder(fmt, arrays="view").decode(body)
    view = decoded["data"]
    copied = materialize_record(decoded)
    body[:] = b"\xff" * len(body)      # receive buffer reused/poisoned
    assert copied["data"] == record["data"]    # the copy is immune
    assert np.isnan(view).all()        # the view is proven zero-copy


def test_view_is_read_only_and_pins_the_buffer():
    _specs, fmt = _grid_format()
    record = {"n": 8, "data": [0.25] * 8, "label": None}
    wire = RecordEncoder(fmt).encode_wire(record)
    body = bytearray(wire[HEADER_LEN:])
    decoded = RecordDecoder(fmt, arrays="view").decode(body)
    view = decoded["data"]
    with pytest.raises(ValueError, match="read-only"):
        view[0] = 1.0
    # a live view holds a buffer export: the owner cannot resize (and
    # so a pool cannot recycle) the buffer out from under it
    with pytest.raises(BufferError):
        body.clear()
    del decoded, view
    body.clear()                       # dropping the views releases it


def test_materialize_numpy_copies_out_of_the_buffer():
    _specs, fmt = _grid_format()
    record = {"n": 4, "data": [1.0, 2.0, 3.0, 4.0], "label": "x"}
    wire = RecordEncoder(fmt).encode_wire(record)
    body = bytearray(wire[HEADER_LEN:])
    decoded = RecordDecoder(fmt, arrays="view").decode(body)
    owned = materialize_record(decoded, arrays="numpy")
    assert isinstance(owned["data"], np.ndarray)
    assert owned["data"].flags.owndata and owned["data"].flags.writeable
    body[:] = b"\x00" * len(body)
    assert owned["data"].tolist() == record["data"]


def test_parts_are_stable_once_joined_and_encoder_is_reusable():
    _specs, fmt = _grid_format()
    grid = np.arange(1024, dtype="f8")
    record = {"n": 1024, "data": grid, "label": "g"}
    encoder = RecordEncoder(fmt)
    baseline = RecordEncoder(fmt, bulk=False).encode_wire(
        {**record, "data": grid.tolist()})
    joined = b"".join(encoder.encode_wire_parts(record))
    assert joined == baseline
    grid += 1.0       # parts were consumed; the join already copied
    assert joined == baseline
    again = b"".join(encoder.encode_wire_parts(
        {**record, "data": grid}))   # pooled body reused, new payload
    assert again == RecordEncoder(fmt, bulk=False).encode_wire(
        {**record, "data": grid.tolist()})
    assert again != baseline


# -- bulk eligibility edges -------------------------------------------------

def test_strided_and_wrong_dtype_sources_still_match_baseline():
    specs = [("n", "integer", 4), ("values", "integer[n]", 4)]
    fmt = _format_for(specs, X86_64)
    strided = np.arange(64, dtype="i4")[::2]  # non-contiguous
    widened = np.arange(32, dtype="i8")       # wrong dtype
    before = BULK_STATS.snapshot()
    for values in (strided, widened):
        baseline = RecordEncoder(fmt, bulk=False).encode_wire(
            {"n": 32, "values": values.tolist()})
        assert RecordEncoder(fmt).encode_wire(
            {"n": 32, "values": values}) == baseline
    after = BULK_STATS.snapshot()
    assert after["bulk_converts"] >= before["bulk_converts"] + 2


def test_2d_array_falls_back_to_baseline_counter():
    specs = [("values", "integer[*]", 4)]
    fmt = _format_for(specs, X86_64)
    arr2d = np.arange(6, dtype="i4").reshape(2, 3)
    before = BULK_STATS.snapshot()["fallback_arrays"]
    # a 2-D payload has no 1-D bulk view: the counted fallback hands
    # it to the per-element baseline, whatever that path does with it
    bulk_wire = RecordEncoder(fmt).encode_wire({"values": arr2d})
    assert BULK_STATS.snapshot()["fallback_arrays"] > before
    assert bulk_wire == RecordEncoder(
        fmt, bulk=False).encode_wire({"values": arr2d})


# -- error attribution (the _bulk_bytes regression) -------------------------

def test_numpy_dtype_error_names_the_field():
    with pytest.raises(EncodeError,
                       match="field 'payload': no bulk representation "
                             "for kind char"):
        numpy_dtype("char", 1, "little", field_name="payload")
    with pytest.raises(EncodeError,
                       match="^no bulk representation for kind char"):
        numpy_dtype("char", 1, "little")


def test_encode_bodies_names_the_offending_record():
    specs = [("values", "integer[3]", 4)]
    fmt = _format_for(specs, X86_64)
    good = {"values": [1, 2, 3]}
    bad = {"values": np.arange(4, dtype="i4")}
    with pytest.raises(EncodeError,
                       match=r"record\[2\]: field 'values': fixed "
                             r"array of 3, got 4 elements"):
        RecordEncoder(fmt).encode_bodies([good, good, bad])


def test_wrong_length_bulk_fixed_array_names_the_field():
    specs = [("values", "integer[3]", 4)]
    fmt = _format_for(specs, X86_64)
    with pytest.raises(EncodeError, match="field 'values'"):
        RecordEncoder(fmt).encode_wire(
            {"values": np.arange(5, dtype="i4")})


# -- the list path: one struct call per run, both directions ----------------

_LIST_COUNTS = (0, 1, 8, 255, 256, 257, 1024, 5000)


def _list_specs(type_string: str, size: int, shape: str, count: int):
    """(specs, elements) for one array *shape* holding *count* rows."""
    if shape == "fixed":
        return [("tag", "integer", 4),
                ("a", f"{type_string}[{count}]", size)], count
    if shape == "sized":
        return [("n", "integer", 4),
                ("a", f"{type_string}[n]", size)], count
    if shape == "self":
        return [("tag", "integer", 4),
                ("a", f"{type_string}[*]", size)], count
    return [("n", "integer", 4),
            ("a", f"{type_string}[n][3]", size)], count * 3


def _list_values(np_code: str, elements: int) -> np.ndarray:
    """Deterministic payload covering the element type's whole range."""
    rng = np.random.default_rng(elements)
    dt = np.dtype(np_code)
    if dt.kind == "f":
        return (rng.standard_normal(elements) * 1e3).astype(dt)
    info = np.iinfo(dt)
    values = rng.integers(info.min, info.max, size=elements,
                          dtype=dt, endpoint=True)
    values[:2] = (info.min, info.max)[:elements]
    return values


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.byte_order)
@pytest.mark.parametrize("type_string,size,np_code,_typecode",
                         _ELEMENT_TYPES,
                         ids=[t[2] for t in _ELEMENT_TYPES])
def test_list_and_ndarray_agree_both_directions(
        type_string, size, np_code, _typecode, arch):
    """A list and the equal ndarray write the same wire, and the
    ``list`` decode is the ``numpy`` decode's ``.tolist()`` — every
    array shape, counts on both sides of every old threshold."""
    for shape in ("fixed", "sized", "self", "trailing"):
        for count in _LIST_COUNTS:
            if shape == "fixed" and count == 0:
                continue        # a fixed dimension must be positive
            specs, elements = _list_specs(type_string, size, shape,
                                          count)
            fmt = _format_for(specs, arch)
            typed = _list_values(np_code, elements)
            record = {"a": typed.tolist()}
            if specs[0][0] == "tag":
                record["tag"] = 7
            encoder = RecordEncoder(fmt)
            wire = encoder.encode_wire(record)
            where = (shape, count)
            assert wire == encoder.encode_wire(
                {**record, "a": typed}), where
            body = wire[HEADER_LEN:]
            listed = RecordDecoder(fmt).decode(body)
            viewed = RecordDecoder(fmt, arrays="numpy").decode(body)
            assert type(listed["a"]) is list, where
            assert listed["a"] == viewed["a"].tolist(), where
            assert listed["a"] == record["a"], where


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.byte_order)
def test_tolerant_list_inputs_write_the_typed_bytes(arch):
    """What struct refuses — or what is not a list at all — goes
    through the scalar rules and lands on the same bytes."""
    specs = [("n", "integer", 4), ("a", "integer[n]", 4),
             ("f", "double[3]", 8), ("e", "enumeration[3]", 4),
             ("b", "boolean[*]", 1)]
    fmt = IOFormat("T", field_list_for(specs, architecture=arch),
                   {"e": ("LOW", "MID", "HIGH")})
    encoder = RecordEncoder(fmt)
    plain = encoder.encode_wire(
        {"n": 3, "a": [0, 1, 2], "f": [0.5, 2.0, 3.0],
         "e": [2, 0, 1], "b": [1, 0, 1]})
    for record in (
            {"a": (0, 1, 2), "f": (0.5, 2.0, 3.0), "e": (2, 0, 1),
             "b": (1, 0, 1)},
            {"a": range(3), "f": [np.float32(0.5), 2, np.float64(3)],
             "e": ["HIGH", "LOW", "MID"], "b": [True, False, True]},
            {"a": [np.int64(0), np.int8(1), True + 1],
             "f": [0.5, True + 1, 3], "e": ["HIGH", 0, np.uint8(1)],
             "b": ["yes", None, [0]]}):
        assert encoder.encode_wire({"n": 3, **record}) == plain
    decoded = RecordDecoder(fmt).decode(plain[HEADER_LEN:])
    assert decoded["e"] == ["HIGH", "LOW", "MID"]
    assert decoded["b"] == [True, False, True]


def test_list_elements_obey_the_scalar_rules():
    """The numpy guess used to take what the scalar rules refuse:
    ``None`` became NaN and 1.5 became 1.  A list element is now
    rejected exactly as the scalar would be, and named by index."""
    specs = [("f", "double", 8), ("i", "integer", 4),
             ("n", "integer", 4), ("xs", "double[n]", 8),
             ("ys", "integer[4]", 4)]
    fmt = _format_for(specs, X86_64)
    encoder = RecordEncoder(fmt)
    good = {"f": 0.5, "i": 1, "n": 2, "xs": [0.5, 1.0],
            "ys": [1, 2, 3, 4]}
    encoder.encode_wire(good)
    for bad, message in (
            ({"f": None}, "field 'f'"),
            ({"i": 1.5}, "field 'i': integer expected, got float"),
            ({"xs": [None, 1.0]}, r"field 'xs'\[0\]: cannot encode "
                                  r"None"),
            ({"ys": [1.5, 2, 3, 4]},
             r"field 'ys'\[0\]: integer expected, got float"),
            ({"ys": [1, 2, np.float32(3), 4]},
             r"field 'ys'\[2\]: integer expected, got float32"),
            ({"ys": [1, 2, 3, 2 ** 40]},
             r"field 'ys'\[3\]: cannot encode 1099511627776"),
            ({"xs": [[1.0, 2.0], [3.0, 4.0]]}, r"field 'xs'\[0\]")):
        with pytest.raises(EncodeError, match=message):
            encoder.encode_wire({**good, **bad})
    # typed buffers keep their documented cast semantics
    cast = encoder.encode_wire(
        {**good, "ys": np.array([1.5, 2.0, 3.0, 4.0])})
    assert cast == encoder.encode_wire(good)
    assert encoder.encode_wire(
        {**good, "ys": array.array("d", [1.5, 2.0, 3.0, 4.0])}) == cast


def test_var_run_packer_memo_is_bounded():
    """Var-array counts are caller data: 2 000 distinct lengths must
    not pin 2 000 ``Struct`` objects."""
    fmt = _format_for([("a", "integer[*]", 2)], X86_64)
    encoder = RecordEncoder(fmt)
    payload = list(range(2000))
    for length in range(2000):
        encoder.encode_wire({"a": payload[:length]})
    info = encode_mod._run_packer.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize <= 256
    assert encoder.encode_wire({"a": payload[:5]})[-10:] == \
        np.arange(5, dtype="<i2").tobytes()
