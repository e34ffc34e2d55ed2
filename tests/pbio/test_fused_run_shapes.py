"""A fused run's code is compiled once per run *length*, not per format.

Every fused-run op over n fields shares one code object, built by
``_fused_run_factory(n)`` from the integer n alone; a format supplies
only its ``Struct``, start offset, converters and keys as closure
cells.  So a never-seen format whose run lengths were seen before costs
no ``compile()`` at all, no text taken from a format ever reaches
``compile()``, and the memo of shapes stays bounded however many
lengths discovery produces.
"""

from __future__ import annotations

import builtins
import struct

import pytest

from repro.errors import EncodeError
from repro.pbio.encode import RecordEncoder, _fused_run_factory
from repro.pbio.format import IOFormat
from repro.pbio.layout import field_list_for

#: one run per format: fixed-size scalars of mixed kinds and widths
KINDS = [("integer", 4), ("float", 8), ("unsigned integer", 2),
         ("integer", 8), ("char", 1), ("boolean", 1)]


def run_format(name: str, names) -> IOFormat:
    specs = [(field, *KINDS[i % len(KINDS)])
             for i, field in enumerate(names)]
    return IOFormat(name, field_list_for(specs))


def sample(fmt: IOFormat) -> dict:
    values = {"integer": 7, "float": 2.5, "unsigned integer": 9,
              "char": "c", "boolean": True}
    return {f.name: values[f.field_type.base] for f in fmt.field_list}


@pytest.fixture
def compiles(monkeypatch):
    """The source text of every ``compile()`` call made meanwhile."""
    seen: list[str] = []
    real = builtins.compile

    def spy(source, *args, **kwargs):
        seen.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    return seen


def test_fresh_formats_with_seen_run_lengths_compile_nothing(compiles):
    lengths = range(2, 7)
    for n in lengths:
        RecordEncoder(run_format(f"Warm{n}", [f"w{i}" for i in range(n)]))
    compiles.clear()
    for k in range(50):
        n = lengths[k % len(lengths)]
        fmt = run_format(f"Fresh{k}", [f"f{k}_{i}" for i in range(n)])
        enc = RecordEncoder(fmt)
        assert enc.fused_runs == 1 and enc.fused_fields == n
        record = sample(fmt)
        assert enc.encode_body(record) == \
            RecordEncoder(fmt, fuse=False).encode_body(record)
    assert compiles == []


def test_the_shape_memo_is_bounded():
    _fused_run_factory.cache_clear()
    try:
        wide = run_format("Wide", [f"x{i}" for i in range(400)])
        enc = RecordEncoder(wide)
        assert enc.fused_runs == 1 and enc.fused_fields == 400
        record = sample(wide)
        assert enc.encode_body(record) == \
            RecordEncoder(wide, fuse=False).encode_body(record)
        for n in range(2, 302):
            _fused_run_factory(n)
        info = _fused_run_factory.cache_info()
        assert info.misses == 301
        assert info.currsize == info.maxsize
        # an encoder built before its shape was evicted keeps working
        assert enc.encode_body(record) == \
            RecordEncoder(wide, fuse=False).encode_body(record)
    finally:
        _fused_run_factory.cache_clear()


HOSTILE_NAMES = ["it's", 'say "hi"', "back\\slash", "{}", "{0}{name}",
                 "größe", "θ", "名前", "a'); import os; ('"]


def test_field_names_never_reach_compile(compiles):
    _fused_run_factory.cache_clear()
    fmt = run_format("Hostile", HOSTILE_NAMES)
    enc = RecordEncoder(fmt)
    assert enc.fused_fields == len(HOSTILE_NAMES)
    record = sample(fmt)
    assert enc.encode_body(record) == \
        RecordEncoder(fmt, fuse=False).encode_body(record)
    assert compiles  # the run's length was new: its code was compiled
    for source in compiles:
        assert source.isascii()
        assert not set("'\"\\{}") & set(source)


class TestErrorsAreTheParents:
    """The shared code raises exactly the messages the per-format
    source did."""

    SPECS = [("alpha", "integer", 4), ("beta", "integer", 4),
             ("gamma", "float", 8), ("delta", "unsigned integer", 2)]
    GOOD = {"alpha": 1, "beta": 2, "gamma": 3.0, "delta": 4}

    @pytest.fixture
    def encoder(self):
        enc = RecordEncoder(IOFormat("Probe", field_list_for(self.SPECS)))
        assert enc.fused_fields == len(self.SPECS)
        return enc

    def message(self, encoder, record) -> str:
        with pytest.raises(EncodeError) as info:
            encoder.encode_body(record)
        return str(info.value)

    def op_message(self, encoder, record) -> str:
        (op,) = encoder._ops
        with pytest.raises(EncodeError) as info:
            op(record, bytearray(encoder.field_list.record_length), 0)
        return str(info.value)

    def test_missing_field(self, encoder):
        record = {k: v for k, v in self.GOOD.items() if k != "beta"}
        assert self.message(encoder, record) == \
            "Probe: missing fields ['beta']"
        assert self.op_message(encoder, record) == \
            "field 'beta': missing from record"

    def test_wrong_type(self, encoder):
        record = dict(self.GOOD, beta="five")
        expected = "field 'beta': integer expected, got str"
        assert self.message(encoder, record) == expected
        assert self.op_message(encoder, record) == expected

    @pytest.mark.parametrize("field,value,code", [
        ("alpha", 2 ** 40, "i"), ("delta", -1, "H")])
    def test_out_of_range_int(self, encoder, field, value, code):
        with pytest.raises(struct.error) as err:
            struct.pack(encoder._bo + code, value)
        expected = f"field {field!r}: cannot encode {value!r}: {err.value}"
        record = dict(self.GOOD, **{field: value})
        assert self.message(encoder, record) == expected
        assert self.op_message(encoder, record) == expected
