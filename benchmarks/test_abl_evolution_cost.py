"""Ablation — what restricted evolution costs, on both sides.

Old receivers of evolved formats run a conversion plan (project +
default) per record.  The plan is compiled once per (wire, native)
pair; the bench verifies the steady-state overhead over an identity
decode is a small constant, not proportional to plan construction.

The sender side is the rolling-upgrade path: a publisher that has cut
over to a new version keeps stale negotiated subscribers fed through a
cached :class:`~repro.pbio.evolution.DownConverter`.  Per shape the
sweep records what one down-converted frame costs next to what the
stale subscriber pays to decode a native frame anyway — the numbers
land in ``BENCH_evolution.json`` and
``benchmarks/check_gates.py`` enforces the acceptance bound
(record-path down-conversion within 2x of a native decode).
"""

import pytest

from repro.bench import workloads
from repro.bench.timing import time_callable
from repro.pbio.context import IOContext
from repro.pbio.evolution import down_converter
from repro.pbio.format_server import FormatServer

V1_SPECS = [("timestep", "integer", 4), ("size", "integer", 4),
            ("data", "float[size]", 4)]
V2_SPECS = V1_SPECS + [("units", "string"), ("quality", "float", 8)]
RECORD_V2 = dict(workloads.simple_data_record(256), units="m",
                 quality=0.9)


def _wire_and_receiver():
    server = FormatServer()
    sender = IOContext(format_server=server)
    receiver = IOContext(format_server=server)
    sender.register_layout("S", V2_SPECS)
    receiver.register_layout("S", V1_SPECS)
    wire = sender.encode("S", RECORD_V2)
    return wire, receiver


@pytest.mark.benchmark(group="abl-evolution-decode")
def test_abl_decode_identity(benchmark):
    server = FormatServer()
    ctx = IOContext(format_server=server)
    ctx.register_layout("S", V1_SPECS)
    wire = ctx.encode("S", workloads.simple_data_record(256))
    benchmark(ctx.decode_as, wire, "S")


@pytest.mark.benchmark(group="abl-evolution-decode")
def test_abl_decode_with_conversion(benchmark):
    wire, receiver = _wire_and_receiver()
    receiver.decode_as(wire, "S")  # compile the plan up front
    benchmark(receiver.decode_as, wire, "S")


@pytest.mark.benchmark(group="abl-evolution-shape")
def test_abl_conversion_overhead_is_bounded(benchmark):
    def sweep():
        wire, receiver = _wire_and_receiver()
        receiver.decode_as(wire, "S")
        converted = time_callable(
            lambda: receiver.decode_as(wire, "S"), repeat=3).best
        server = FormatServer()
        ctx = IOContext(format_server=server)
        ctx.register_layout("S", V1_SPECS)
        plain_wire = ctx.encode("S", workloads.simple_data_record(256))
        identity = time_callable(
            lambda: ctx.decode_as(plain_wire, "S"), repeat=3).best
        return identity, converted

    identity, converted = benchmark.pedantic(sweep, rounds=1,
                                             iterations=1)
    # conversion decodes a larger wire record and projects; allow a
    # generous constant factor but nothing pathological
    assert converted < 5.0 * identity, (identity, converted)


# -- sender-side down-conversion (the rolling-upgrade path) -----------------

#: array elements per shape; the string/scalar tail of V2 is fixed
_SENDER_SHAPES = {"data-64": 64, "data-1k": 1024, "data-4k": 4096}


def _sender_fixture(elements: int):
    """(old ctx, converter, new record, new wire, old wire)."""
    ctx = IOContext(format_server=FormatServer())
    old = ctx.register_layout("S", V1_SPECS)
    new_ctx = IOContext(format_server=FormatServer())
    new = new_ctx.register_layout("S", V2_SPECS)
    record = dict(workloads.simple_data_record(elements),
                  units="m", quality=0.9)
    conv = down_converter(new, old)
    new_wire = new_ctx.encode("S", record)
    old_wire = conv.encode_record(record)
    return ctx, conv, record, new_wire, old_wire


def _ab_best(fn_a, fn_b, *, rounds: int = 5):
    """Alternate the two measurements so machine drift hits both sides
    equally (same discipline as the hardening sweep)."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        best_a = min(best_a, time_callable(fn_a, repeat=3).best)
        best_b = min(best_b, time_callable(fn_b, repeat=3).best)
    return best_a, best_b


@pytest.mark.parametrize("shape", list(_SENDER_SHAPES))
@pytest.mark.parametrize("path", ["native_decode", "down_convert"])
@pytest.mark.benchmark(group="abl-evolution-sender")
def test_sender_latency(shape, path, benchmark):
    ctx, conv, record, _new_wire, old_wire = _sender_fixture(
        _SENDER_SHAPES[shape])
    if path == "native_decode":
        benchmark(lambda: ctx.decode(old_wire))
    else:
        benchmark(lambda: conv.encode_record(record))


def test_evolution_cost_recorded(bench_json):
    """Record, per shape, what a stale subscriber's frame costs the
    publisher (record path) and a relay (wire path) next to the native
    decode that subscriber performs anyway."""
    shapes = {}
    for shape, elements in _SENDER_SHAPES.items():
        ctx, conv, record, new_wire, old_wire = _sender_fixture(
            elements)
        # the converted frame must be exactly what a native old-version
        # encoder produces before any timing means anything
        assert ctx.decode(old_wire).record["size"] == elements
        assert conv.convert_wire(new_wire) == old_wire

        down_t, native_t = _ab_best(
            lambda: conv.encode_record(record),
            lambda: ctx.decode(old_wire))
        relay_t = min(time_callable(
            lambda: conv.convert_wire(new_wire), repeat=3).best
            for _ in range(5))
        shapes[shape] = {
            "elements": elements,
            "native_decode_us": native_t * 1e6,
            "down_convert_us": down_t * 1e6,
            "relay_convert_us": relay_t * 1e6,
            "down_convert_over_native_decode": down_t / native_t,
            "relay_convert_over_native_decode": relay_t / native_t,
        }
        # loose in-test ceiling; check_gates.py enforces the
        # real 2x bound
        assert down_t / native_t < 3.0, (shape, shapes[shape])

    bench_json["BENCH_evolution.json"]["sender"] = shapes

