"""Extension — fused codec plans.

Measures what the marshaling tentpole bought: per-record encode/decode
latency of the fused fast path vs the per-field baseline
(``fuse=False``), on Fig. 7 record shapes.

The measured ratios land in ``BENCH_fused.json`` (written by
``conftest.pytest_sessionfinish``); ``benchmarks/check_gates.py``
enforces the acceptance threshold (>=1.5x encode on fused-run shapes)
as a separate CI step.  In-test assertions use looser margins so
machine noise cannot flake the tier-1 suite.
"""

import pytest

from repro.bench.timing import time_callable
from repro.hydrology.formats import GAUGE_COUNT, hydrology_field_specs
from repro.pbio.context import IOContext
from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import RecordEncoder
from repro.pbio.format_server import FormatServer

_SPECS = hydrology_field_specs()

#: Fig. 7 shapes.  ``gate`` marks the fused-run shapes (long scalar
#: runs) the 1.5x encode threshold applies to; the string-dominated
#: shapes are measured but not gated — fusion cannot help a record
#: whose cost is string copying.
CASES = {
    "FlowParams": {
        "gate": True,
        "record": dict(timestep=3, nx=64, ny=64, dx=30.0, dy=30.0,
                       dt=1.5, viscosity=0.125, rainfall=0.0625,
                       iterations=100, flags=0, elapsed=12.5),
    },
    "GridMeta": {
        "gate": True,
        "record": dict(timestep=3, nx=64, ny=64, west=0.0,
                       east=1920.0, south=0.0, north=1920.0,
                       cell_size=30.0, no_data=-9999.0, min_depth=0.0,
                       max_depth=2.5, mean_depth=0.25,
                       total_volume=1234.5, gauge_count=GAUGE_COUNT,
                       gauges=[i / 4 for i in range(GAUGE_COUNT)]),
    },
    "JoinRequest": {
        "gate": False,
        "record": dict(name="gauge-07", server=1, ip_addr=3232235777,
                       pid=1234, ds_addr=281474976710655),
    },
    "ControlMsg": {
        "gate": False,
        "record": dict(command="set_viscosity", target="flow2d",
                       timestep=5, value=0.375),
    },
}


def _format_for(label):
    ctx = IOContext(format_server=FormatServer())
    return ctx.register_layout(label, _SPECS[label])


@pytest.mark.parametrize("label", list(CASES))
@pytest.mark.parametrize("path", ["fused", "per-field"])
@pytest.mark.benchmark(group="ext-fused-encode")
def test_encode_latency(label, path, benchmark):
    fmt = _format_for(label)
    encoder = RecordEncoder(fmt, fuse=path == "fused")
    record = CASES[label]["record"]
    benchmark(lambda: encoder.encode_body(record))


@pytest.mark.parametrize("label", list(CASES))
@pytest.mark.parametrize("path", ["fused", "per-field"])
@pytest.mark.benchmark(group="ext-fused-decode")
def test_decode_latency(label, path, benchmark):
    fmt = _format_for(label)
    body = RecordEncoder(fmt).encode_body(CASES[label]["record"])
    decoder = RecordDecoder(fmt, fuse=path == "fused")
    benchmark(lambda: decoder.decode(body))


def test_fused_speedup_recorded(bench_json):
    """Measure fused-vs-baseline ratios on every shape and record
    them for the CI gate; assert a conservative floor here."""
    encode_out, decode_out = {}, {}
    for label, case in CASES.items():
        fmt = _format_for(label)
        record = case["record"]
        fused_e = RecordEncoder(fmt, fuse=True)
        plain_e = RecordEncoder(fmt, fuse=False)
        body = fused_e.encode_body(record)
        assert bytes(body) == bytes(plain_e.encode_body(record))
        fused_d = RecordDecoder(fmt, fuse=True)
        plain_d = RecordDecoder(fmt, fuse=False)

        te_fused = time_callable(
            lambda: fused_e.encode_body(record), repeat=7).best
        te_plain = time_callable(
            lambda: plain_e.encode_body(record), repeat=7).best
        td_fused = time_callable(
            lambda: fused_d.decode(body), repeat=7).best
        td_plain = time_callable(
            lambda: plain_d.decode(body), repeat=7).best

        encode_out[label] = {
            "fused_us": te_fused * 1e6,
            "per_field_us": te_plain * 1e6,
            "speedup": te_plain / te_fused,
            "gate": case["gate"],
        }
        decode_out[label] = {
            "fused_us": td_fused * 1e6,
            "per_field_us": td_plain * 1e6,
            "speedup": td_plain / td_fused,
            "gate": case["gate"],
        }
        if case["gate"]:
            # loose floor; check_gates.py enforces the real 1.5x
            assert te_plain / te_fused > 1.2, (label, encode_out[label])
    bench_json["BENCH_fused.json"]["encode"] = encode_out
    bench_json["BENCH_fused.json"]["decode"] = decode_out

