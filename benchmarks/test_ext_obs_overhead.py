"""Extension — telemetry overhead on the codec hot path.

The observability tentpole promises that instrumentation never taxes
the marshaling fast path.  Three encode paths are timed per shape:

* ``raw``:  ``RecordEncoder.encode_wire`` directly — no context, no
  telemetry hooks at all (the floor);
* ``noop``: ``IOContext.encode`` with telemetry disabled, so every
  hook collapses to a module-attribute check;
* ``enabled``: ``IOContext.encode`` with telemetry on at the default
  1-in-16 sample mask (production configuration).

A fourth number, ``hook_ns``, is the per-call cost of the disabled
``sample_t0`` hook itself — the unit of no-op overhead.

The measured ratios land in ``BENCH_obs.json`` (written by
``conftest.pytest_sessionfinish``); ``benchmarks/check_gates.py``
enforces the acceptance thresholds (enabled <= 1.05x no-op, hook
<= 1% of a no-op encode) on the gated shapes — records large enough
that a constant per-call hook cost must disappear into the per-record
work.  Small scalar shapes are measured but not gated: a ~100ns hook
is a visible fraction of a 2us encode.  In-test assertions use looser
margins so machine noise cannot flake the suite.
"""

from __future__ import annotations

from statistics import median

import pytest

from repro import obs
from repro.bench.timing import time_callable
from repro.hydrology.formats import GAUGE_COUNT, hydrology_field_specs
from repro.obs import runtime as _obs
from repro.obs.spans import sample_t0
from repro.pbio.context import IOContext
from repro.pbio.encode import RecordEncoder
from repro.pbio.format_server import FormatServer

_SPECS = hydrology_field_specs()

#: ``gate`` marks the shapes the 1.05x enabled-over-noop threshold
#: applies to (var-array records where per-record work dominates any
#: constant hook cost).  ``spec_name`` picks the layout; shapes may
#: share one (SimpleData at two array sizes).
CASES = {
    "FlowParams": {
        "gate": False,
        "spec_name": "FlowParams",
        "record": dict(timestep=3, nx=64, ny=64, dx=30.0, dy=30.0,
                       dt=1.5, viscosity=0.125, rainfall=0.0625,
                       iterations=100, flags=0, elapsed=12.5),
    },
    "GridMeta": {
        "gate": False,
        "spec_name": "GridMeta",
        "record": dict(timestep=3, nx=64, ny=64, west=0.0,
                       east=1920.0, south=0.0, north=1920.0,
                       cell_size=30.0, no_data=-9999.0, min_depth=0.0,
                       max_depth=2.5, mean_depth=0.25,
                       total_volume=1234.5, gauge_count=GAUGE_COUNT,
                       gauges=[i / 4 for i in range(GAUGE_COUNT)]),
    },
    "SimpleData-1k": {
        "gate": True,
        "spec_name": "SimpleData",
        "record": dict(timestep=1, size=1024,
                       data=[i / 8 for i in range(1024)]),
    },
    "SimpleData-4k": {
        "gate": True,
        "spec_name": "SimpleData",
        "record": dict(timestep=1, size=4096,
                       data=[i / 8 for i in range(4096)]),
    },
}


#: alternating noop / enabled timing pairs per shape
BLOCKS = 7


def _context_for(label):
    ctx = IOContext(format_server=FormatServer())
    name = CASES[label]["spec_name"]
    fmt = ctx.register_layout(name, _SPECS[name])
    return ctx, fmt


@pytest.fixture(autouse=True)
def _telemetry_defaults():
    """Benchmarks toggle the global switch; always restore it."""
    enabled, mask = _obs.enabled, _obs.sample_mask
    yield
    _obs.enabled = enabled
    _obs.sample_mask = mask


@pytest.mark.parametrize("label", list(CASES))
@pytest.mark.parametrize("path", ["raw", "noop", "enabled"])
@pytest.mark.benchmark(group="ext-obs-overhead")
def test_encode_overhead(label, path, benchmark):
    ctx, fmt = _context_for(label)
    record = CASES[label]["record"]
    name = CASES[label]["spec_name"]
    if path == "raw":
        encoder = RecordEncoder(fmt)
        benchmark(lambda: encoder.encode_wire(record))
        return
    obs.set_enabled(path == "enabled")
    benchmark(lambda: ctx.encode(name, record))


def test_obs_overhead_recorded(bench_json):
    """Measure the raw/noop/enabled encode cost on every shape and
    the bare hook cost; record them for the CI gate and assert
    conservative floors here.  ``enabled_over_noop`` is the median
    over :data:`BLOCKS` alternating noop / enabled pairs: one ratio of
    two back-to-back timings read 1.077 and 0.958 on the same tree."""
    shapes = {}
    for label, case in CASES.items():
        ctx, fmt = _context_for(label)
        name = case["spec_name"]
        record = case["record"]
        encoder = RecordEncoder(fmt)
        assert bytes(encoder.encode_wire(record)) == \
            bytes(ctx.encode(name, record))

        raw = time_callable(
            lambda: encoder.encode_wire(record), repeat=7).best
        # noop and enabled timings alternate, the order flipping every
        # pair, so a slow stretch of the host hits both sides of a
        # ratio; the gate reads the median of the per-pair ratios
        times = {False: [], True: []}
        ratios = []
        for block in range(BLOCKS):
            for enabled in (False, True) if block % 2 else (True, False):
                obs.set_enabled(enabled)
                obs.configure(sample_mask=15)
                times[enabled].append(time_callable(
                    lambda: ctx.encode(name, record), repeat=3).best)
            ratios.append(times[True][-1] / times[False][-1])
        noop, enabled = median(times[False]), median(times[True])

        shapes[label] = {
            "raw_us": raw * 1e6,
            "noop_us": noop * 1e6,
            "enabled_us": enabled * 1e6,
            "enabled_over_noop": median(ratios),
            "noop_over_raw": noop / raw,
            "gate": case["gate"],
        }
        if case["gate"]:
            # loose floor; check_gates.py enforces the real 1.05x
            assert enabled / noop < 1.25, (label, shapes[label])

    obs.set_enabled(False)
    hook_ns = time_callable(sample_t0, repeat=7).best * 1e9
    obs.set_enabled(True)

    bench_json["BENCH_obs.json"]["encode"] = shapes
    bench_json["BENCH_obs.json"]["hook_ns"] = hook_ns
    # the disabled hook is sub-microsecond no matter the machine
    assert hook_ns < 1_000
