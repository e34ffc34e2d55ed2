"""Extension — zero-copy bulk-array fast path in the fused codec.

Measures what the bulk tentpole bought on fixed-stride numeric
payloads, the dominant traffic of the paper's grid pipelines:

* encode: a typed array moving as one ``memoryview`` slice into the
  pooled body, vs the same payload supplied as a Python list
  (``bulk=False``) — what a pipeline stage pays when it re-encodes a
  decoded record.  The list crosses in one ``struct`` call per run, so
  the ratio is structural (memcpy vs an object walk) only from ~10k
  elements up; the 1024-element row is proven by counters instead;
* decode-to-numpy: ``arrays="view"`` handing back a read-only view
  over the receive buffer, vs list decode plus the ``np.asarray``
  the hydrology components perform on arrival;
* fan-out: a ~1 MB grid through ``encode_wire_parts``, where the
  ``BULK_STATS`` counters *prove* the payload spilled as one
  zero-copy segment (copied exactly once, by the frame join) rather
  than inferring it from timings.

The measured ratios land in ``BENCH_bulk.json`` (written by
``conftest.pytest_sessionfinish``); ``benchmarks/check_bulk_gate.py``
enforces the acceptance thresholds (>=3x decode on every size and
encode from 10 240 elements up, bulk counters on the 1024-element
encode row, single-copy counters on the fan-out row) as a separate CI
step.  In-test assertions use looser margins so machine noise cannot
flake the tier-1 suite.
"""

import numpy as np
import pytest

from repro.bench.timing import time_callable
from repro.pbio.context import IOContext
from repro.pbio.decode import RecordDecoder
from repro.pbio.encode import BULK_STATS, RecordEncoder
from repro.pbio.format_server import FormatServer

#: Grid-payload sweep: 8 KiB to 800 KiB of float64 samples.
SIZES = (1024, 10240, 102400)

#: Large enough to clear SPILL_MIN_BYTES by a wide margin: 1 MiB.
FANOUT_ELEMENTS = 131072

_SPECS = [("n", "integer", 4), ("data", "float[n]", 8)]


def _format():
    ctx = IOContext(format_server=FormatServer())
    return ctx.register_layout("BulkGrid", _SPECS)


def _payload(n):
    rng = np.random.default_rng(7)
    return rng.random(n)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("path", ["bulk", "per-element"])
@pytest.mark.benchmark(group="ext-bulk-encode")
def test_encode_latency(size, path, benchmark):
    fmt = _format()
    data = _payload(size)
    if path == "bulk":
        encoder = RecordEncoder(fmt)
        record = {"n": size, "data": data}
    else:
        encoder = RecordEncoder(fmt, bulk=False)
        record = {"n": size, "data": data.tolist()}
    benchmark(lambda: encoder.encode_wire(record))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("path", ["view", "list+asarray"])
@pytest.mark.benchmark(group="ext-bulk-decode")
def test_decode_latency(size, path, benchmark):
    fmt = _format()
    body = RecordEncoder(fmt).encode_body(
        {"n": size, "data": _payload(size)})
    body = bytes(body)
    if path == "view":
        decoder = RecordDecoder(fmt, arrays="view")
        benchmark(lambda: decoder.decode(body))
    else:
        decoder = RecordDecoder(fmt)
        benchmark(lambda: np.asarray(decoder.decode(body)["data"]))


def test_bulk_speedup_recorded(bulk_metrics):
    """Measure bulk-vs-baseline ratios on every size and record them
    for the CI gate; assert a conservative floor here."""
    encode_out, decode_out = {}, {}
    for size in SIZES:
        fmt = _format()
        data = _payload(size)
        bulk_e = RecordEncoder(fmt)
        plain_e = RecordEncoder(fmt, bulk=False)
        bulk_record = {"n": size, "data": data}
        list_record = {"n": size, "data": data.tolist()}
        before = BULK_STATS.snapshot()
        wire = bulk_e.encode_wire(bulk_record)
        counters = {k: v - before[k]
                    for k, v in BULK_STATS.snapshot().items()}
        assert wire == plain_e.encode_wire(list_record)
        body = wire[16:]
        view_d = RecordDecoder(fmt, arrays="view")
        list_d = RecordDecoder(fmt)

        te_bulk = time_callable(
            lambda: bulk_e.encode_wire(bulk_record), repeat=7).best
        te_plain = time_callable(
            lambda: plain_e.encode_wire(list_record), repeat=7).best
        td_view = time_callable(
            lambda: view_d.decode(body), repeat=7).best
        td_list = time_callable(
            lambda: np.asarray(list_d.decode(body)["data"]),
            repeat=7).best

        key = str(size)
        encode_out[key] = {
            "elements": size,
            "bulk_us": te_bulk * 1e6,
            "per_element_us": te_plain * 1e6,
            "speedup": te_plain / te_bulk,
            # below ~10k elements the comparator is one struct call,
            # not an element walk: the counters carry the proof
            "gate": size >= 10240,
            "zero_copy_views": counters["zero_copy_views"],
            "moved_once": counters["copied_arrays"]
            + counters["spilled_segments"],
            "bulk_converts": counters["bulk_converts"],
            "fallback_arrays": counters["fallback_arrays"],
        }
        decode_out[key] = {
            "elements": size,
            "view_us": td_view * 1e6,
            "list_asarray_us": td_list * 1e6,
            "speedup": td_list / td_view,
            "gate": True,
        }
        # loose floors; check_bulk_gate.py enforces the real 3x
        assert counters["zero_copy_views"] == 1, (size, counters)
        assert counters["fallback_arrays"] == 0, (size, counters)
        if encode_out[key]["gate"]:
            assert te_plain / te_bulk > 2.0, (size, encode_out[key])
        assert td_list / td_view > 2.0, (size, decode_out[key])
    bulk_metrics["encode"] = encode_out
    bulk_metrics["decode"] = decode_out


def test_fanout_single_copy_recorded(bulk_metrics):
    """A ~1 MB grid through ``encode_wire_parts``: the counters must
    show one zero-copy spill segment and zero payload copies — the
    only copy of the grid is the transport's single frame join."""
    fmt = _format()
    data = _payload(FANOUT_ELEMENTS)
    encoder = RecordEncoder(fmt)
    plain = RecordEncoder(fmt, bulk=False)
    record = {"n": FANOUT_ELEMENTS, "data": data}
    list_record = {"n": FANOUT_ELEMENTS, "data": data.tolist()}

    before = BULK_STATS.snapshot()
    parts = encoder.encode_wire_parts(record)
    delta = {k: v - before[k]
             for k, v in BULK_STATS.snapshot().items()}
    frame = b"".join(parts)
    assert frame == plain.encode_wire(list_record)
    assert delta["spilled_segments"] == 1, delta
    assert delta["copied_arrays"] == 0, delta
    assert delta["copied_bytes"] == 0, delta
    assert delta["zero_copy_views"] == 1, delta
    assert delta["fallback_arrays"] == 0, delta

    t_parts = time_callable(
        lambda: b"".join(encoder.encode_wire_parts(record)),
        repeat=7).best
    t_plain = time_callable(
        lambda: plain.encode_wire(list_record), repeat=7).best

    bulk_metrics["fanout_single_copy"] = {
        "elements": FANOUT_ELEMENTS,
        "payload_bytes": data.nbytes,
        "parts_join_us": t_parts * 1e6,
        "per_element_us": t_plain * 1e6,
        "speedup": t_plain / t_parts,
        "spilled_segments": delta["spilled_segments"],
        "zero_copy_views": delta["zero_copy_views"],
        "copied_arrays": delta["copied_arrays"],
        "copied_bytes": delta["copied_bytes"],
        "fallback_arrays": delta["fallback_arrays"],
    }
    # loose floor; check_bulk_gate.py enforces the real 3x
    assert t_plain / t_parts > 2.0, bulk_metrics["fanout_single_copy"]
