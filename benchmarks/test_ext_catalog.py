"""Extension — catalog scale (lazy compile) and warm-start latency.

Two claims behind this PR, measured together and flushed to
``BENCH_catalog.json`` for ``benchmarks/check_gates.py``:

* **Lazy schema compile**: loading a 10k-complexType catalog
  (``REPRO_CATALOG_FORMATS`` overrides the size) with ``lazy=True``
  defers every per-type IR compile to first binding.  The gate is
  counter-based — 10k deferrals, at most a couple of lazy compiles
  after one bind — plus the latency claim that binding one format
  costs well under 1% of eagerly compiling the whole catalog.
* **Warm start**: a process restarting over a populated
  ``REPRO_PLAN_CACHE_DIR`` reaches its first encoded message by
  reading the format's metadata off disk instead of re-walking
  discover → parse → compile → bind, then compiling its codecs like
  any other process.  Cold and warm first-message latency are
  measured over several rounds (medians), and span accounting shows
  what the warm path did pay: zero ``fetch``/``compile``/``bind``
  spans, one ``compile_plan`` span per codec built.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro import obs
from repro.core.schema_compiler import compile_schema
from repro.core.toolkit import XMIT
from repro.obs.spans import rdm_from_snapshot
from repro.pbio.context import IOContext
from repro.pbio.decode import clear_decoder_cache, decoder_for_format
from repro.pbio.encode import clear_encoder_cache
from repro.pbio.format_server import FormatServer
from repro.pbio.plancache import (
    configure_plan_cache, reset_plan_cache_configuration, warm_start,
)
from repro.schema.parser import parse_schema
from repro.xmlcore.parser import parse

N_FORMATS = int(os.environ.get("REPRO_CATALOG_FORMATS", "10000"))
N_FIELDS = 96
ROUNDS = 7


def catalog_xsd(n: int) -> str:
    parts = ['<xsd:schema '
             'xmlns:xsd="http://www.w3.org/2001/XMLSchema">']
    for i in range(n):
        parts.append(f'''  <xsd:complexType name="Fmt{i:05d}">
    <xsd:element name="step" type="xsd:int" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="flag" type="xsd:unsignedByte" />
  </xsd:complexType>''')
    parts.append('</xsd:schema>')
    return "\n".join(parts)


def wide_xsd(n_fields: int) -> str:
    types = ["int", "double", "unsignedInt"]
    elems = "\n".join(
        f'    <xsd:element name="f{i:02d}" '
        f'type="xsd:{types[i % 3]}" />' for i in range(n_fields))
    return (f'<xsd:schema '
            f'xmlns:xsd="http://www.w3.org/2001/XMLSchema">\n'
            f'  <xsd:complexType name="Wide">\n{elems}\n'
            f'  </xsd:complexType>\n</xsd:schema>')


@pytest.mark.benchmark(group="ext-catalog")
def test_ext_catalog_lazy_compile(benchmark, bench_json):
    doc = catalog_xsd(N_FORMATS)

    def sweep():
        t0 = time.perf_counter()
        lazy = XMIT(lazy=True)
        lazy.load_text(doc)
        lazy_load_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        lazy.bind(f"Fmt{N_FORMATS // 2:05d}", target="pbio")
        first_bind_us = (time.perf_counter() - t0) * 1e6
        stats = lazy.discovery_stats.snapshot()

        t0 = time.perf_counter()
        eager = XMIT()
        eager.load_text(doc)
        eager_load_s = time.perf_counter() - t0

        # compile work in isolation (shared parse removed): what the
        # lazy path defers entirely
        schema = parse_schema(parse(doc))
        t0 = time.perf_counter()
        compile_schema(schema)
        eager_compile_s = time.perf_counter() - t0

        return (lazy_load_s, eager_load_s, eager_compile_s,
                first_bind_us, stats)

    lazy_load_s, eager_load_s, eager_compile_s, first_bind_us, \
        stats = benchmark.pedantic(sweep, rounds=1, iterations=1)

    row = bench_json["BENCH_catalog.json"]["catalog"] = {
        "formats": N_FORMATS,
        "lazy_load_s": round(lazy_load_s, 3),
        "eager_load_s": round(eager_load_s, 3),
        "eager_compile_s": round(eager_compile_s, 3),
        "first_bind_us": round(first_bind_us, 1),
        "deferred_formats": stats["deferred_formats"],
        "lazy_compiles_after_bind": stats["lazy_compiles"],
        "lazy_document_compiles": stats["compiles"],
    }
    benchmark.extra_info.update(row)

    assert stats["deferred_formats"] == N_FORMATS
    assert stats["compiles"] == 0
    assert 1 <= stats["lazy_compiles"] <= 3
    # binding one format must cost a vanishing fraction of compiling
    # the catalog (the point of deferring)
    assert first_bind_us < eager_compile_s * 1e6 / 50


@pytest.mark.benchmark(group="ext-catalog")
def test_ext_warm_start_first_message(benchmark, bench_json,
                                      tmp_path):
    xsd = wide_xsd(N_FIELDS)
    record = {f"f{i:02d}": (1 if i % 3 != 1 else 0.5)
              for i in range(N_FIELDS)}

    def cold_first_message():
        t0 = time.perf_counter()
        xmit = XMIT()
        xmit.load_text(xsd)
        ctx = IOContext(format_server=FormatServer())
        fmt = xmit.register_with_context(ctx, "Wide")
        ctx.encode(fmt, record)
        return (time.perf_counter() - t0) * 1e6, fmt, ctx

    def warm_first_message():
        t0 = time.perf_counter()
        ctx = IOContext(format_server=FormatServer())
        restored = warm_start(context=ctx)
        (fid,) = ctx.format_server.known_ids()
        fmt = ctx.format_server.lookup(fid)
        ctx.encode(fmt, record)
        return (time.perf_counter() - t0) * 1e6, restored, fmt, ctx

    def ledger(first_message):
        """Span accounting for one start."""
        obs.configure(sample_mask=0)
        obs.reset()
        first_message()
        return obs.snapshot()

    def sweep():
        configure_plan_cache(tmp_path / "plans")
        colds, warms = [], []
        try:
            for _ in range(ROUNDS):
                clear_encoder_cache()
                clear_decoder_cache()
                cold_us, fmt, _ = cold_first_message()
                decoder_for_format(fmt)
                colds.append(cold_us)

                # "restart": drop every in-memory artifact, keep disk
                clear_encoder_cache(persistent=False)
                clear_decoder_cache(persistent=False)
                warm_us, restored, _, _ = warm_first_message()
                assert restored == 1
                warms.append(warm_us)

            clear_encoder_cache()
            clear_decoder_cache()
            cold_snap = ledger(cold_first_message)
            clear_encoder_cache(persistent=False)
            clear_decoder_cache(persistent=False)
            warm_snap = ledger(warm_first_message)
        finally:
            clear_encoder_cache()
            clear_decoder_cache()
            reset_plan_cache_configuration()
        return colds, warms, cold_snap, warm_snap

    colds, warms, cold_snap, snap = benchmark.pedantic(
        sweep, rounds=1, iterations=1)

    def total(metric, **labels):
        series = snap.get(metric, {"series": []})["series"]
        return sum(s["value"] for s in series
                   if all(s["labels"].get(k) in v
                          for k, v in labels.items()))

    discovery_spans = total("repro_spans_total",
                            name=("compile", "fetch", "bind"))
    compile_plan_spans = total("repro_spans_total",
                               name=("compile_plan",))
    plan_loads = total("repro_spans_total", name=("plan_cache_load",))
    disk_hits = total("repro_plan_cache_total", tier=("disk",),
                      outcome=("hit",))
    codec_misses = total("repro_codec_plans_total", outcome=("miss",))
    cold_reading = rdm_from_snapshot(cold_snap)
    reading = rdm_from_snapshot(snap)

    cold_us = statistics.median(colds)
    warm_us = statistics.median(warms)
    row = bench_json["BENCH_catalog.json"]["warm_start"] = {
        "fields": N_FIELDS,
        "rounds": ROUNDS,
        "cold_first_message_us": round(cold_us, 1),
        "warm_first_message_us": round(warm_us, 1),
        "cold_warm_ratio": round(cold_us / warm_us, 3),
        "cold_registration_us": round(
            cold_reading["registration_seconds"] * 1e6, 1),
        "warm_registration_us": round(
            reading["registration_seconds"] * 1e6, 1),
        "warm_discovery_spans": discovery_spans,
        "warm_compile_plan_spans": compile_plan_spans,
        "warm_codec_misses": codec_misses,
        "warm_plan_load_spans": plan_loads,
        "warm_disk_hits": disk_hits,
    }
    benchmark.extra_info.update(row)

    assert discovery_spans == 0
    assert plan_loads == disk_hits == 1
    assert compile_plan_spans == codec_misses == 2
    assert warm_us < cold_us
