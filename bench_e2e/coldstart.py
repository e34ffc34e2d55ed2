"""``cold_start``: the registration ledger.

Per iteration a schema document nobody has seen (new type names, so
every digest-keyed cache misses by construction) is put on the HTTP
server; then, timed: publisher and subscriber each fetch it with a
fresh ``XMIT``, bind and register its formats with a fresh
``IOContext``; the publisher marshals its first record and the
subscriber unmarshals it.  No data socket is opened — closing a
``TCPChannel`` pair from one thread lingers 0.2 s per iteration
(README, findings), and nothing from the streaming path belongs in this
ledger anyway.
"""

from __future__ import annotations

from pathlib import Path
from statistics import mean, median
from time import perf_counter

import gen
from hostspeed import SetUpClock
from streaming import alternate, discover_endpoint, percentile
from tracing import Tracer, dump, per_message

from repro import NATIVE, XMIT, IOContext
from repro.core.schema_compiler import compile_schema
from repro.core.targets.pbio_target import PBIOTarget
from repro.http import DocumentStore, MetadataHTTPServer, fetch
from repro.obs.metrics import CODEC_PLANS
from repro.pbio.decode import clear_decoder_cache, decoder_for_format
from repro.pbio.encode import clear_encoder_cache, encoder_for_format
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import compute_layout
from repro.schema.parser import parse_schema
from repro.xmlcore.parser import parse_bytes

DOC_PATH = "/formats.xsd"
#: the warm-up's documents are the same for every seed (their names
#: cannot collide with a seed's), and wire_bytes_per_msg is counted
#: over them: an exact count that no seed and no run length changes
WARMUP_SEED = "warmup"
WARMUP_ITERATIONS = 20


def compiled_in_register(types) -> IOContext:
    """The compiled-in path (RDM denominator): field specs -> layout
    -> register, dependencies first, on a fresh context."""
    ctx = IOContext(format_server=FormatServer())
    subformats: dict = {}
    alignments: dict = {}
    for name, specs in gen.field_specs(types).items():
        layout = compute_layout(specs, architecture=NATIVE,
                                subformats=subformats,
                                sub_alignments=alignments)
        ctx.register_format(name, layout.field_list)
        subformats[name] = layout.field_list
        alignments[name] = layout.alignment
    return ctx


def xmit_register(text: str) -> IOContext:
    """The XMIT path from document text (RDM numerator; section 4.2
    excludes the fetch)."""
    ctx = IOContext(format_server=FormatServer())
    xmit = XMIT()
    for name in xmit.load_text(text):
        xmit.register_with_context(ctx, name)
    return ctx


def plan_misses() -> int:
    return (CODEC_PLANS.labels("encoder", "miss").value
            + CODEC_PLANS.labels("decoder", "miss").value)


class ColdStart:
    def __init__(self, seed: int | str) -> None:
        self.seed = seed
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.store = DocumentStore()
        self.http = MetadataHTTPServer(self.store)
        self.url = self.http.url_for(DOC_PATH)
        self.wire_bytes = 0
        self.fetches = self.compiles = self.misses = 0

    def close(self) -> None:
        self.http.close()

    def publish_next(self):
        """Generate document *index* and put it on the server."""
        types = gen.schema_description(self.seed, self.index)
        text = gen.xsd_text(types)
        record = gen.sample_record(types, self.seed, self.index)
        self.index += 1
        self.store.put(DOC_PATH, text)
        return types, text, record

    def first_record(self, types, text: str, record: dict) -> float:
        """Nothing registered -> first record marshalled by one
        endpoint and unmarshalled by the other; returns seconds."""
        message = types[-1].name
        misses0 = plan_misses()
        t0 = perf_counter()
        publisher, pub_xmit = discover_endpoint(self.url)
        subscriber, sub_xmit = discover_endpoint(self.url)
        wire = publisher.encode(message, record)
        got = subscriber.decode(wire).record
        elapsed = perf_counter() - t0
        # oracles, outside the timed span
        self.attempted += 1
        stats = [x.discovery_stats.snapshot() for x in (pub_xmit, sub_xmit)]
        fetches = sum(s["fetch_attempts"] for s in stats)
        compiles = sum(s["compiles"] for s in stats)
        misses = plan_misses() - misses0
        self.fetches += fetches
        self.compiles += compiles
        self.misses += misses
        compiled = compiled_in_register(types)
        same_ids = all(
            publisher.lookup_format(t.name).format_id
            == compiled.lookup_format(t.name).format_id for t in types)
        # a cold start that was served from a cache is not a cold start
        cold = fetches == 2 and compiles == 2 and misses == 2
        if not (got == record and same_ids and cold):
            self.failed += 1
        # both endpoints fetch the document, then one record crosses
        self.wire_bytes += 2 * len(text.encode()) + len(wire)
        return elapsed

    def block(self, seconds: float = 0.0, count: int = 0) -> list[float]:
        samples: list[float] = []
        end = perf_counter() + seconds
        while perf_counter() < end or len(samples) < count:
            samples.append(self.first_record(*self.publish_next()))
        return samples


def run(seed: int, seconds: float, trace: bool, out_dir: Path,
        setup: SetUpClock) -> dict:
    cold = ColdStart(WARMUP_SEED)
    try:
        cold.block(count=WARMUP_ITERATIONS)
        wire = cold.wire_bytes / WARMUP_ITERATIONS
        cold.seed, cold.index = seed, 0
        cold.fetches = cold.compiles = cold.misses = 0
        if trace:
            metrics, notes = traced_pass(cold, seconds, out_dir)
        else:
            metrics, notes = timed_pass(cold, seconds, setup)
            metrics["wire_bytes_per_msg"] = wire
    finally:
        cold.close()
    return {"correct": cold.failed == 0, "attempted": cold.attempted,
            "failed": cold.failed, "metrics": metrics, "notes": notes}


def timed_pass(cold: ColdStart, seconds: float, setup: SetUpClock):
    (latency, rate), setup_s = alternate(
        seconds, setup, (cold.block, median), (cold.block, mean))
    metrics = {
        "setup_s": setup_s,
        # first_record_p50_ms, in the unit the streaming workloads use
        "latency_p50_us": median(latency[0]) * 1e6,
        # closed loop, one cold start at a time: first records
        # delivered per second of registration work
        "msgs_per_s": 1.0 / median(rate[0]),
    }
    notes = {"latency_samples": sum(latency[2]),
             "blocks": len(latency[0]),
             "latency_p50_us_as_measured": median(latency[1]) * 1e6,
             "msgs_per_s_as_measured": 1.0 / median(rate[1])}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

def layered_first_record(cold: ColdStart, tracer: Tracer, types,
                         record: dict) -> int:
    """The same first record with every layer called directly, in the
    order the composite calls them (as ``repro.bench.rdm.xmit_register``
    does), each under its own span.  Returns the document's size."""
    span = tracer.span
    contexts, formats = [], []
    with span("first_record"):
        for _endpoint in range(2):
            with span("http.fetch"):
                data = fetch(cold.url)
            with span("xmlcore.parse"):
                document = parse_bytes(data)
            with span("schema.parse"):
                schema = parse_schema(document)
            with span("core.compile"):
                ir = compile_schema(schema)
            ctx = IOContext(format_server=FormatServer())
            target = PBIOTarget()
            for t in types:
                with span("core.bind"):
                    token = target.generate(ir, t.name, architecture=NATIVE)
                with span("pbio.register"):
                    ctx.register(token.artifact)
            contexts.append(ctx)
            formats.append(token.artifact)  # the message type is last
        with span("pbio.encode.plan_compile"):
            encoder_for_format(formats[0])
        with span("pbio.context.encode"):
            wire = contexts[0].encode(formats[0], record)
        with span("pbio.decode.plan_compile"):
            decoder_for_format(formats[1])
        with span("pbio.context.decode"):
            got = contexts[1].decode(wire).record
    cold.attempted += 1
    if got != record:
        cold.failed += 1
    return len(data)


def traced_pass(cold: ColdStart, seconds: float, out_dir: Path):
    tracer = Tracer()
    reference, load_url, xmit_path, compiled_path = [], [], [], []
    doc_bytes = []
    end = perf_counter() + seconds
    while perf_counter() < end or not reference:
        types, text, record = cold.publish_next()
        # untraced composite first; the layered pass then needs the
        # plan caches empty again to compile what the composite did
        reference.append(cold.first_record(types, text, record))
        clear_encoder_cache(persistent=False)
        clear_decoder_cache(persistent=False)
        doc_bytes.append(
            layered_first_record(cold, tracer, types, record))

        t0 = perf_counter()
        XMIT().load_url(cold.url)
        t1 = perf_counter()
        xmit_register(text)
        t2 = perf_counter()
        compiled_in_register(types)
        t3 = perf_counter()
        load_url.append(t1 - t0)
        xmit_path.append(t2 - t1)
        compiled_path.append(t3 - t2)
    spans = tracer.spans()
    out_dir.mkdir(parents=True, exist_ok=True)
    dump(spans, out_dir / "trace-cold_start.json")
    total = per_message(spans, [s[2] - s[1] for s in spans])

    def ms(span: str) -> float:
        return median(total[span]) / 1e6

    n = len(reference)
    untraced_ms = median(reference) * 1e3
    layers = [name for name in total if name != "first_record"]
    attributed_ms = median(
        sum(values) for values in
        zip(*(total[name] for name in layers))) / 1e6
    parse_ms = ms("xmlcore.parse")
    # load_url on one endpoint vs the four layers it is made of (the
    # spans hold both endpoints)
    inside_load_url = (ms("http.fetch") + parse_ms + ms("schema.parse")
                       + ms("core.compile")) / 2
    load_url_ms = median(load_url) * 1e3
    metrics = {
        "first_record_p50_ms": untraced_ms,
        "rdm": median(xmit_path) / median(compiled_path),
        "pbio.compiled_in_register_ms": median(compiled_path) * 1e3,
        "http.fetch_ms": ms("http.fetch"),
        "http.bytes_per_doc": median(doc_bytes),
        "xmlcore.parse_ms": parse_ms,
        # bytes per microsecond; both endpoints parse the document
        "xmlcore.parse_MB_per_s": median(
            2 * size / (ns / 1e3) for size, ns in
            zip(doc_bytes, total["xmlcore.parse"])),
        "schema.parse_ms": ms("schema.parse"),
        "core.compile_ms": ms("core.compile"),
        "core.bind_ms": ms("core.bind"),
        "pbio.register_ms": ms("pbio.register"),
        "core.toolkit.load_url_ms": load_url_ms,
        "core.registry.self_ms": load_url_ms - inside_load_url,
        "pbio.encode.plan_compile_ms": ms("pbio.encode.plan_compile"),
        "pbio.decode.plan_compile_ms": ms("pbio.decode.plan_compile"),
        "pbio.context.encode_us": ms("pbio.context.encode") * 1e3,
        "pbio.context.decode_us": ms("pbio.context.decode") * 1e3,
        "pbio.plans.misses_per_iter": cold.misses / n,
        "core.registry.fetches_per_iter": cold.fetches / n,
        "core.registry.compiles_per_iter": cold.compiles / n,
        "tail.latency_p99_us": percentile(reference, 0.99) * 1e6,
        "ledger.unattributed_ratio":
            abs(untraced_ms - attributed_ms) / untraced_ms,
        "ledger.trace_overhead_ratio":
            ms("first_record") / untraced_ms - 1.0,
    }
    notes = {"reference_samples": n, "reference_p50_ms": untraced_ms,
             "attributed_ms": attributed_ms,
             "traced_p50_ms": ms("first_record")}
    return metrics, notes
