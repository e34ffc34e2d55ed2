"""The metric catalog: every predeclared series, in one place.

Naming follows Prometheus conventions (``repro_`` prefix, ``_total``
counters, ``_seconds`` histograms).  The catalog is organized by the
subsystems the paper's cost model distinguishes — discovery, codec
(marshal/unmarshal), transport — plus the hydrology workload and the
fault-injection harness.  ``docs/OBSERVABILITY.md`` is the prose
companion.

Hot-path metrics are incremented inline by their subsystems; state
that is cheaper to read on demand (per-client transport queues,
buffer-pool reuse, cached codec plans) arrives through snapshot-time
collectors instead, so steady-state work pays nothing for it.  The
discovery, codec, broadcast and component event series are declared
here for their type and help text only: their values are per-owner
:class:`~repro.obs.registry.Tally` cells, summed at snapshot time.
"""

from __future__ import annotations

from repro.obs.registry import REGISTRY, log_buckets

# -- phases (spans land here; see repro.obs.spans) --------------------------

#: the paper's phase taxonomy: registration-side work (discover,
#: bind/compile) vs steady-state work (marshal, unmarshal, transport)
PHASES = ("discover", "bind/compile", "marshal", "unmarshal",
          "transport", "other")

PHASE_SECONDS = REGISTRY.histogram(
    "repro_phase_seconds",
    "Time spent per phase of the paper's taxonomy "
    "(marshal/unmarshal entries are sampled; see sample_mask)",
    labels=("phase",))

SPANS_TOTAL = REGISTRY.counter(
    "repro_spans_total", "Completed tracing spans",
    labels=("name", "phase"))

# -- discovery --------------------------------------------------------------

DISCOVERY_EVENTS = REGISTRY.counter(
    "repro_discovery_events_total",
    "Discovery-path events summed over every DiscoveryStats "
    "(fetch_attempts, retries, cache_hits, fallbacks, ...)",
    labels=("event",))

DISCOVERY_COMPILE_SECONDS = REGISTRY.histogram(
    "repro_discovery_compile_seconds",
    "Schema-document compile time (one observation per new digest)")

HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "Requests served by MetadataHTTPServer", labels=("status",))

# -- codec (pbio encode/decode) ---------------------------------------------

CODEC_EVENTS = REGISTRY.counter(
    "repro_codec_events_total",
    "Process-wide codec totals summed over every IOContext, living "
    "or dead",
    labels=("event",))

CODEC_PLANS = REGISTRY.counter(
    "repro_codec_plans_total",
    "Compiled codec plan cache outcomes in "
    "encoder_for_format/decoder_for_format (miss counts actual "
    "compiles — single-flight losers are hits)",
    labels=("kind", "outcome"))

PLAN_CACHE = REGISTRY.counter(
    "repro_plan_cache_total",
    "Plan cache tier outcomes: tier=memory counts LRU "
    "hits/evictions, tier=disk counts format entries read "
    "(hit/corrupt/stale/invalid), written (store/store_error) and "
    "purged; see docs/PLAN_CACHE.md",
    labels=("tier", "outcome"))

# -- format evolution -------------------------------------------------------

EVOLUTION_EVENTS = REGISTRY.counter(
    "repro_evolution_events_total",
    "Format-evolution lifecycle events: lineage growth "
    "(lineage_appended), down-conversion plan cache activity "
    "(plans_compiled, plan_cache_hits), records re-encoded for stale "
    "peers (records_down_converted), handshakes (negotiations, "
    "no_common_version) and publisher cutovers (cutovers)",
    labels=("event",))

NEGOTIATED_VERSIONS = REGISTRY.counter(
    "repro_negotiated_versions_total",
    "Lineage handshakes resolved, by the peer's negotiated position "
    "in the lineage chain (v0 = oldest registered version)",
    labels=("version",))

# -- transport --------------------------------------------------------------

TRANSPORT_CLIENTS = REGISTRY.gauge(
    "repro_transport_clients",
    "Open event-loop clients (summed over live servers; collector)")

TRANSPORT_QUEUED_BYTES = REGISTRY.gauge(
    "repro_transport_queued_bytes",
    "Bytes sitting in per-client write queues (collector)")

TRANSPORT_QUEUE_HIGH_WATER = REGISTRY.gauge(
    "repro_transport_queue_high_water_bytes",
    "Largest single-client write queue observed (collector)")

TRANSPORT_FRAMES = REGISTRY.counter(
    "repro_transport_frames_total",
    "Frames through event-loop servers",
    labels=("direction",))

TRANSPORT_BYTES_OUT = REGISTRY.counter(
    "repro_transport_bytes_out_total",
    "Bytes written to event-loop clients")

TRANSPORT_EVENTS = REGISTRY.counter(
    "repro_transport_events_total",
    "Event-loop server lifecycle totals",
    labels=("event",))

BROADCAST_EVENTS = REGISTRY.counter(
    "repro_broadcast_events_total",
    "Publisher events summed over every BroadcastPublisher",
    labels=("event",))

BROADCAST_QUEUE_HIGH_WATER = REGISTRY.gauge(
    "repro_broadcast_queue_high_water",
    "Largest value observed by any publisher")

BROADCAST_SUBSCRIBER_HIGH_WATER = REGISTRY.gauge(
    "repro_broadcast_subscriber_high_water",
    "Largest value observed by any publisher")

MALFORMED_FRAMES = REGISTRY.counter(
    "repro_malformed_frames_total",
    "Wire inputs rejected by bounds-checked validation; counting "
    "instead of disconnecting keeps one hostile frame from tearing "
    "down healthy peers",
    labels=("layer", "reason"))

MALFORMED_DOCUMENTS = REGISTRY.counter(
    "repro_malformed_documents_total",
    "Discovery documents rejected by a resource limit (a hostile "
    "schema gets a typed error, not an exhausted interpreter)",
    labels=("layer", "reason"))

SENDMSG_BATCH = REGISTRY.histogram(
    "repro_transport_sendmsg_batch_frames",
    "Queue entries drained per scatter-gather sendmsg",
    buckets=log_buckets(1.0, 2.0, 10))

# -- hydrology workload -----------------------------------------------------

COMPONENT_MESSAGES = REGISTRY.counter(
    "repro_component_messages_total",
    "Messages through hydrology pipeline components",
    labels=("component", "format", "direction"))

PIPELINE_RUNS = REGISTRY.counter(
    "repro_pipeline_runs_total", "Completed hydrology pipeline runs",
    labels=("mode",))

# -- fault injection --------------------------------------------------------

FAULTS_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults served by the repro.testing.faults harness",
    labels=("kind",))


def _codec_plan_collector():
    """Buffer-pool reuse summed over the process-wide cached codec
    plans — read at snapshot time, free on the encode path."""
    from repro.pbio.encode import ENCODERS
    acquires = reuses = 0
    for encoder in ENCODERS.plans():
        acquires += encoder._pool.acquires
        reuses += encoder._pool.reuses
    return [
        {"name": "repro_codec_buffer_pool_total", "type": "counter",
         "help": "Body-buffer acquisitions by cached encoder plans",
         "labels": {"event": "acquires"}, "value": acquires},
        {"name": "repro_codec_buffer_pool_total", "type": "counter",
         "help": "Body-buffer acquisitions by cached encoder plans",
         "labels": {"event": "reuses"}, "value": reuses},
    ]


REGISTRY.register_collector(_codec_plan_collector)
