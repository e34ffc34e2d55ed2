"""``repro.obs`` — the unified telemetry layer.

One process-wide registry of counters, gauges and log-bucket
histograms (:mod:`repro.obs.registry`), a phase-tagged span API
(:mod:`repro.obs.spans`) and Prometheus/JSON exposition
(:mod:`repro.obs.exposition`), instrumenting discovery
(``repro.http.retry`` / ``repro.core.registry``), the codec
(``repro.pbio``), transport (``repro.transport``) and the hydrology
workload — so the paper's central cost split (registration-time RDM
vs zero steady-state marshaling overhead) is visible from a running
system: ``GET /metrics`` on :class:`~repro.http.server
.MetadataHTTPServer`, a ``STATS_REQ`` frame to a broadcast publisher,
or ``python -m repro.tools.obsdump``.

Hot-path cost is bounded by design — per-owner counts in cells only
the counting thread writes, plain-int adds under striped locks for
the shared series, sampled codec timing, a single-branch no-op mode —
and enforced by ``benchmarks/check_gates.py`` in CI.
"""

from repro.obs import runtime
from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE, parse_json, render_json,
    render_prometheus,
)
from repro.obs.merge import (
    WORKER_LABEL, aggregate_snapshot, merge_snapshots,
)
from repro.obs.metrics import PHASES
from repro.obs.registry import (
    REGISTRY, MetricsRegistry, Tally, log_buckets,
)
from repro.obs.spans import (
    Span, configure, disabled, is_enabled, observe_phase,
    phase_seconds, rdm_from_snapshot, recent_spans, sample_t0,
    set_enabled, span,
)


def snapshot() -> dict:
    """Snapshot the process-wide registry (plain JSON-safe dicts)."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero every series in the process-wide registry (tests)."""
    REGISTRY.reset()


__all__ = [
    "MetricsRegistry",
    "PHASES",
    "PROMETHEUS_CONTENT_TYPE",
    "REGISTRY",
    "Span",
    "Tally",
    "WORKER_LABEL",
    "aggregate_snapshot",
    "configure",
    "disabled",
    "is_enabled",
    "log_buckets",
    "merge_snapshots",
    "observe_phase",
    "parse_json",
    "phase_seconds",
    "rdm_from_snapshot",
    "recent_spans",
    "render_json",
    "render_prometheus",
    "reset",
    "runtime",
    "sample_t0",
    "set_enabled",
    "snapshot",
    "span",
]
