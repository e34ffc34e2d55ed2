"""Phase-tagged tracing spans.

A span times one unit of work and files it under the paper's phase
taxonomy (:data:`repro.obs.metrics.PHASES`), so registration-side cost
(``discover``, ``bind/compile``) and steady-state cost (``marshal``,
``unmarshal``, ``transport``) accumulate in separate histogram series
— which is exactly what makes the paper's RDM (relative difference of
marshaling: registration time over marshal time) computable from live
telemetry (:func:`rdm_from_snapshot`).

Usage::

    with obs.span("register", format=fmt.name):
        ctx.register(fmt)

Spans are nestable (each records its own wall time), and in no-op
mode (``obs.set_enabled(False)``) :func:`span` hands back a shared
do-nothing singleton.  Well-known span names map to phases
automatically; anything else passes ``phase=`` explicitly or lands in
``other``.

For steady-state codec operations a context-manager per record would
dwarf the work being measured, so the codec uses :func:`sample_t0`:
a sampled ``perf_counter_ns`` start-or-zero, one branch in the common
case (see ``repro.obs.runtime.sample_mask``).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import perf_counter_ns

from repro.obs import runtime
from repro.obs.metrics import PHASE_SECONDS, PHASES, SPANS_TOTAL

#: default phase per well-known span name
_NAME_PHASES = {
    "fetch": "discover", "load_url": "discover",
    "refresh": "discover",
    "compile": "bind/compile", "register": "bind/compile",
    "compile_plan": "bind/compile", "bind": "bind/compile",
    # loading a persisted plan is *not* registration work — warm
    # starts must read as RDM ≈ 0, so the load files under "other"
    "plan_cache_load": "other",
    "encode": "marshal", "encode_many": "marshal",
    "decode": "unmarshal", "decode_many": "unmarshal",
    "send": "transport", "receive": "transport",
    "fan_out": "transport", "pipeline": "transport",
}

#: per-phase histogram children, resolved once
_PHASE_SERIES = {phase: PHASE_SECONDS.labels(phase=phase)
                 for phase in PHASES}
#: the shared sampling wheel: one count per codec operation, from
#: every thread (``next`` is a single C call, so none is lost)
_next_tick = itertools.count(1).__next__

_trace_lock = threading.Lock()
_trace: deque = deque(maxlen=256)


class _NoopSpan:
    """Shared do-nothing span for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """A live span; records on ``__exit__``."""

    __slots__ = ("name", "phase", "tags", "started_ns", "duration_ns")

    def __init__(self, name: str, phase: str, tags: dict) -> None:
        self.name = name
        self.phase = phase
        self.tags = tags
        self.started_ns = 0
        self.duration_ns = 0

    def __enter__(self) -> "Span":
        self.started_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.duration_ns = perf_counter_ns() - self.started_ns
        _PHASE_SERIES[self.phase].observe(self.duration_ns * 1e-9)
        SPANS_TOTAL.labels(self.name, self.phase).inc()
        if runtime.trace_capacity:
            with _trace_lock:
                _trace.append({"name": self.name, "phase": self.phase,
                               "tags": self.tags,
                               "duration_ns": self.duration_ns})


def span(name: str, *, phase: str | None = None, **tags):
    """A context manager timing one *name*d unit of work.

    *phase* defaults by span name (``register`` -> ``bind/compile``,
    ``fetch`` -> ``discover``, ...), else ``other``.  Extra keyword
    *tags* are kept only in the trace ring (when enabled) — they never
    become metric labels, so tag cardinality is free.
    """
    if not runtime.enabled:
        return _NOOP
    if phase is None:
        phase = _NAME_PHASES.get(name, "other")
    elif phase not in _PHASE_SERIES:
        raise ValueError(f"unknown phase {phase!r} "
                         f"(taxonomy: {list(PHASES)})")
    return Span(name, phase, tags)


def sample_t0() -> int:
    """A sampled span start for per-record codec work.

    Returns ``perf_counter_ns()`` when this operation should be
    timed, else 0 — callers skip the end-side ``observe`` on 0.
    Disabled telemetry always returns 0 after a single branch.
    """
    if not runtime.enabled or _next_tick() & runtime.sample_mask:
        return 0
    return perf_counter_ns()


def observe_phase(phase: str, t0: int) -> None:
    """File ``now - t0`` seconds under *phase* (pairs with a non-zero
    :func:`sample_t0` result)."""
    _PHASE_SERIES[phase].observe((perf_counter_ns() - t0) * 1e-9)


def recent_spans() -> list[dict]:
    """The trace ring's contents, oldest first (requires
    ``configure(trace_capacity=N)``)."""
    with _trace_lock:
        return list(_trace)


# -- switches ----------------------------------------------------------------

def set_enabled(enabled: bool) -> None:
    """Master telemetry switch; False is the no-op mode."""
    runtime.enabled = bool(enabled)


def is_enabled() -> bool:
    return runtime.enabled


def configure(*, sample_mask: int | None = None,
              trace_capacity: int | None = None) -> None:
    """Tune telemetry cost/fidelity.

    *sample_mask* must be ``2**k - 1``; 0 times every codec operation
    (exact phase sums), 15 (default) times one in sixteen.
    *trace_capacity* sizes the span trace ring; 0 disables tracing.
    """
    global _trace
    if sample_mask is not None:
        if sample_mask & (sample_mask + 1):
            raise ValueError("sample_mask must be 2**k - 1")
        runtime.sample_mask = sample_mask
    if trace_capacity is not None:
        if trace_capacity < 0:
            raise ValueError("trace_capacity must be >= 0")
        runtime.trace_capacity = trace_capacity
        with _trace_lock:
            _trace = deque(_trace, maxlen=max(trace_capacity, 1))


class _Disabled:
    """``with obs.disabled(): ...`` — scoped no-op mode (tests)."""

    def __enter__(self):
        self._was = runtime.enabled
        runtime.enabled = False
        return self

    def __exit__(self, *exc):
        runtime.enabled = self._was


def disabled() -> _Disabled:
    return _Disabled()


# -- derived readings --------------------------------------------------------

def phase_seconds(snapshot: dict) -> dict[str, dict]:
    """Per-phase ``{"sum": s, "count": n}`` from a registry snapshot."""
    out: dict[str, dict] = {}
    entry = snapshot.get("repro_phase_seconds")
    if entry is None:
        return out
    for series in entry["series"]:
        out[series["labels"]["phase"]] = {"sum": series["sum"],
                                          "count": series["count"]}
    return out


def rdm_from_snapshot(snapshot: dict) -> dict:
    """The paper's cost split, read from live telemetry alone.

    Registration cost is the summed ``discover`` + ``bind/compile``
    phase time; per-record marshal cost is the mean of the sampled
    ``marshal`` observations (sampling-agnostic — the mean needs no
    scale-up by the sample rate).  Returns::

        {"registration_seconds", "marshal_seconds_per_record",
         "marshal_records_sampled", "rdm"}

    where ``rdm = registration_seconds / marshal_seconds_per_record``
    — how many steady-state records one registration costs, the
    amortization denominator of section 4.2.  ``rdm`` is None until
    both sides have observations.
    """
    phases = phase_seconds(snapshot)
    registration = sum(phases.get(p, {}).get("sum", 0.0)
                      for p in ("discover", "bind/compile"))
    marshal = phases.get("marshal", {"sum": 0.0, "count": 0})
    per_record = (marshal["sum"] / marshal["count"]
                  if marshal["count"] else None)
    rdm = (registration / per_record
           if per_record else None)
    return {"registration_seconds": registration,
            "marshal_seconds_per_record": per_record,
            "marshal_records_sampled": marshal["count"],
            "rdm": rdm}
