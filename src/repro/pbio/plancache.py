"""Codec plan caches: the process-wide front-end every compiled plan
comes into being through, and the on-disk tier below it.

The paper's economics are "pay metadata/binding cost once, amortize
over many messages".  Two tiers carry that across calls and across
restarts:

* **Memory** — :class:`PlanFrontEnd`: a true LRU plus single-flight
  construction, instantiated once each for encoders, decoders and
  down-converters.  A miss compiles from the live
  :class:`~repro.pbio.format.IOFormat`; nothing else makes a codec.
* **Disk** — :class:`PlanCache`: one entry per format digest holding
  the format's canonical **metadata**, never a plan and never code.
  :func:`warm_start` turns the entries back into formats, so a
  restarting process skips fetch, XML parse, schema compile and bind,
  then compiles its codecs like any other process.  Every entry goes
  through one read path — bounded read, JSON, integrity digest, schema
  version, ``deserialize_format``, re-derived
  :class:`~repro.pbio.format.FormatID` — and every outcome is counted
  under ``repro_plan_cache_total{tier="disk"}``: a damaged or hostile
  directory costs time, never correctness, and nothing read from it
  is executed.  Entries are written to a same-directory temp file and
  ``os.replace``'d into place, so concurrent processes never read a
  torn entry; racing writers last-write-wins identical bytes.

Enable the disk tier by setting ``REPRO_PLAN_CACHE_DIR`` or calling
:func:`configure_plan_cache`.  ``docs/PLAN_CACHE.md`` is the prose
companion.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
from collections import OrderedDict
from functools import partial
from pathlib import Path

from repro.errors import ReproError
from repro.pbio.format import IOFormat, deserialize_format

#: bump on any incompatible change to the entry payload; other
#: versions' entries read "stale" (schema 1 entries carried marshalled
#: code objects — they are counted and left alone, never executed)
CACHE_SCHEMA = 2

#: no entry is read past this many bytes (metadata for a 96-field
#: format is 2.4 KB); larger files count as corrupt
MAX_ENTRY_BYTES = 1 << 20

#: in-memory capacity of each :class:`PlanFrontEnd`
MAX_CACHED_PLANS = 256

_ENTRY_SUFFIX = ".plan.json"


def _count(outcome: str, tier: str = "disk") -> None:
    """Bump ``repro_plan_cache_total{tier,outcome}`` (no-op-cheap when
    telemetry is disabled, matching the codec hot-path convention)."""
    from repro.obs import runtime as _obs
    if _obs.enabled:
        from repro.obs.metrics import PLAN_CACHE
        PLAN_CACHE.labels(tier, outcome).inc()


def _count_codec_plan(kind: str, outcome: str, n: int = 1) -> None:
    """Bump ``repro_codec_plans_total{kind,outcome}``."""
    from repro.obs import runtime as _obs
    if _obs.enabled:
        from repro.obs.metrics import CODEC_PLANS
        CODEC_PLANS.labels(kind, outcome).inc(n)


class PlanCache:
    """One on-disk cache directory: format metadata by format digest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def entry_path(self, fmt: IOFormat) -> Path:
        return self.root / \
            f"{fmt.format_id}.v{CACHE_SCHEMA}{_ENTRY_SUFFIX}"

    def store(self, fmt: IOFormat) -> Path | None:
        """Record *fmt*; returns the entry path, or None if the write
        failed (best-effort: a full disk must never fail an encode).
        An entry already in place is kept — it is either good, or the
        next read rejects and removes it."""
        path = self.entry_path(fmt)
        if path.exists():
            return path
        payload = {
            "cache_schema": CACHE_SCHEMA,
            "format_id": str(fmt.format_id),
            "format_name": fmt.name,
            "metadata_b64": base64.b64encode(
                fmt.canonical_bytes()).decode("ascii"),
        }
        payload["entry_sha256"] = _payload_digest(payload)
        tmp = path.with_name(
            f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            _count("store_error")
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        _count("store")
        return path

    def load(self, path: Path) -> IOFormat | None:
        """The format in the entry at *path*, or None — the only way
        anything is read from the directory.

        Counted outcomes: ``hit``; ``corrupt`` (unreadable, oversized,
        not JSON, integrity digest mismatch); ``stale`` (another cache
        schema's entry — left in place for the version that wrote it);
        ``invalid`` (metadata does not parse, or re-derives to a
        different format id).  Corrupt and invalid entries are removed
        so the next compile of that format can write a good one.
        """
        from repro.obs.spans import span
        with span("plan_cache_load", entry=path.name):
            try:
                with open(path, "rb") as fh:
                    raw = fh.read(MAX_ENTRY_BYTES + 1)
                if len(raw) > MAX_ENTRY_BYTES:
                    raise ValueError("oversized entry")
                payload = json.loads(raw)
                if payload["entry_sha256"] != _payload_digest(payload):
                    raise ValueError("integrity digest mismatch")
            except (OSError, ValueError, TypeError, LookupError,
                    RecursionError):
                return self._reject(path, "corrupt")
            if payload.get("cache_schema") != CACHE_SCHEMA:
                _count("stale")
                return None
            try:
                fmt = deserialize_format(
                    base64.b64decode(payload["metadata_b64"]))
            except (LookupError, ValueError, TypeError, ReproError,
                    RecursionError):
                return self._reject(path, "invalid")
            if str(fmt.format_id) != payload.get("format_id"):
                return self._reject(path, "invalid")
            _count("hit")
            return fmt

    def _reject(self, path: Path, outcome: str) -> None:
        _count(outcome)
        try:
            path.unlink()
        except OSError:
            pass

    def entries(self) -> list[Path]:
        return sorted(self.root.glob(f"*{_ENTRY_SUFFIX}"))

    def purge(self) -> int:
        """Delete every entry; returns the count.  The invalidation
        hook behind :func:`~repro.pbio.encode.clear_encoder_cache` /
        :func:`~repro.pbio.decode.clear_decoder_cache`."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            _count("purge")
        return removed

    def stored_formats(self) -> list[IOFormat]:
        """Every distinct format with a good entry.  This is what lets
        a restarting process rebind its working set without one schema
        fetch or XML parse."""
        seen: dict = {}
        for path in self.entries():
            fmt = self.load(path)
            if fmt is not None:
                seen.setdefault(fmt.format_id, fmt)
        return list(seen.values())

    def __repr__(self) -> str:
        return f"PlanCache({str(self.root)!r})"


def _payload_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "entry_sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# process-wide active cache
# ---------------------------------------------------------------------------

ENV_VAR = "REPRO_PLAN_CACHE_DIR"

_UNSET = object()
_configured: object = _UNSET
_env_cache: tuple[str, PlanCache] | None = None
_active_lock = threading.Lock()


def configure_plan_cache(target: str | Path | PlanCache | None) \
        -> PlanCache | None:
    """Set (or with None, disable) the process-wide persistent tier,
    overriding ``REPRO_PLAN_CACHE_DIR``.  Returns the active cache."""
    global _configured
    with _active_lock:
        if target is None:
            _configured = None
        elif isinstance(target, PlanCache):
            _configured = target
        else:
            _configured = PlanCache(target)
        return _configured  # type: ignore[return-value]


def reset_plan_cache_configuration() -> None:
    """Drop any :func:`configure_plan_cache` override and forget the
    memoized environment lookup (tests)."""
    global _configured, _env_cache
    with _active_lock:
        _configured = _UNSET
        _env_cache = None


def active_plan_cache() -> PlanCache | None:
    """The persistent tier the codec layer should use, or None.

    An explicit :func:`configure_plan_cache` wins; otherwise the
    ``REPRO_PLAN_CACHE_DIR`` environment variable (re-read on every
    call so tests and forked workers see updates, with the PlanCache
    object memoized per directory)."""
    global _env_cache
    with _active_lock:
        if _configured is not _UNSET:
            return _configured  # type: ignore[return-value]
        root = os.environ.get(ENV_VAR)
        if not root:
            return None
        if _env_cache is not None and _env_cache[0] == root:
            return _env_cache[1]
        try:
            cache = PlanCache(root)
        except OSError:
            return None
        _env_cache = (root, cache)
        return cache


def warm_start(*, cache: PlanCache | None = None,
               context=None) -> int:
    """Rebind this process's working set from the disk tier.

    Every good entry becomes an :class:`IOFormat` again (a disk
    ``hit`` under a ``plan_cache_load`` span each — no fetch, parse,
    schema compile or bind), and its encoder and decoder are built
    through the ordinary front-ends, so that part of a restart shows
    up as what it is: ``compile_plan`` spans and
    ``repro_codec_plans_total`` misses.  When *context* (an
    :class:`~repro.pbio.context.IOContext`) is given, the formats are
    also registered with its format server so inbound records resolve
    without negotiation.  Returns the number of formats restored.
    """
    from repro.pbio.decode import decoder_for_format
    from repro.pbio.encode import encoder_for_format
    cache = cache if cache is not None else active_plan_cache()
    if cache is None:
        return 0
    restored = 0
    for fmt in cache.stored_formats():
        encoder_for_format(fmt)
        decoder_for_format(fmt)
        if context is not None:
            context.format_server.register(fmt)
            context._wire_formats[fmt.format_id] = fmt
        restored += 1
    return restored


# ---------------------------------------------------------------------------
# in-memory tier: a true LRU with telemetry
# ---------------------------------------------------------------------------

class PlanLRU:
    """Thread-safe LRU for compiled plans, replacing the old FIFO
    ``dict`` + hard-cap eviction (which evicted in pure insertion
    order, so a hot plan inserted first died before a cold one).

    ``get`` refreshes recency and counts a
    ``repro_plan_cache_total{tier="memory",outcome="hit"}``; evictions
    are counted under both the new metric and the legacy
    ``repro_codec_plans_total{kind,outcome="evict"}`` series."""

    def __init__(self, capacity: int, kind: str) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.kind = kind
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        if value is not None:
            _count("hit", tier="memory")
        return value

    def peek(self, key):
        """Presence probe without recency refresh or telemetry."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self._entries[key] = value
        for _ in range(evicted):
            _count("evict", tier="memory")
        if evicted:
            _count_codec_plan(self.kind, "evict", evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries


# ---------------------------------------------------------------------------
# single-flight plan construction
# ---------------------------------------------------------------------------

class _Flight:
    """Ticket for one in-progress plan build: the first thread to miss
    on a key becomes the leader and compiles; later threads wait on the
    event instead of compiling a duplicate that would be silently
    discarded at insert (and miscounted as a compile miss)."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


def single_flight(lock: threading.Lock, flights: dict, cache: PlanLRU,
                  key, build):
    """Get-or-build *key* with at most one builder per key at a time.

    Returns ``(value, built)`` — ``built`` is True only for the leader
    that actually ran *build()*, so callers can count genuine compile
    misses (single-flight losers see ``built=False`` and count as
    hits).  If the leader's build raises, its waiters wake, find no
    cached value, and retry for leadership — the error stays with the
    thread whose build failed."""
    while True:
        with lock:
            value = cache.peek(key)
            if value is not None:
                return value, False
            flight = flights.get(key)
            if flight is None:
                flight = _Flight()
                flights[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            flight.event.wait()
            value = cache.peek(key)
            if value is not None:
                return value, False
            continue
        try:
            value = build()
            cache.put(key, value)
            return value, True
        finally:
            with lock:
                flights.pop(key, None)
            flight.event.set()


# ---------------------------------------------------------------------------
# the front-end: one way for a compiled plan to come into being
# ---------------------------------------------------------------------------

class PlanFrontEnd:
    """Process-wide get-or-build cache for one kind of compiled plan:
    LRU lookup, single-flight construction and outcome counting in
    one place.  A ``miss`` is an actual build — single-flight losers
    count as hits.  *count* defaults to
    ``repro_codec_plans_total{kind}``."""

    def __init__(self, kind: str, count=None) -> None:
        self._count = count or partial(_count_codec_plan, kind)
        self._lru = PlanLRU(MAX_CACHED_PLANS, kind)
        self._lock = threading.Lock()
        self._flights: dict = {}

    def get(self, key, build):
        plan = self._lru.get(key)
        if plan is None:
            plan, built = single_flight(self._lock, self._flights,
                                        self._lru, key, build)
            if built:
                self._count("miss")
                return plan
        self._count("hit")
        return plan

    def clear(self, *, persistent: bool = False) -> None:
        """Drop every cached plan; with *persistent* also purge the
        active disk tier, so a cleared format cannot come back from
        disk."""
        self._lru.clear()
        store = active_plan_cache() if persistent else None
        if store is not None:
            store.purge()


def compile_codec(kind: str, codec_class, fmt: IOFormat, **options):
    """The leader-side build of an encoder or decoder:
    ``codec_class(fmt, **options)`` under a ``compile_plan`` span, then
    *fmt* recorded in the active disk tier so the next restart can
    skip discovering it."""
    from repro.obs.spans import span
    with span("compile_plan", kind=kind, format=fmt.name):
        codec = codec_class(fmt, **options)
    store = active_plan_cache()
    if store is not None:
        store.store(fmt)
    return codec
