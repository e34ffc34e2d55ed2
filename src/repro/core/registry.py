"""Format registry: URL-keyed metadata with change propagation.

One effect of XMIT's indirect discovery (section 3): "changes to the
message formats used by distributed programs can be centralized, and
XMIT ensures that they are propagated to all program components using
these formats."  The registry remembers which URL produced which
formats; :meth:`refresh` re-fetches a URL, recompiles, diffs, and
notifies subscribers of every changed or added format.

The discovery path is resilient (the paper's amortization story
assumes discovery is rare and reliable; a real network makes it
neither):

* fetches go through :func:`repro.http.urls.fetch` under a
  :class:`~repro.http.retry.RetryPolicy` (bounded exponential backoff,
  deterministic jitter);
* fetched documents are held in a digest-keyed cache with a TTL, so a
  re-load inside the TTL costs no fetch and an unchanged digest costs
  no recompile;
* URLs that exhausted their retry budget are negative-cached for a
  short interval, failing fast instead of hammering a dead server;
* a failed :meth:`refresh` (or re-load) of a URL that loaded
  successfully before is logged and counted, and the registry keeps
  serving the **last-known-good** compiled formats instead of raising;
* all mutation happens under a lock, listener notification included,
  so concurrent loaders see exactly one compile per digest and never a
  torn notification batch.

Counters live in :attr:`FormatRegistry.stats`
(:class:`~repro.http.retry.DiscoveryStats`).
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.ir import FormatIR, IRSet
from repro.core.schema_compiler import compile_schema
from repro.errors import DiscoveryError, ReproError
from repro.http.retry import DiscoveryStats, RetryPolicy
from repro.http.urls import fetch, resolve_url
from repro.obs.metrics import DISCOVERY_COMPILE_SECONDS
from repro.obs.spans import span
from repro.schema.model import Schema
from repro.schema.parser import parse_schema_document

logger = logging.getLogger("repro.discovery")

#: subscriber signature: (event, format_name, format_ir_or_None)
#: where event is "added" | "changed" | "removed".
ChangeListener = Callable[[str, str, FormatIR | None], None]


@dataclass
class _Source:
    url: str
    digest: str
    format_names: tuple[str, ...]
    enum_names: tuple[str, ...] = ()


@dataclass
class _CachedDocument:
    data: bytes
    digest: str
    fetched_at: float


class _LazyFormatMap(dict):
    """``IRSet.formats`` for a lazy registry: complexTypes parsed from
    a document are *deferred* and compiled on first lookup.

    Compiled entries live in the underlying dict; ``_pending`` maps
    format name to the parsed (merged, reference-checked)
    :class:`Schema` that defines it.  Membership, iteration and length
    include pending names — the formats exist, they just have no IR
    yet — while ``values()``/``items()`` materialize everything first,
    since callers iterating IR bodies (schema export, live-message
    matching) genuinely need all of them.  Compilation happens under
    the registry lock, so concurrent first lookups compile once.
    """

    def __init__(self, registry: "FormatRegistry",
                 initial: dict | None = None) -> None:
        super().__init__(initial or {})
        self._registry = registry
        self._pending: dict[str, Schema] = {}

    # -- deferral ------------------------------------------------------------

    def defer(self, name: str, schema: Schema, *,
              replace: bool = False) -> None:
        """Mark *name* as defined by *schema* but not yet compiled.
        ``replace`` drops any previously compiled IR (a re-ingested
        document with a new digest must not serve stale IR)."""
        with self._registry._lock:
            if replace:
                super().pop(name, None)
                self._pending[name] = schema
            elif name not in self._pending \
                    and not super().__contains__(name):
                self._pending[name] = schema

    def pending_names(self) -> tuple[str, ...]:
        with self._registry._lock:
            return tuple(self._pending)

    def compiled_names(self) -> tuple[str, ...]:
        with self._registry._lock:
            return tuple(dict.keys(self))

    # -- dict protocol ---------------------------------------------------------

    def __missing__(self, name):
        with self._registry._lock:
            if super().__contains__(name):    # lost a compile race
                return super().__getitem__(name)
            schema = self._pending.get(name)
            if schema is None:
                raise KeyError(name)
            fmt = self._registry._compile_deferred(name, schema)
            super().__setitem__(name, fmt)
            del self._pending[name]
            return fmt

    def __contains__(self, name) -> bool:
        return super().__contains__(name) or name in self._pending

    def get(self, name, default=None):
        try:
            return self[name]
        except KeyError:
            return default

    def pop(self, name, *default):
        with self._registry._lock:
            self._pending.pop(name, None)
            return super().pop(name, *default)

    def __iter__(self):
        yield from dict.keys(self)
        compiled = set(dict.keys(self))
        yield from (n for n in list(self._pending)
                    if n not in compiled)

    def __len__(self) -> int:
        return len(list(iter(self)))

    def keys(self):
        return list(self)

    def values(self):
        self.materialize()
        return dict.values(self)

    def items(self):
        self.materialize()
        return dict.items(self)

    def materialize(self) -> None:
        """Compile every still-pending format (bulk consumers)."""
        for name in self.pending_names():
            self.get(name)


@dataclass
class FormatRegistry:
    """Tracks loaded metadata documents and their formats.

    With ``lazy=True`` a loaded document is parsed and its enums
    compiled, but each complexType is only compiled to IR on its first
    use (binding, export, diffing) — large schema catalogs cost
    ingest-time parsing only, and registry memory grows with the
    working set instead of the catalog (see the 10k-format benchmark,
    ``BENCH_catalog.json``).
    """

    ir: IRSet = field(default_factory=IRSet)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_ttl: float = 300.0
    negative_ttl: float = 1.0
    lazy: bool = False
    clock: Callable[[], float] = field(default=time.monotonic,
                                       repr=False)
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)
    loads: int = 0
    _sources: dict[str, _Source] = field(default_factory=dict)
    _listeners: list[ChangeListener] = field(default_factory=list)
    _documents: dict[str, _CachedDocument] = field(default_factory=dict)
    _negative: dict[str, float] = field(default_factory=dict)
    #: digest -> (format names, enum names) of a completed compile.
    _compiled: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = \
        field(default_factory=dict)
    #: name -> successive IR versions seen across loads/refreshes
    #: (advisory lineage; the wire-level digest chains live in
    #: repro.pbio.lineage.LineageRegistry)
    _history: dict[str, list[FormatIR]] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False)

    def __post_init__(self) -> None:
        if self.lazy and not isinstance(self.ir.formats,
                                        _LazyFormatMap):
            self.ir.formats = _LazyFormatMap(self, self.ir.formats)

    # -- loading ------------------------------------------------------------

    def load_url(self, url: str) -> tuple[str, ...]:
        """Fetch, parse and compile the schema document at *url*.

        Returns the names of the formats it defined.  A re-load inside
        the cache TTL is served from the document cache without a
        fetch; past the TTL it behaves like :meth:`refresh`.  If the
        URL loaded successfully before and now fails (fetch or
        compile), the failure is counted and the previously compiled
        formats keep being served.
        """
        with self._lock:
            cached = self._fresh_document(url)
            if cached is not None:
                self.stats.count("cache_hits")
                return self._ingest(url, cached.data,
                                    digest=cached.digest)
            self.stats.count("cache_misses")
            return self._load_or_fallback(url).format_names

    def load_text(self, text: str, *, source: str = "<inline>") \
            -> tuple[str, ...]:
        """Compile schema *text* not associated with a fetchable URL."""
        with self._lock:
            return self._ingest(source, text.encode("utf-8"))

    def refresh(self, url: str) -> tuple[str, ...]:
        """Re-fetch *url*; returns names of formats that changed.

        An unchanged document (same digest) is a no-op returning ().
        The TTL cache is bypassed — refresh is an explicit re-fetch.
        A failing refresh of a previously loaded URL is a counted
        no-op (last-known-good); only a URL that never loaded raises.
        """
        with self._lock:
            old = self._sources.get(url)
            try:
                data = self._fetch_checked(url)
            except ReproError as exc:
                fallback = self._serve_last_known_good(url, exc)
                if fallback is None:
                    raise
                return ()
            digest = hashlib.sha256(data).hexdigest()
            if old is not None and old.digest == digest:
                return ()
            before = {name: self.ir.formats.get(name)
                      for name in (old.format_names if old else ())}
            try:
                self._ingest(url, data, digest=digest)
            except ReproError as exc:
                fallback = self._serve_last_known_good(url, exc)
                if fallback is None:
                    raise
                return ()
            changed: list[str] = []
            now = self._sources[url]
            for name in now.format_names:
                previous = before.get(name)
                if previous is None:
                    self._notify("added", name, self.ir.formats[name])
                    changed.append(name)
                elif previous != self.ir.formats[name]:
                    self._notify("changed", name,
                                 self.ir.formats[name])
                    changed.append(name)
            for name in set(before) - set(now.format_names):
                self.ir.formats.pop(name, None)
                self._notify("removed", name, None)
                changed.append(name)
            return tuple(changed)

    # -- resilience internals ------------------------------------------------

    def _fresh_document(self, url: str) -> _CachedDocument | None:
        cached = self._documents.get(url)
        if cached is None:
            return None
        if self.clock() - cached.fetched_at >= self.cache_ttl:
            return None
        return cached

    def _fetch_checked(self, url: str) -> bytes:
        """Fetch under the retry policy, honouring the negative cache
        and refreshing the document cache on success."""
        expiry = self._negative.get(url)
        if expiry is not None:
            if self.clock() < expiry:
                self.stats.count("negative_hits")
                raise DiscoveryError(
                    f"{url} is negative-cached after a recent fetch "
                    f"failure (retry in <= {self.negative_ttl:g}s)")
            del self._negative[url]
        try:
            with span("fetch", url=url):
                data = fetch(url, retry=self.retry, stats=self.stats)
        except ReproError:
            self._negative[url] = self.clock() + self.negative_ttl
            raise
        self._documents[url] = _CachedDocument(
            data=data, digest=hashlib.sha256(data).hexdigest(),
            fetched_at=self.clock())
        return data

    def _load_or_fallback(self, url: str) -> _Source:
        """Fetch + ingest *url*, falling back to the last-known-good
        source on any failure (when one exists)."""
        try:
            data = self._fetch_checked(url)
            self._ingest(url, data,
                         digest=self._documents[url].digest)
        except ReproError as exc:
            fallback = self._serve_last_known_good(url, exc)
            if fallback is None:
                raise
            return fallback
        return self._sources[url]

    def _serve_last_known_good(self, url: str,
                               exc: ReproError) -> _Source | None:
        old = self._sources.get(url)
        if old is None:
            return None
        self.stats.count("fallbacks")
        logger.warning(
            "discovery of %s failed (%s: %s); serving last-known-good "
            "formats %s", url, type(exc).__name__, exc,
            list(old.format_names))
        return old

    # -- compilation ----------------------------------------------------------

    def _ingest(self, url: str, data: bytes,
                digest: str | None = None) -> tuple[str, ...]:
        digest = digest or hashlib.sha256(data).hexdigest()
        known = self._compiled.get(digest)
        if known is not None and \
                all(name in self.ir.formats for name in known[0]):
            # identical document already compiled and still merged;
            # just (re)point the source at it.
            format_names, enum_names = known
            self._sources[url] = _Source(
                url=url, digest=digest, format_names=format_names,
                enum_names=enum_names)
            return format_names
        schema = self._parse_with_includes(url, data)
        if self.lazy:
            return self._ingest_lazy(url, digest, schema)
        with span("compile", source=url, digest=digest) as sp:
            compiled = compile_schema(schema)
        duration_ns = getattr(sp, "duration_ns", 0)  # 0 when disabled
        if duration_ns:
            DISCOVERY_COMPILE_SECONDS.observe(duration_ns * 1e-9)
        self.stats.count("compiles")
        self.ir.merge(compiled)
        for name in compiled.formats:
            chain = self._history.setdefault(name, [])
            fmt = self.ir.formats[name]
            if not chain or chain[-1] != fmt:
                chain.append(fmt)
        self.loads += 1
        self._sources[url] = _Source(
            url=url,
            digest=digest,
            format_names=tuple(compiled.formats),
            enum_names=tuple(compiled.enums))
        self._compiled[digest] = (tuple(compiled.formats),
                                  tuple(compiled.enums))
        return tuple(compiled.formats)

    def _ingest_lazy(self, url: str, digest: str,
                     schema: Schema) -> tuple[str, ...]:
        """Lazy ingest: compile enums now (cheap, referenced by every
        using type), defer each complexType until its first use.
        Re-ingesting a changed document replaces both the pending
        schema and any already-compiled IR, so stale IR can never be
        served after a digest change."""
        enums_only = compile_schema(schema, names=())
        self.ir.merge(enums_only)
        names = tuple(schema.complex_types)
        fmap = self.ir.formats
        for name in names:
            fmap.defer(name, schema, replace=True)
        self.ir.layouts.clear()  # as IRSet.merge does on the eager path
        self.stats.count("deferred_formats", len(names))
        self.loads += 1
        self._sources[url] = _Source(
            url=url, digest=digest, format_names=names,
            enum_names=tuple(enums_only.enums))
        self._compiled[digest] = (names, tuple(enums_only.enums))
        return names

    def _compile_deferred(self, name: str, schema: Schema) -> FormatIR:
        """Compile one deferred complexType on first use (called under
        the registry lock from :meth:`_LazyFormatMap.__missing__`)."""
        with span("compile", format=name, lazy=True):
            compiled = compile_schema(schema, names=(name,))
        fmt = compiled.formats[name]
        self.stats.count("lazy_compiles")
        chain = self._history.setdefault(name, [])
        if not chain or chain[-1] != fmt:
            chain.append(fmt)
        return fmt

    def _parse_with_includes(self, url: str, data: bytes) -> Schema:
        """Parse *data*, fetching ``xsd:include``/``xsd:import``
        documents (schemaLocation resolved relative to *url*) and
        merging everything into one checked schema."""
        merged = Schema()
        self._ingest_document(url, data, 0, merged, {url})
        merged.check_references()
        return merged

    def _ingest_document(self, url: str, data: bytes, depth: int,
                         merged: Schema, visited: set[str]) -> None:
        """Merge one document into *merged*, its includes first."""
        if depth > 16:
            raise DiscoveryError(
                f"schema include chain too deep at {url}")
        schema, locations = parse_schema_document(data, check=False)
        for location in locations:
            target = resolve_url(url, location)
            if target in visited:
                continue  # diamond/repeat includes are fine
            visited.add(target)
            self._ingest_document(
                target, fetch(target, retry=self.retry, stats=self.stats),
                depth + 1, merged, visited)
        merged.merge(schema)

    # -- queries ------------------------------------------------------------

    def urls(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._sources)

    def lineage(self, format_name: str) -> tuple[FormatIR, ...]:
        """Every IR version of *format_name* this registry has
        compiled, oldest first — the discovery-level mirror of the
        wire-level digest chain.  () if the name was never loaded."""
        with self._lock:
            return tuple(self._history.get(format_name, ()))

    # -- change propagation ----------------------------------------------------

    def subscribe(self, listener: ChangeListener) -> None:
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: ChangeListener) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify(self, event: str, name: str,
                fmt: FormatIR | None) -> None:
        for listener in list(self._listeners):
            listener(event, name, fmt)
