"""Format registry: URL-keyed metadata with change propagation.

One effect of XMIT's indirect discovery (section 3): "changes to the
message formats used by distributed programs can be centralized, and
XMIT ensures that they are propagated to all program components using
these formats."  The registry remembers which URL produced which
formats.  ``load_url`` past its TTL and :meth:`refresh` take one path:
re-fetch the URL, ingest a new digest, diff the URL's formats against
what it served before, and notify subscribers of every added, changed
or removed format.

The discovery path is resilient (the paper's amortization story
assumes discovery is rare and reliable; a real network makes it
neither):

* fetches go through :func:`repro.http.urls.fetch` under a
  :class:`~repro.http.retry.RetryPolicy` (bounded exponential backoff,
  deterministic jitter);
* a re-load inside the TTL costs no fetch, and a digest compiled
  before costs no recompile: it brings back its own compile;
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
    digest: str
    format_names: tuple[str, ...]


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
    _sources: dict[str, _Source] = field(default_factory=dict)
    _listeners: list[ChangeListener] = field(default_factory=list)
    #: url -> clock() when the document it serves was last fetched
    _fetched: dict[str, float] = field(default_factory=dict)
    _negative: dict[str, float] = field(default_factory=dict)
    #: digest -> what its document compiled to: the IRSet (eager), or
    #: the enums-only IRSet and the Schema its complexTypes are
    #: deferred against (lazy)
    _compiled: dict[str, tuple[IRSet, Schema | None]] = \
        field(default_factory=dict)
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
        the cache TTL is served without a fetch; past the TTL it takes
        :meth:`refresh`'s path, listeners included, and differs only
        in returning every name rather than the changed ones.
        """
        with self._lock:
            fetched = self._fetched.get(url)
            if fetched is not None and \
                    self.clock() - fetched < self.cache_ttl:
                self.stats.count("cache_hits")
            else:
                self.stats.count("cache_misses")
                self._update(url)
            return self._sources[url].format_names

    def load_text(self, text: str, *, source: str = "<inline>") \
            -> tuple[str, ...]:
        """Compile schema *text* not associated with a fetchable URL."""
        with self._lock:
            self._ingest(source, text.encode("utf-8"))
            return self._sources[source].format_names

    def refresh(self, url: str) -> tuple[str, ...]:
        """Re-fetch *url*, bypassing the TTL; returns the names of the
        formats that changed.  An unchanged document, a first load
        that redefines no served format and a failure after an earlier
        success (last-known-good) return (); only a URL that never
        loaded raises."""
        with self._lock:
            return self._update(url)

    # -- the one change path ---------------------------------------------------

    def _update(self, url: str) -> tuple[str, ...]:
        """Fetch *url* and serve what it says: a new digest is
        ingested, the formats it replaced — the URL's own, and any
        compiled name another source served — are diffed against what
        was served before, and each change is notified.  Returns the
        changed names.  Once the URL has loaded, a failed fetch or
        compile is counted and logged and its last-known-good formats
        stay served; only a URL that never loaded raises."""
        old = self._sources.get(url)
        before = None  # what the new document replaced; None: no diff
        try:
            data = self._fetch(url)
            digest = hashlib.sha256(data).hexdigest()
            if old is None or old.digest != digest:
                before = {} if old is None else \
                    {name: self.ir.formats.get(name)
                     for name in old.format_names}
                before.update(self._ingest(url, data, digest))
        except ReproError as exc:
            if old is None:
                raise
            self.stats.count("fallbacks")
            logger.warning(
                "discovery of %s failed (%s: %s); serving last-known-"
                "good formats %s", url, type(exc).__name__, exc,
                list(old.format_names))
            return ()
        self._fetched[url] = self.clock()
        if before is None or (old is None and not before):
            return ()  # unchanged, or a first load replacing nothing
        now = self._sources[url].format_names
        # a first load reports only the names it redefined
        events = [("added" if before.get(name) is None else "changed",
                   name) for name in (now if old else before)
                  if before.get(name) != self.ir.formats[name]]
        for name in before:
            if name not in now:
                self.ir.formats.pop(name, None)
                events.append(("removed", name))
        for event, name in events:
            fmt = self.ir.formats.get(name)
            for listener in list(self._listeners):
                listener(event, name, fmt)
        return tuple(name for _, name in events)

    def _fetch(self, url: str) -> bytes:
        """Fetch under the retry policy, honouring the negative cache."""
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
                return fetch(url, retry=self.retry, stats=self.stats)
        except ReproError:
            self._negative[url] = self.clock() + self.negative_ttl
            raise

    # -- compilation ----------------------------------------------------------

    def _ingest(self, url: str, data: bytes,
                digest: str | None = None) -> dict[str, FormatIR]:
        """Serve the formats *data* defines; returns the compiled IR
        they replaced, by name.  A digest compiled before re-merges
        that compile: the same document is compiled once, and a revert
        serves its own IR, not the newer one."""
        digest = digest or hashlib.sha256(data).hexdigest()
        compiled = self._compiled.get(digest)
        if compiled is None:
            compiled = self._compiled[digest] = \
                self._compile(url, data, digest)
        irset, schema = compiled
        names = tuple(irset.formats if schema is None
                      else schema.complex_types)
        # dict.get: a name still pending compile was never bound
        replaced = {name: ir for name in names
                    if (ir := dict.get(self.ir.formats, name)) is not None}
        self.ir.merge(irset)
        if schema is not None:
            # replaces pending schemas and compiled IR alike, so a
            # changed document never serves stale deferred IR
            for name in names:
                self.ir.formats.defer(name, schema, replace=True)
            self.stats.count("deferred_formats", len(names))
        self._sources[url] = _Source(digest=digest, format_names=names)
        return replaced

    def _compile(self, url: str, data: bytes,
                 digest: str) -> tuple[IRSet, Schema | None]:
        schema = self._parse_with_includes(url, data)
        if self.lazy:
            # enums now (cheap, referenced by every using type), each
            # complexType on its first use
            return compile_schema(schema, names=()), schema
        with span("compile", source=url, digest=digest) as sp:
            compiled = compile_schema(schema)
        duration_ns = getattr(sp, "duration_ns", 0)  # 0 when disabled
        if duration_ns:
            DISCOVERY_COMPILE_SECONDS.observe(duration_ns * 1e-9)
        self.stats.count("compiles")
        return compiled, None

    def _compile_deferred(self, name: str, schema: Schema) -> FormatIR:
        """Compile one deferred complexType on first use (called under
        the registry lock from :meth:`_LazyFormatMap.__missing__`)."""
        with span("compile", format=name, lazy=True):
            compiled = compile_schema(schema, names=(name,))
        self.stats.count("lazy_compiles")
        return compiled.formats[name]

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

    # -- change propagation ----------------------------------------------------

    def subscribe(self, listener: ChangeListener) -> None:
        """Call *listener* for each change a fetch makes, in
        subscription order, under the registry lock."""
        with self._lock:
            self._listeners.append(listener)
