"""Lazy schema compilation in the FormatRegistry.

With ``lazy=True`` a loaded document is parsed and reference-checked,
its enums compiled, and every complexType *deferred*: IR is produced
on first lookup only.  These tests pin the contract — membership and
iteration see deferred names, compilation happens exactly once and
only for types actually bound (nested dependencies included), bulk
consumers materialize, and refresh/TTL/negative-cache semantics are
unchanged from the eager registry (a re-ingested document must never
serve stale deferred IR)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.registry import FormatRegistry
from repro.core.schema_compiler import compile_schema
from repro.core.toolkit import XMIT
from repro.errors import DiscoveryError, SchemaTypeError
from repro.http.urls import publish_document, unpublish_document
from repro.schema.parser import parse_schema
from repro.xmlcore.parser import parse

_SEQ = itertools.count()

CATALOG = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Inner">
    <xsd:element name="x" type="xsd:int" />
  </xsd:complexType>
  <xsd:complexType name="Outer">
    <xsd:element name="inner" type="Inner" />
    <xsd:element name="n" type="xsd:int" />
  </xsd:complexType>
  <xsd:complexType name="Standalone">
    <xsd:element name="m" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>
"""

CATALOG_V2 = CATALOG.replace(
    '<xsd:element name="m" type="xsd:double" />',
    '<xsd:element name="m" type="xsd:double" />\n'
    '    <xsd:element name="extra" type="xsd:int" />')


#: one document pair for the diff test: Bound (compiled before the
#: refresh) and Loose change, Nests (which nests Bound) does not, Gone
#: goes and New comes
DIFF_V1 = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Bound">
    <xsd:element name="x" type="xsd:int" />
  </xsd:complexType>
  <xsd:complexType name="Loose">
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
  <xsd:complexType name="Nests">
    <xsd:element name="bound" type="Bound" />
  </xsd:complexType>
  <xsd:complexType name="Gone">
    <xsd:element name="g" type="xsd:int" />
  </xsd:complexType>
</xsd:schema>
"""
DIFF_V2 = DIFF_V1.replace(
    '<xsd:element name="x" type="xsd:int" />',
    '<xsd:element name="x" type="xsd:long" />').replace(
    '<xsd:element name="y" type="xsd:double" />',
    '<xsd:element name="y" type="xsd:float" />').replace(
    'name="Gone">\n    <xsd:element name="g"',
    'name="New">\n    <xsd:element name="g"')


def _publish(text: str) -> str:
    return publish_document(f"lazy/cat{next(_SEQ)}.xsd", text)


class TestDeferral:
    def test_load_defers_every_complex_type(self):
        registry = FormatRegistry(lazy=True)
        names = registry.load_text(CATALOG)
        assert set(names) == {"Inner", "Outer", "Standalone"}
        assert registry.stats.deferred_formats == 3
        assert registry.stats.lazy_compiles == 0
        assert registry.stats.compiles == 0  # no document compile
        fmap = registry.ir.formats
        assert set(fmap.pending_names()) == set(names)

    def test_membership_and_iteration_see_pending(self):
        registry = FormatRegistry(lazy=True)
        registry.load_text(CATALOG)
        fmap = registry.ir.formats
        assert "Outer" in fmap
        assert set(fmap) == {"Inner", "Outer", "Standalone"}
        assert len(fmap) == 3
        assert set(fmap.keys()) == {"Inner", "Outer", "Standalone"}
        # none of the above compiled anything
        assert registry.stats.lazy_compiles == 0

    def test_first_lookup_compiles_exactly_one(self):
        registry = FormatRegistry(lazy=True)
        registry.load_text(CATALOG)
        fmt = registry.ir.formats["Standalone"]
        assert fmt.name == "Standalone"
        assert registry.stats.lazy_compiles == 1
        assert registry.ir.formats.pending_names() == \
            ("Inner", "Outer")
        # second lookup is a plain dict hit
        assert registry.ir.formats["Standalone"] is fmt
        assert registry.stats.lazy_compiles == 1

    def test_lazy_ir_equals_eager_ir(self):
        lazy = FormatRegistry(lazy=True)
        lazy.load_text(CATALOG)
        eager = compile_schema(parse_schema(parse(CATALOG)))
        for name in ("Inner", "Outer", "Standalone"):
            assert lazy.ir.formats[name] == eager.formats[name]

    def test_binding_compiles_nested_dependency(self):
        xmit = XMIT(lazy=True)
        xmit.load_url(_publish(CATALOG))
        assert set(xmit.format_names) == \
            {"Inner", "Outer", "Standalone"}
        assert xmit.discovery_stats.lazy_compiles == 0
        xmit.bind("Outer", target="pbio")
        # Outer plus its nested Inner compiled; Standalone untouched
        assert xmit.discovery_stats.lazy_compiles == 2
        assert xmit.registry.ir.formats.pending_names() == \
            ("Standalone",)

    def test_materialize_via_export(self):
        xmit = XMIT(lazy=True)
        xmit.load_url(_publish(CATALOG))
        text = xmit.export_schema()
        for name in ("Inner", "Outer", "Standalone"):
            assert name in text
        assert xmit.registry.ir.formats.pending_names() == ()
        assert xmit.discovery_stats.lazy_compiles == 3

    def test_unknown_name_still_raises(self):
        registry = FormatRegistry(lazy=True)
        registry.load_text(CATALOG)
        with pytest.raises(KeyError):
            registry.ir.formats["Nope"]
        assert registry.ir.formats.get("Nope") is None

    def test_subset_compile_rejects_unknown_name(self):
        schema = parse_schema(parse(CATALOG))
        with pytest.raises(SchemaTypeError):
            compile_schema(schema, names=("Nope",))


class TestStaleness:
    """Satellite audit: deferred entries and the registry's document
    TTL / negative cache must not serve stale data."""

    def test_refresh_replaces_pending_schema(self):
        """A changed document re-defers against the *new* schema even
        for names never compiled — the old parse can't leak through a
        later first-lookup."""
        url = _publish(CATALOG)
        registry = FormatRegistry(lazy=True)
        registry.load_url(url)
        publish_document(url[len("mem:"):], CATALOG_V2)
        changed = registry.refresh(url)
        assert "Standalone" in changed
        fields = [f.name for f in
                  registry.ir.formats["Standalone"].fields]
        assert fields == ["m", "extra"]

    def test_refresh_invalidates_compiled_ir(self):
        """Already-compiled IR of a changed format is dropped and
        recompiled from the new document (defer(replace=True))."""
        url = _publish(CATALOG)
        registry = FormatRegistry(lazy=True)
        registry.load_url(url)
        old = registry.ir.formats["Standalone"]  # compile v1
        publish_document(url[len("mem:"):], CATALOG_V2)
        changed = registry.refresh(url)
        assert "Standalone" in changed
        new = registry.ir.formats["Standalone"]
        assert new != old
        assert [f.name for f in new.fields] == ["m", "extra"]

    def test_document_ttl_serves_cached_copy(self):
        clock = [0.0]
        url = _publish(CATALOG)
        registry = FormatRegistry(lazy=True, cache_ttl=300.0,
                                  clock=lambda: clock[0])
        registry.load_url(url)
        misses = registry.stats.cache_misses
        registry.load_url(url)  # inside the TTL: no fetch
        assert registry.stats.cache_hits == 1
        assert registry.stats.cache_misses == misses
        clock[0] = 301.0
        registry.load_url(url)  # TTL expired: counted as a miss
        assert registry.stats.cache_misses == misses + 1

    def test_negative_cache_fails_fast_in_lazy_mode(self):
        clock = [0.0]
        registry = FormatRegistry(lazy=True, negative_ttl=5.0,
                                  clock=lambda: clock[0])
        url = "mem:lazy/absent.xsd"
        unpublish_document("lazy/absent.xsd")
        with pytest.raises(DiscoveryError):
            registry.load_url(url)
        with pytest.raises(DiscoveryError):
            registry.load_url(url)
        assert registry.stats.negative_hits == 1
        clock[0] = 6.0  # negative entry expired: real fetch again
        with pytest.raises(DiscoveryError):
            registry.load_url(url)
        assert registry.stats.negative_hits == 1

    def test_same_digest_reload_does_not_redefer(self):
        """Re-loading an unchanged document is served from the
        compiled-digest table, not re-deferred."""
        url = _publish(CATALOG)
        registry = FormatRegistry(lazy=True, cache_ttl=0.0)
        registry.load_url(url)
        registry.ir.formats["Standalone"]
        deferred = registry.stats.deferred_formats
        registry.load_url(url)  # TTL 0 forces refetch; digest equal
        assert registry.stats.deferred_formats == deferred
        # the compiled entry survived the reload
        assert registry.stats.lazy_compiles == 1
        assert set(registry.ir.formats.pending_names()) == \
            {"Inner", "Outer"}


def test_refresh_diffs_deferred_types_without_compiling():
    """One document pair through both modes: a lazy refresh reports
    the names an eager one does, compiles only what was compiled
    before it, and drops a removed type's deferred entry."""
    changed = {}
    for lazy in (False, True):
        url = _publish(DIFF_V1)
        registry = FormatRegistry(lazy=lazy)
        registry.load_url(url)
        registry.ir.formats["Bound"]
        publish_document(url[len("mem:"):], DIFF_V2)
        changed[lazy] = registry.refresh(url)
        assert "Gone" not in registry.ir.formats
    assert changed[True] == changed[False] == \
        ("Bound", "Loose", "New", "Gone")
    fmap = registry.ir.formats
    assert set(fmap) - set(fmap.pending_names()) == {"Bound"}
    # Bound before the refresh, and its new version to diff against
    assert registry.stats.lazy_compiles == 2
