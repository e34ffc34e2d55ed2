"""Concurrent discovery: one compile per digest, serialized listeners."""

import threading

import pytest

from repro.core.registry import FormatRegistry
from repro.core.toolkit import XMIT
from repro.http.retry import RetryPolicy
from repro.http.urls import publish_document

from tests.conftest import SIMPLE_DATA_XSD

THREADS = 12
ROUNDS = 5


def _fast_policy():
    return RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.01)


def _hammer(target, n_threads=THREADS):
    """Run *target(i)* on n threads; re-raise the first failure."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(i):
        try:
            barrier.wait(timeout=10)
            target(i)
        except Exception as exc:  # noqa: BLE001 - collected for re-raise
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "deadlocked"
    if errors:
        raise errors[0]


class TestOneCompilePerDigest:
    def test_concurrent_load_url_compiles_once(self):
        url = publish_document("conc-load.xsd", SIMPLE_DATA_XSD)
        registry = FormatRegistry(retry=_fast_policy())
        results = [None] * THREADS

        def load(i):
            for _ in range(ROUNDS):
                results[i] = registry.load_url(url)

        _hammer(load)
        assert all(r == ("SimpleData",) for r in results)
        assert registry.stats.compiles == 1
        # only the winning thread fetched; everyone else hit the cache
        assert registry.stats.fetch_attempts == 1
        assert registry.stats.cache_hits == THREADS * ROUNDS - 1

    def test_mixed_load_and_refresh_same_digest(self):
        url = publish_document("conc-mixed.xsd", SIMPLE_DATA_XSD)
        registry = FormatRegistry(retry=_fast_policy())
        registry.load_url(url)

        def churn(i):
            for _ in range(ROUNDS):
                if i % 2 == 0:
                    assert registry.load_url(url) == ("SimpleData",)
                else:
                    assert registry.refresh(url) == ()

        _hammer(churn)
        # refresh re-fetches by design, but an unchanged digest never
        # triggers a second compile
        assert registry.stats.compiles == 1
        assert "SimpleData" in registry.ir.formats

    def test_two_urls_same_content_share_the_compile(self):
        url_a = publish_document("conc-dup-a.xsd", SIMPLE_DATA_XSD)
        url_b = publish_document("conc-dup-b.xsd", SIMPLE_DATA_XSD)
        registry = FormatRegistry(retry=_fast_policy())

        def load(i):
            registry.load_url(url_a if i % 2 == 0 else url_b)

        _hammer(load)
        assert registry.stats.compiles == 1
        assert registry.load_url(url_a) == registry.load_url(url_b) == \
            ("SimpleData",)
        assert registry.stats.fetch_attempts == 2


class TestListenerIntegrity:
    def test_no_torn_notifications_under_concurrent_refresh(self):
        """Listener callbacks never interleave: the registry holds its
        lock across a refresh's whole notification batch."""
        name = "conc-notify.xsd"
        url = publish_document(name, SIMPLE_DATA_XSD)
        xmit = XMIT(retry=_fast_policy(), cache_ttl=0.0)
        xmit.load_url(url)

        v2 = SIMPLE_DATA_XSD.replace(
            "</xsd:complexType>",
            '<xsd:element name="units" type="xsd:string" />'
            "</xsd:complexType>")
        docs = [SIMPLE_DATA_XSD, v2]

        in_listener = threading.Lock()
        violations = []
        events = []

        def listener(event, fmt_name, fmt):
            if not in_listener.acquire(blocking=False):
                violations.append((event, fmt_name))
                return
            try:
                events.append((event, fmt_name, fmt))
            finally:
                in_listener.release()

        xmit.subscribe(listener)

        def churn(i):
            for round_no in range(ROUNDS):
                publish_document(name, docs[(i + round_no) % 2])
                xmit.refresh(url)

        _hammer(churn, n_threads=8)
        assert not violations
        # every event is a coherent (event, name, payload) triple
        for event, fmt_name, fmt in events:
            assert event in ("added", "changed", "removed")
            assert fmt_name == "SimpleData"
            assert (fmt is None) == (event == "removed")
        # and what is served afterwards is the last published document
        publish_document(name, SIMPLE_DATA_XSD)
        xmit.refresh(url)
        fresh = XMIT()
        fresh.load_text(SIMPLE_DATA_XSD)
        assert xmit.ir.format("SimpleData") == \
            fresh.ir.format("SimpleData")

    def test_subscribe_during_notification_storm_is_safe(self):
        name = "conc-subscribe.xsd"
        url = publish_document(name, SIMPLE_DATA_XSD)
        registry = FormatRegistry(retry=_fast_policy(), cache_ttl=0.0)
        registry.load_url(url)
        v2 = SIMPLE_DATA_XSD.replace("SimpleData", "Other")
        docs = [SIMPLE_DATA_XSD, v2]

        def churn(i):
            if i % 3 == 0:
                for _ in range(ROUNDS):
                    registry.subscribe(lambda *a: None)
            else:
                for round_no in range(ROUNDS):
                    publish_document(name, docs[(i + round_no) % 2])
                    registry.refresh(url)

        _hammer(churn, n_threads=9)


class TestConcurrentFailure:
    def test_fallback_under_concurrency_keeps_formats(self):
        from repro.testing import FAIL, FaultInjectingResolver

        resolver = FaultInjectingResolver("conc-fault").install()
        url = resolver.publish("doc.xsd", SIMPLE_DATA_XSD)
        registry = FormatRegistry(retry=_fast_policy(),
                                  cache_ttl=0.0, negative_ttl=0.0)
        registry.load_url(url)
        resolver.set_faults("doc.xsd", [FAIL], repeat_last=True)

        def churn(i):
            for _ in range(ROUNDS):
                assert registry.load_url(url) == ("SimpleData",)
                assert registry.refresh(url) == ()

        _hammer(churn, n_threads=6)
        assert "SimpleData" in registry.ir.formats
        assert registry.stats.fallbacks == 6 * ROUNDS * 2
