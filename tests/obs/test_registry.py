"""Registry primitives and the exactness of every stats class.

Counting has one mechanism — :class:`repro.obs.registry.Tally`: cells
only the counting thread writes, summed at read time.  The hammer
tests are its correctness bar: one *shared* instance of each of the
five stats classes, written from many threads at once, must read
exact per-instance values and exact process-wide series through
``REGISTRY.snapshot()`` — and those series must never run backwards
when an owner is collected or a server is closed mid-scrape.
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.http.retry import DiscoveryStats
from repro.hydrology.components import ComponentStats
from repro.obs import registry as registry_module
from repro.obs.registry import (
    REGISTRY, MetricsRegistry, Tally, log_buckets,
)
from repro.pbio.context import ContextStats, IOContext
from repro.pbio.encode import BULK_STATS, encoder_for_format
from repro.pbio.format_server import FormatServer
from repro.transport.broadcast import BroadcastPublisher, BroadcastStats
from repro.transport.messages import (
    FrameType, encode_lineage_req, frame_bytes,
)

THREADS = 8
PER_THREAD = 5_000


def hammer(fn) -> None:
    """Run *fn(thread index)* from THREADS threads, PER_THREAD times
    each, switching threads far more often than the default 5 ms so a
    lost update would show."""
    together = threading.Barrier(THREADS)

    def work(index):
        together.wait(timeout=60)
        for _ in range(PER_THREAD):
            fn(index)
    workers = [threading.Thread(target=work, args=(i,))
               for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)


def series(name: str, **labels: str) -> int:
    """One process-wide value, read the way a scrape reads it."""
    for entry in REGISTRY.snapshot()[name]["series"]:
        if entry["labels"] == labels:
            return entry["value"]
    return 0


class TestPrimitives:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", labels=("kind",))
        c.labels(kind="a").inc()
        c.labels("a").inc(2)
        c.labels(kind="b").inc()
        snap = reg.snapshot()["t_total"]
        values = {s["labels"]["kind"]: s["value"]
                  for s in snap["series"]}
        assert values == {"a": 3, "b": 1}

    def test_unlabeled_delegation(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5
        assert reg.snapshot()["t_gauge"]["series"] == [
            {"labels": {}, "value": 5}]

    def test_labeled_metric_rejects_bare_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("kind",))
        with pytest.raises(ValueError, match="use .labels"):
            c.inc()

    def test_label_arity_and_names_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("a", "b"))
        with pytest.raises(ValueError, match="expected 2"):
            c.labels("x")
        with pytest.raises(ValueError, match="missing label"):
            c.labels(a="x")
        with pytest.raises(ValueError, match="unknown labels"):
            c.labels(a="x", b="y", c="z")

    def test_redeclare_same_is_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("t_total", labels=("k",))
        b = reg.counter("t_total", labels=("k",))
        assert a is b

    def test_redeclare_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("t_total")
        with pytest.raises(ValueError, match="already declared"):
            reg.gauge("t_total")
        with pytest.raises(ValueError, match="already declared"):
            reg.counter("t_total", labels=("k",))

    def test_histogram_buckets_and_observe(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 5.0):
            h.observe(value)
        series = reg.snapshot()["t_seconds"]["series"][0]
        assert series["bounds"] == [0.001, 0.01, 0.1]
        assert series["counts"] == [1, 2, 0, 1]  # last is +Inf
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(5.0105)

    def test_log_buckets(self):
        buckets = log_buckets(1.0, 2.0, 4)
        assert buckets == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 4)

    def test_gauge_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_high")
        g._require_default().max(10)
        g._require_default().max(3)
        assert g.value == 10

    def test_reset_zeroes_but_keeps_children(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("k",))
        child = c.labels(k="x")
        child.inc(5)
        reg.reset()
        assert child.value == 0
        child.inc()
        assert c.labels(k="x").value == 1


class TestCollectors:
    def test_collector_samples_merge_by_summing(self):
        reg = MetricsRegistry()
        sample = {"name": "t_total", "type": "counter", "help": "",
                  "labels": {"k": "x"}, "value": 2}
        reg.register_collector(lambda: [dict(sample)])
        reg.register_collector(lambda: [dict(sample)])
        snap = reg.snapshot()
        assert snap["t_total"]["series"] == [
            {"labels": {"k": "x"}, "value": 4}]

    def test_collector_sums_into_declared_metric(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set(1)
        reg.register_collector(lambda: [
            {"name": "t_gauge", "type": "gauge", "help": "",
             "labels": {}, "value": 2}])
        assert reg.snapshot()["t_gauge"]["series"][0]["value"] == 3

    def test_bound_method_collector_held_weakly(self):
        class Source:
            def collect(self):
                return [{"name": "t_gauge", "type": "gauge",
                         "help": "", "labels": {}, "value": 1}]

        reg = MetricsRegistry()
        source = Source()
        reg.register_collector(source.collect)
        assert reg.snapshot()["t_gauge"]["series"][0]["value"] == 1
        del source
        assert "t_gauge" not in reg.snapshot()
        assert not reg._collectors  # pruned


class Cells(Tally):
    _COUNTERS = ("n",)


class TestTally:
    def test_exact_under_hammer(self):
        cells = Cells()
        hammer(lambda i: cells.count("n"))
        assert cells.n == THREADS * PER_THREAD
        assert len(cells._rows) == THREADS  # one row per writer

    def test_high_water_reads_the_max_of_distinct_values(self):
        stats = BroadcastStats()
        values = iter(range(1, THREADS * PER_THREAD + 1))
        lock = threading.Lock()

        def mark(index):
            with lock:
                value = next(values)
            stats.mark("subscriber_high_water", value)
        hammer(mark)
        assert stats.subscriber_high_water == THREADS * PER_THREAD
        assert series("repro_broadcast_subscriber_high_water") == \
            THREADS * PER_THREAD

    def test_declared_cells_are_closed_undeclared_are_open(self):
        with pytest.raises(AttributeError, match="typo"):
            Cells().count("typo")
        with pytest.raises(AttributeError):
            Cells().typo
        opened = ComponentStats("c")
        opened.count(("F", "in"), 2)
        assert opened.received == {"F": 2} and opened.sent == {}

    def test_short_lived_owners_stay_exact_and_leave_nothing_behind(
            self):
        ctx = IOContext(format_server=FormatServer())
        fmt = ctx.register_layout("T", [("a", "integer", 4)])
        gc.collect()
        Cells()  # creation sweeps what the collection above retired
        before = series("repro_codec_events_total",
                        event="records_encoded")
        owners = len(registry_module._OWNERS)
        retired = len(registry_module._RETIRED)
        for _ in range(1000):
            IOContext(format_server=ctx.format_server).encode(
                fmt, {"a": 1})
        Cells()
        assert len(registry_module._OWNERS) <= owners + 1
        # one entry per series, not per owner that ever lived
        assert len(registry_module._RETIRED) <= retired + len(
            ContextStats._COUNTERS)
        assert series("repro_codec_events_total",
                      event="records_encoded") - before == 1000


class TestSeriesNeverRunBackwards:
    def test_series_never_decrease_across_owner_collection(self):
        stats = ContextStats()
        stats.count_encoded(7, 70)
        first = series("repro_codec_events_total",
                       event="records_encoded")
        del stats
        gc.collect()
        assert registry_module._DEAD  # collected, not yet folded
        second = series("repro_codec_events_total",
                        event="records_encoded")
        assert second >= first >= 7
        assert series("repro_codec_events_total",
                      event="records_encoded") >= second

    def test_series_never_decrease_across_a_close_mid_snapshot(self):
        """A server closed between snapshot()'s two reads (declared
        series, then collectors) used to be in neither: retired flag
        set before the fold, fold after the declared read."""
        closer = threading.Thread(target=lambda: pub.close())
        armed = threading.Event()

        def close_mid_snapshot():
            if armed.is_set() and not closer.ident:
                closer.start()
                # under the fold lock the close cannot retire the
                # server until this snapshot is done; without it, it
                # did, right here
                closer.join(timeout=0.5)
            return []
        # registered first, so it runs before the server's collector
        REGISTRY.register_collector(close_mid_snapshot)
        ctx = IOContext(format_server=FormatServer())
        ctx.register_layout("T", [("a", "integer", 4)])
        pub = BroadcastPublisher(ctx).start()
        try:
            with socket.create_connection((pub.host, pub.port),
                                          timeout=5):
                pub.wait_for_subscribers(1, timeout=5)
                for i in range(10):
                    pub.publish("T", {"a": i})
                pub.flush(timeout=5)
            before = series("repro_transport_frames_total",
                            direction="out")
            assert before >= 10
            armed.set()
            during = series("repro_transport_frames_total",
                            direction="out")
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert series("repro_transport_frames_total",
                          direction="out") >= during >= before
        finally:
            REGISTRY._collectors.remove(close_mid_snapshot)
            pub.close()


class TestStatsClassesExactUnderThreads:
    """One shared instance of each stats class, hammered from every
    thread at once: per-instance values and the process-wide series
    are both exact."""

    def test_discovery_stats(self):
        stats = DiscoveryStats()
        hammer(lambda i: stats.count("fetch_attempts"))
        assert stats.fetch_attempts == THREADS * PER_THREAD
        assert stats.snapshot()["fetch_attempts"] == \
            THREADS * PER_THREAD

    def test_discovery_stats_mirrors_to_registry(self):
        before = series("repro_discovery_events_total",
                        event="retries")
        stats = DiscoveryStats()
        hammer(lambda i: stats.count("retries"))
        assert series("repro_discovery_events_total",
                      event="retries") - before == THREADS * PER_THREAD

    def test_context_stats(self):
        stats = ContextStats()
        before = {event: series("repro_codec_events_total",
                                event=event)
                  for event in ("records_encoded", "bytes_decoded")}
        hammer(lambda i: stats.count_encoded(1, 10))
        hammer(lambda i: stats.count_decoded(2, 20))
        expected = THREADS * PER_THREAD
        assert stats.records_encoded == expected
        assert stats.bytes_encoded == expected * 10
        assert stats.records_decoded == expected * 2
        assert stats.bytes_decoded == expected * 20
        assert series("repro_codec_events_total",
                      event="records_encoded") \
            - before["records_encoded"] == expected
        assert series("repro_codec_events_total",
                      event="bytes_decoded") \
            - before["bytes_decoded"] == expected * 20

    def test_broadcast_stats(self):
        stats = BroadcastStats()
        before = series("repro_broadcast_events_total",
                        event="frames_enqueued")
        hammer(lambda i: stats.count("frames_enqueued"))
        expected = THREADS * PER_THREAD
        assert stats.frames_enqueued == expected
        assert series("repro_broadcast_events_total",
                      event="frames_enqueued") - before == expected

    def test_broadcast_high_water_is_max(self):
        stats = BroadcastStats()
        stats.mark("queue_high_water", 100)
        stats.mark("queue_high_water", 40)
        assert stats.queue_high_water == 100
        assert series("repro_broadcast_queue_high_water") >= 100
        assert stats.as_dict()["queue_high_water"] == 100

    def test_component_stats(self):
        stats = ComponentStats("hammered")
        hammer(lambda i: stats.count((f"F{i % 2}", "out")))
        half = THREADS * PER_THREAD // 2
        assert stats.sent == {"F0": half, "F1": half}
        assert stats.received == {}
        assert series("repro_component_messages_total",
                      component="hammered", format="F1",
                      direction="out") == half

    def test_bulk_stats(self):
        """The counters bench_e2e and check_bulk_gate read as exact:
        many threads, one cached encoder, one typed array each."""
        ctx = IOContext(format_server=FormatServer())
        fmt = ctx.register_layout("Bulk", [("n", "integer", 4),
                                           ("xs", "float[n]", 8)])
        encoder = encoder_for_format(fmt)
        record = {"n": 16, "xs": np.arange(16, dtype="<f8")}
        before = BULK_STATS.snapshot()
        hammer(lambda i: encoder.encode_wire_parts(record))
        moved = {name: value - before[name]
                 for name, value in BULK_STATS.snapshot().items()}
        expected = THREADS * PER_THREAD
        assert moved["zero_copy_views"] == expected
        assert moved["copied_arrays"] == expected
        assert moved["copied_bytes"] == expected * 16 * 8
        assert moved["fallback_arrays"] == 0

    def test_publisher_counted_from_two_threads_at_once(self):
        """The publishing thread counts fan-outs while the loop thread
        counts handshakes, into the same BroadcastStats."""
        rounds = 2000
        ctx = IOContext(format_server=FormatServer())
        fmt = ctx.register_layout("T", [("a", "integer", 4)])
        request = frame_bytes(FrameType.LIN_REQ, encode_lineage_req(
            "T", [fmt.format_id]))
        pub = BroadcastPublisher(ctx).start()
        with socket.create_connection((pub.host, pub.port),
                                      timeout=30) as sock:
            def drain():
                while sock.recv(1 << 16):
                    pass
            reader = threading.Thread(target=drain)
            asker = threading.Thread(
                target=lambda: [sock.sendall(request)
                                for _ in range(rounds)])
            try:
                pub.wait_for_subscribers(1, timeout=5)
                reader.start()
                asker.start()
                for i in range(rounds):
                    assert pub.publish("T", {"a": i}) == 1
                asker.join(timeout=30)
                assert not asker.is_alive()
                deadline = time.monotonic() + 30
                while pub.stats.lineage_negotiations < rounds and \
                        time.monotonic() < deadline:
                    time.sleep(0.005)
                stats = pub.stats.as_dict()
            finally:
                pub.close()  # BYE, then EOF, ends the drain
            reader.join(timeout=10)
            assert not reader.is_alive()
        assert stats["lineage_negotiations"] == rounds
        assert stats["messages_broadcast"] == rounds
        assert stats["frames_enqueued"] == rounds
        assert stats["formats_announced"] == 1
        assert len(pub.stats._rows) == 2
