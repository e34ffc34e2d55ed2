"""The codec plan caches: the disk tier and the in-memory front-end.

Disk tier — one entry per format, metadata only: store → restart →
``warm_start`` restores the format and its codecs are compiled like any
other (property-tested byte-identical on both byte orders); every
rejection path (oversized, truncated, tampered, stale schema, wrong
metadata) is counted, never executed, and never stops the healthy
entries beside it; cross-process races on one entry; the invalidation
hooks (``clear_encoder_cache``/``clear_decoder_cache`` purge the tier).

Memory tier — one :class:`PlanFrontEnd` behind ``encoder_for_format``,
``decoder_for_format`` and ``down_converter``: true-LRU eviction (a
just-hit plan survives an eviction wave) and single-flight compilation
under thread contention, for all three.
"""

from __future__ import annotations

import base64
import json
import marshal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.pbio.context import IOContext
from repro.pbio.decode import (
    RecordDecoder, clear_decoder_cache, decoder_for_format,
)
from repro.pbio.encode import (
    RecordEncoder, clear_encoder_cache, encoder_for_format,
)
from repro.pbio.evolution import CONVERTERS, down_converter
from repro.pbio.format import IOFormat
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import field_list_for
from repro.pbio.machine import SPARC_V9, X86_64
from repro.pbio.plancache import (
    CACHE_SCHEMA, MAX_CACHED_PLANS, MAX_ENTRY_BYTES, PlanCache, PlanLRU,
    _payload_digest, active_plan_cache, configure_plan_cache,
    reset_plan_cache_configuration, single_flight, warm_start,
)

from tests.strategies import format_case

ARCHS = (X86_64, SPARC_V9)

SPECS = [
    ("timestep", "integer"),
    ("size", "integer"),
    ("data", "float[size]"),
]
RECORD = {"timestep": 7, "size": 4, "data": [0.5, 1.5, 2.5, 3.25]}


def metric_value(name: str, **labels) -> float:
    """Sum of all series of *name* whose labels match."""
    metric = obs.snapshot().get(name)
    if metric is None:
        return 0
    return sum(s["value"] for s in metric["series"]
               if all(s["labels"].get(k) == v
                      for k, v in labels.items()))


def disk(outcome: str) -> float:
    return metric_value("repro_plan_cache_total", tier="disk",
                        outcome=outcome)


def fresh_format(name: str = "PlanCached", arch=X86_64,
                 specs=SPECS) -> IOFormat:
    ctx = IOContext(architecture=arch, format_server=FormatServer())
    return ctx.register_layout(name, specs)


def forget_memory() -> None:
    """What a restart loses: every in-memory plan; the disk stays."""
    clear_encoder_cache(persistent=False)
    clear_decoder_cache(persistent=False)
    CONVERTERS.clear()


def rewrite(entry: Path, **changes) -> None:
    """Change fields of an entry and re-sign it (a well-formed entry
    with different content, as opposed to a damaged one)."""
    payload = json.loads(entry.read_text())
    payload.update(changes)
    del payload["entry_sha256"]
    payload["entry_sha256"] = _payload_digest(payload)
    entry.write_text(json.dumps(payload, sort_keys=True))


@pytest.fixture
def plan_dir(tmp_path):
    """An isolated disk tier: memory caches cleared on the way in and
    out, the process-wide cache pointed at a private directory for
    the duration."""
    forget_memory()
    cache = configure_plan_cache(tmp_path / "plans")
    yield cache
    forget_memory()
    reset_plan_cache_configuration()


@pytest.fixture
def no_plan_dir():
    """Disk tier explicitly disabled (overrides any
    REPRO_PLAN_CACHE_DIR the surrounding run exported)."""
    forget_memory()
    configure_plan_cache(None)
    yield
    forget_memory()
    reset_plan_cache_configuration()


class TestPersistentTier:
    def test_miss_store_then_cross_restart_hit(self, plan_dir):
        fmt = fresh_format()
        store0 = disk("store")
        first = encoder_for_format(fmt)
        decoder_for_format(fmt)   # same format: same entry, no rewrite
        assert [p.name for p in plan_dir.entries()] == \
            [plan_dir.entry_path(fmt).name]
        assert disk("store") == store0 + 1

        forget_memory()
        hit0 = disk("hit")
        miss0 = metric_value("repro_codec_plans_total", outcome="miss")
        assert warm_start() == 1
        assert disk("hit") == hit0 + 1
        second = encoder_for_format(fmt)
        assert second is not first
        # both codecs of the restored format were compiled by the warm
        # start, and counted as the compiles they are
        assert metric_value("repro_codec_plans_total",
                            outcome="miss") == miss0 + 2
        assert bytes(second.encode_body(RECORD)) == \
            bytes(first.encode_body(RECORD))

    def test_truncated_entry_rejected_and_recompiled(self, plan_dir):
        fmt = fresh_format()
        encoder_for_format(fmt)
        (entry,) = plan_dir.entries()
        raw = entry.read_text()
        entry.write_text(raw[:len(raw) // 2])

        forget_memory()
        corrupt0 = disk("corrupt")
        assert warm_start() == 0
        assert disk("corrupt") == corrupt0 + 1
        assert not plan_dir.entries()   # the damaged entry is gone...
        # ...so the next compile from live metadata writes a good one
        rebuilt = encoder_for_format(fmt)
        assert [f.format_id for f in plan_dir.stored_formats()] == \
            [fmt.format_id]
        assert bytes(rebuilt.encode_body(RECORD)) == \
            bytes(RecordEncoder(fmt).encode_body(RECORD))

    def test_tampered_payload_fails_integrity(self, plan_dir):
        fmt = fresh_format()
        encoder_for_format(fmt)
        (entry,) = plan_dir.entries()
        payload = json.loads(entry.read_text())
        payload["format_name"] = "Tampered"   # digest now wrong
        entry.write_text(json.dumps(payload))

        corrupt0 = disk("corrupt")
        assert plan_dir.load(entry) is None
        assert disk("corrupt") == corrupt0 + 1

    def test_foreign_schema_version_counts_stale(self, plan_dir):
        """A well-formed entry of another cache schema (digest intact)
        is 'stale', not 'corrupt' — and is left for the version that
        wrote it."""
        fmt = fresh_format()
        encoder_for_format(fmt)
        (entry,) = plan_dir.entries()
        rewrite(entry, cache_schema=CACHE_SCHEMA + 1)

        stale0 = disk("stale")
        assert plan_dir.load(entry) is None
        assert disk("stale") == stale0 + 1
        assert entry.exists()

    def test_wrong_format_metadata_rejected(self, plan_dir):
        """An entry whose stored metadata re-derives to a different
        FormatID than it claims is rejected, even with a valid
        digest."""
        fmt = fresh_format()
        other = fresh_format("Other", specs=[("a", "integer")])
        entry = plan_dir.store(other)
        rewrite(entry, format_id=str(fmt.format_id))
        invalid0 = disk("invalid")
        assert plan_dir.load(entry) is None
        assert disk("invalid") == invalid0 + 1

    def test_clear_cache_purges_disk_tier(self, plan_dir):
        fmt = fresh_format()
        encoder_for_format(fmt)
        assert plan_dir.entries()
        clear_decoder_cache(persistent=False)
        assert plan_dir.entries()
        purge0 = disk("purge")
        clear_encoder_cache()
        assert not plan_dir.entries()
        assert disk("purge") == purge0 + 1

    def test_clear_cache_persistent_false_keeps_disk(self, plan_dir):
        fmt = fresh_format()
        encoder_for_format(fmt)
        clear_encoder_cache(persistent=False)
        assert len(plan_dir.entries()) == 1

    def test_stored_formats_and_warm_start(self, plan_dir):
        fmt = fresh_format()
        encoder_for_format(fmt)
        recovered = plan_dir.stored_formats()
        assert [f.format_id for f in recovered] == [fmt.format_id]

        forget_memory()
        ctx = IOContext(architecture=X86_64,
                        format_server=FormatServer())
        assert warm_start(context=ctx) == 1
        # the restored format is bound: encode without registration
        restored = ctx.format_server.lookup(fmt.format_id)
        assert restored is not None

    def test_store_failure_is_tolerated(self, plan_dir, monkeypatch):
        """A full disk must never fail an encode (best-effort store)."""
        import os as _os

        def boom(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(_os, "replace", boom)
        fmt = fresh_format()
        err0 = disk("store_error")
        encoder = encoder_for_format(fmt)
        assert bytes(encoder.encode_body(RECORD))
        assert disk("store_error") == err0 + 1
        assert not plan_dir.entries()
        assert not list(plan_dir.root.iterdir())   # no temp file left


class TestHostileDirectory:
    """Whatever is in the directory, nothing from it is executed, every
    bad entry is counted, and the good ones beside it still restore."""

    def _schema_1_entry(self, fmt: IOFormat, sentinel: Path) -> dict:
        """What the previous cache schema stored for an encoder: the
        marshalled code object of a fused run, ``exec``'d on load.
        This one would create *sentinel*."""
        code = compile(
            f"open({str(sentinel)!r}, 'w').close()\n"
            "def _fused(record, body, base): pass\n",
            "<fused-run>", "exec")
        payload = {
            "cache_schema": 1, "kind": "encoder",
            "format_id": str(fmt.format_id), "format_name": fmt.name,
            "options": {"bulk": True, "fuse": True},
            "metadata_b64": base64.b64encode(
                fmt.canonical_bytes()).decode("ascii"),
            "plan": {"version": 1, "fuse": True, "bulk": True,
                     "record_length": fmt.field_list.record_length,
                     "ops": [["run", {
                         "start": 0, "format": "<ii",
                         "names": ["timestep", "size"],
                         "code_b64": base64.b64encode(
                             marshal.dumps(code)).decode("ascii")}],
                         ["field", "data"]]},
            "plan_source": "",
        }
        payload["entry_sha256"] = _payload_digest(payload)
        return payload

    def test_bad_entries_are_counted_never_executed(self, plan_dir,
                                                    tmp_path):
        healthy = [fresh_format(f"Healthy{i}") for i in range(2)]
        victims = {kind: fresh_format(f"Victim_{kind}")
                   for kind in ("oversized", "truncated", "tampered")}
        for fmt in (*healthy, *victims.values()):
            plan_dir.store(fmt)
        raw = plan_dir.entry_path(victims["truncated"]).read_text()
        plan_dir.entry_path(victims["oversized"]).write_text(
            raw + " " * MAX_ENTRY_BYTES)
        plan_dir.entry_path(victims["truncated"]).write_text(raw[:40])
        tampered = json.loads(raw)
        tampered["metadata_b64"] = base64.b64encode(
            healthy[0].canonical_bytes()).decode("ascii")
        plan_dir.entry_path(victims["tampered"]).write_text(
            json.dumps(tampered))
        sentinel = tmp_path / "executed"
        old = fresh_format("OldSchema")
        (plan_dir.root / f"encoder-{old.format_id}-0123456789abcdef"
                         ".plan.json").write_text(json.dumps(
                             self._schema_1_entry(old, sentinel)))

        before = {o: disk(o) for o in ("hit", "corrupt", "stale")}
        ctx = IOContext(architecture=X86_64,
                        format_server=FormatServer())
        assert warm_start(context=ctx) == len(healthy)
        assert disk("hit") == before["hit"] + len(healthy)
        assert disk("corrupt") == before["corrupt"] + len(victims)
        assert disk("stale") == before["stale"] + 1
        assert set(ctx.format_server.known_ids()) == \
            {fmt.format_id for fmt in healthy}
        # the format the old entry was for still encodes — compiled
        # from live metadata, not from what the entry carried
        assert bytes(encoder_for_format(old).encode_body(RECORD)) == \
            bytes(RecordEncoder(old).encode_body(RECORD))
        assert not sentinel.exists()

    def test_entry_that_is_not_an_object_is_corrupt(self, plan_dir):
        entry = plan_dir.root / "whatever.plan.json"
        for text in ("[]", '"x"', "[" * 100_000, "\xff\xfe"):
            entry.write_text(text, encoding="latin-1")
            corrupt0 = disk("corrupt")
            assert plan_dir.load(entry) is None
            assert disk("corrupt") == corrupt0 + 1


def _one_field(name: str) -> tuple:
    return (fresh_format(name, specs=[("a", "integer")]),)


def _version_pair(name: str) -> tuple:
    """(new, old): one lineage, *new* appends a field."""
    return (fresh_format(name, specs=[("a", "integer"),
                                      ("b", "integer")]),
            fresh_format(name, specs=[("a", "integer")]))


#: front-end -> (name -> fresh key arguments, public getter)
FRONT_ENDS = {
    "encoder": (_one_field, encoder_for_format),
    "decoder": (_one_field, decoder_for_format),
    "down_converter": (_version_pair, down_converter),
}


def _builds(front: str) -> float:
    """How many plans of this kind were actually built so far."""
    if front == "down_converter":
        return metric_value("repro_evolution_events_total",
                            event="plans_compiled")
    return metric_value("repro_codec_plans_total", kind=front,
                        outcome="miss")


def _race(n: int, fn, *args) -> list:
    """Call ``fn(*args)`` from *n* threads released together."""
    started = threading.Barrier(n)
    results = []

    def worker():
        started.wait()
        results.append(fn(*args))

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class TestTwoProcessRace:
    _WORKER = r"""
import sys, time
from repro.pbio.context import IOContext
from repro.pbio.encode import encoder_for_format
from repro.pbio.decode import decoder_for_format
from repro.pbio.format_server import FormatServer

deadline = float(sys.argv[1])
ctx = IOContext(format_server=FormatServer())
fmt = ctx.register_layout("Raced", [
    ("timestep", "integer"), ("size", "integer"),
    ("data", "float[size]")])
time.sleep(max(0.0, deadline - time.time()))  # start-line barrier
for _ in range(5):
    encoder_for_format(fmt)
    decoder_for_format(fmt)
body = encoder_for_format(fmt).encode_body(
    {"timestep": 1, "size": 2, "data": [0.5, 1.5]})
sys.stdout.write(bytes(body).hex())
"""

    def test_concurrent_processes_share_one_entry(self, tmp_path):
        """Two processes racing to populate the same on-disk entry
        both succeed, and the surviving entry is valid."""
        cache_dir = tmp_path / "shared-plans"
        env = dict(__import__("os").environ)
        env["REPRO_PLAN_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src")
        deadline = time.time() + 1.0
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self._WORKER, str(deadline)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, text=True)
            for _ in range(2)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            outs.append(out)
        assert outs[0] == outs[1]  # byte-identical wire from both

        # the one surviving entry restores the format in a fresh
        # process (the workers registered on their native
        # architecture, so re-derive the format the same way here)
        cache = PlanCache(cache_dir)
        ctx = IOContext(format_server=FormatServer())
        fmt = ctx.register_layout("Raced", SPECS)
        assert [p.name for p in cache.root.iterdir()] == \
            [cache.entry_path(fmt).name]
        assert [f.format_id for f in cache.stored_formats()] == \
            [fmt.format_id]


class TestPlanLRU:
    def test_just_hit_plan_survives_eviction_wave(self):
        lru = PlanLRU(4, "encoder")
        for key in "abcd":
            lru.put(key, key.upper())
        assert lru.get("a") == "A"  # refresh recency
        for key in ("e", "f", "g"):  # wave: evicts 3 of the original 4
            lru.put(key, key.upper())
        assert "a" in lru            # survived -- true LRU
        assert "b" not in lru and "c" not in lru and "d" not in lru

    def test_eviction_counts_telemetry(self):
        evict0 = metric_value("repro_plan_cache_total",
                              tier="memory", outcome="evict")
        legacy0 = metric_value("repro_codec_plans_total",
                               kind="probe", outcome="evict")
        lru = PlanLRU(1, "probe")
        lru.put("a", 1)
        lru.put("b", 2)
        assert metric_value("repro_plan_cache_total", tier="memory",
                            outcome="evict") == evict0 + 1
        assert metric_value("repro_codec_plans_total", kind="probe",
                            outcome="evict") == legacy0 + 1

    def test_peek_does_not_refresh_recency(self):
        lru = PlanLRU(2, "probe")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.peek("a")
        lru.put("c", 3)  # evicts "a": peek left it least-recent
        assert "a" not in lru and "b" in lru

    def test_reput_updates_value_without_evicting(self):
        lru = PlanLRU(2, "probe")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert len(lru) == 2
        assert lru.get("a") == 10

    @pytest.mark.parametrize("front", sorted(FRONT_ENDS))
    def test_hot_plan_survives_wave_through_public_api(
            self, no_plan_dir, front):
        """End-to-end regression for the old FIFO bug (and, for the
        down-converter, its clear-everything-when-full dict): a plan
        being hit throughout an eviction wave keeps its identity."""
        make, get = FRONT_ENDS[front]
        hot_args = make("HotPlan")
        hot = get(*hot_args)
        for i in range(MAX_CACHED_PLANS + 16):
            get(*make(f"Cold{i}"))
            if i % 32 == 0:  # keep the hot plan recent
                assert get(*hot_args) is hot
        assert get(*hot_args) is hot


class TestSingleFlight:
    def test_one_build_under_contention(self):
        lru = PlanLRU(8, "probe")
        lock = threading.Lock()
        flights: dict = {}
        builds = []
        started = threading.Barrier(8)

        def build():
            builds.append(1)
            time.sleep(0.05)
            return object()

        results = []

        def worker():
            started.wait()
            results.append(
                single_flight(lock, flights, lru, "k", build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        values = {id(value) for value, _ in results}
        assert len(values) == 1  # everyone got the leader's object
        assert sum(built for _, built in results) == 1
        assert not flights  # ticket cleaned up

    def test_leader_failure_releases_waiters(self):
        lru = PlanLRU(8, "probe")
        lock = threading.Lock()
        flights: dict = {}
        attempts = []

        def build():
            attempts.append(1)
            if len(attempts) == 1:
                time.sleep(0.02)
                raise RuntimeError("leader dies")
            return "ok"

        outcomes = []

        def worker():
            try:
                outcomes.append(
                    single_flight(lock, flights, lru, "k", build))
            except RuntimeError:
                outcomes.append("raised")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # the failure stayed with exactly one thread; a successor
        # retried the build and everyone else got its value
        assert outcomes.count("raised") == 1
        assert all(o == ("ok", True) or o == ("ok", False)
                   for o in outcomes if o != "raised")
        assert not flights

    def test_miss_counter_counts_actual_compiles(self, no_plan_dir):
        """The CODEC_PLANS miss series counts compiles, not arrivals:
        16 threads racing on one cold key yield exactly 1 miss."""
        fmt = fresh_format("FlightCounted")
        miss0 = metric_value("repro_codec_plans_total",
                             kind="encoder", outcome="miss")
        hit0 = metric_value("repro_codec_plans_total",
                            kind="encoder", outcome="hit")
        _race(16, encoder_for_format, fmt)
        assert metric_value("repro_codec_plans_total", kind="encoder",
                            outcome="miss") == miss0 + 1
        assert metric_value("repro_codec_plans_total", kind="encoder",
                            outcome="hit") == hit0 + 15

    @pytest.mark.parametrize("front", sorted(FRONT_ENDS))
    def test_one_build_under_contention_through_public_api(
            self, no_plan_dir, front):
        """8 threads missing on one key: one plan, one counted build."""
        make, get = FRONT_ENDS[front]
        args = make("Contended")
        if front == "down_converter":
            for fmt in args:   # leave only the converter itself cold
                encoder_for_format(fmt)
                decoder_for_format(fmt)
        built0 = _builds(front)
        plans = _race(8, get, *args)
        assert len({id(plan) for plan in plans}) == 1
        assert _builds(front) == built0 + 1


@pytest.fixture(scope="module")
def property_cache(tmp_path_factory):
    return PlanCache(tmp_path_factory.mktemp("property-plans"))


class TestPlanFidelity:
    """Hypothesis: a format that went through a disk entry and back is
    indistinguishable from the live one — its codecs put the same
    bytes on the wire and read the same records back — across random
    formats on both byte orders."""

    @settings(max_examples=80, deadline=None)
    @given(case=format_case(), arch=st.sampled_from(ARCHS),
           data=st.data())
    def test_loaded_encoder_bytes_identical(self, property_cache,
                                            case, arch, data):
        specs, record_strategy = case
        record = data.draw(record_strategy)
        fmt = IOFormat("P", field_list_for(specs, architecture=arch))
        loaded = property_cache.load(property_cache.store(fmt))
        assert loaded is not fmt and loaded.format_id == fmt.format_id
        assert bytes(RecordEncoder(loaded).encode_body(record)) == \
            bytes(RecordEncoder(fmt).encode_body(record))

    @settings(max_examples=80, deadline=None)
    @given(case=format_case(), arch=st.sampled_from(ARCHS),
           data=st.data())
    def test_loaded_decoder_records_identical(self, property_cache,
                                              case, arch, data):
        specs, record_strategy = case
        record = data.draw(record_strategy)
        fmt = IOFormat("P", field_list_for(specs, architecture=arch))
        body = RecordEncoder(fmt).encode_body(record)
        loaded = property_cache.load(property_cache.store(fmt))
        assert RecordDecoder(loaded).decode(body) == \
            RecordDecoder(fmt).decode(body)


class TestConfiguration:
    def test_configure_overrides_environment(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR",
                           str(tmp_path / "env"))
        reset_plan_cache_configuration()
        try:
            override = configure_plan_cache(tmp_path / "explicit")
            assert active_plan_cache() is override
            configure_plan_cache(None)
            assert active_plan_cache() is None  # disabled beats env
        finally:
            reset_plan_cache_configuration()

    def test_environment_reread_per_call(self, tmp_path, monkeypatch):
        reset_plan_cache_configuration()
        try:
            monkeypatch.delenv("REPRO_PLAN_CACHE_DIR", raising=False)
            assert active_plan_cache() is None
            monkeypatch.setenv("REPRO_PLAN_CACHE_DIR",
                               str(tmp_path / "late"))
            cache = active_plan_cache()
            assert cache is not None
            assert cache is active_plan_cache()  # memoized per dir
        finally:
            reset_plan_cache_configuration()
