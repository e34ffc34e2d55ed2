"""Ablation — discovery source orthogonality (section 2).

"How metadata is provided to a BCM does not in any way influence how
that metadata is used for binding or marshaling."  The bench registers
the same format via compiled-in specs, ``mem:``, ``file:`` and
``http:`` discovery, then checks (a) discovery costs differ across
sources while (b) the resulting format — and therefore steady-state
encode cost — is byte-identical.
"""

import pytest

from repro.bench import workloads
from repro.bench.timing import time_callable
from repro.core.toolkit import XMIT
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.http.urls import publish_document
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer

CASE = [c for c in workloads.hydrology_cases()
        if c["name"] == "SimpleData"][0]
RECORD = workloads.simple_data_record(64)


def _register_via_url(url: str) -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    xmit = XMIT()
    xmit.load_url(url)
    xmit.register_with_context(ctx, "SimpleData")
    return ctx


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    path = tmp_path_factory.mktemp("formats") / "simple.xsd"
    path.write_text(CASE["xsd"])
    store = DocumentStore()
    store.put("/simple.xsd", CASE["xsd"])
    server = MetadataHTTPServer(store)
    urls = {
        "mem": publish_document("abl-disc.xsd", CASE["xsd"]),
        "file": f"file://{path}",
        "http": server.url_for("/simple.xsd"),
    }
    yield urls
    server.close()


@pytest.mark.parametrize("source", ["mem", "file", "http"])
def test_abl_discovery_cost_by_source(source, sources, benchmark):
    benchmark.group = "abl-discovery-cost"
    benchmark(_register_via_url, sources[source])


@pytest.mark.benchmark(group="abl-discovery-cost")
def test_abl_discovery_compiled_in(benchmark):
    def register():
        ctx = IOContext(format_server=FormatServer())
        ctx.register_layout("SimpleData", CASE["specs"])
        return ctx
    benchmark(register)


@pytest.mark.benchmark(group="abl-discovery-cost")
def test_abl_discovery_remote_format_server(benchmark):
    """Registration against a network format server: the metadata is
    compiled-in but the registry round trip crosses loopback TCP."""
    from repro.pbio.remote_server import (
        FormatServerService, RemoteFormatServer,
    )
    with FormatServerService() as service:
        def register():
            remote = RemoteFormatServer.connect(service.host,
                                                service.port)
            try:
                ctx = IOContext(format_server=remote)
                ctx.register_layout("SimpleData", CASE["specs"])
                return ctx
            finally:
                remote.close()
        benchmark(register)


@pytest.mark.benchmark(group="abl-discovery-orthogonality")
def test_abl_marshaling_identical_across_sources(sources, benchmark):
    """The orthogonality claim itself: formats from every discovery
    source share a format ID, hence one compiled encoder object, and
    marshal a record to the same bytes.  Each source's encode time is
    recorded in ``extra_info``; it is one encoder, so the times are
    not compared."""

    def sweep():
        contexts = {name: _register_via_url(url)
                    for name, url in sources.items()}
        compiled = IOContext(format_server=FormatServer())
        compiled.register_layout("SimpleData", CASE["specs"])
        contexts["compiled"] = compiled
        ids, encoders, bodies, times = {}, {}, {}, {}
        for name, ctx in contexts.items():
            fmt = ctx.lookup_format("SimpleData")
            ids[name] = fmt.format_id
            encoder = encoders[name] = ctx.encoder_for(fmt)
            bodies[name] = bytes(encoder.encode_body(RECORD))
            times[name] = time_callable(
                lambda: encoder.encode_body(RECORD), repeat=3).best
        return ids, encoders, bodies, times

    ids, encoders, bodies, times = benchmark.pedantic(
        sweep, rounds=1, iterations=1)
    benchmark.extra_info["encode_body_best_s"] = times
    assert len(set(ids.values())) == 1, ids
    first = encoders["compiled"]
    assert all(encoder is first for encoder in encoders.values())
    assert len(set(bodies.values())) == 1
