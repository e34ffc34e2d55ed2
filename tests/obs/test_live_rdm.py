"""The acceptance test: the paper's RDM, computed from live telemetry.

Register a format (discovery + bind/compile phases), marshal records
through an instrumented IOContext (marshal phase), then compute the
registration-vs-marshal cost split from the obs snapshot *alone* —
no stopwatch in the test.  With ``sample_mask=0`` every codec
operation is timed, so the marshal mean is exact.
"""

from __future__ import annotations

from repro import obs
from repro.core.toolkit import XMIT
from repro.http.urls import publish_document
from repro.obs.metrics import CODEC_PLANS
from repro.obs.spans import phase_seconds, rdm_from_snapshot
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer

XSD = """
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Sample">
    <xsd:element name="step" type="xsd:integer" />
    <xsd:element name="size" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" maxOccurs="*"
                 dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
"""

N_RECORDS = 256


def encoder_misses() -> float:
    return CODEC_PLANS.labels("encoder", "miss").value


class TestLiveRDM:
    def test_rdm_computable_from_snapshot_alone(self):
        obs.configure(sample_mask=0)  # time every codec operation
        obs.reset()

        url = publish_document("live-rdm.xsd", XSD)
        xmit = XMIT()
        xmit.load_url(url)                       # discover + compile
        ctx = IOContext(format_server=FormatServer())
        xmit.register_with_context(ctx, "Sample")   # bind/compile
        record = {"step": 1, "size": 64,
                  "data": [0.5] * 64}
        for step in range(N_RECORDS):
            record["step"] = step
            ctx.encode("Sample", record)

        reading = rdm_from_snapshot(obs.snapshot())
        assert reading["marshal_records_sampled"] >= N_RECORDS
        assert reading["registration_seconds"] > 0
        per_record = reading["marshal_seconds_per_record"]
        assert per_record is not None and per_record > 0
        rdm = reading["rdm"]
        assert rdm is not None and rdm > 0
        assert rdm == (reading["registration_seconds"] / per_record)
        # the paper's qualitative claim: registration costs orders of
        # magnitude more than marshaling one record, hence amortize
        assert rdm > 1

    def test_marshal_cost_does_not_grow_with_registrations(self):
        """Steady-state marshaling is independent of how many formats
        have been registered (the amortization claim): registering 20
        more compiles no plan for ``Sample``, and its records keep
        going through the one encoder compiled for it."""
        obs.configure(sample_mask=0)
        obs.reset()

        ctx = IOContext(format_server=FormatServer())
        ctx.register_layout("Sample", [
            ("step", "integer"), ("size", "integer"),
            ("data", "float[size]")])
        record = {"step": 0, "size": 64, "data": [0.5] * 64}
        wire = ctx.encode("Sample", record)
        encoder = ctx.encoder_for(ctx.lookup_format("Sample"))

        # register 20 more formats, then marshal the same record again
        for i in range(20):
            ctx.register_layout(f"Other{i}", [
                ("a", "integer"), ("b", "float")])
        misses = encoder_misses()
        obs.reset()
        for _ in range(N_RECORDS):
            assert ctx.encode("Sample", record) == wire
        assert encoder_misses() == misses
        assert ctx.encoder_for(ctx.lookup_format("Sample")) is encoder
        assert phase_seconds(obs.snapshot())["marshal"]["count"] == \
            N_RECORDS

    def test_rdm_none_before_any_marshal(self):
        obs.reset()
        reading = rdm_from_snapshot(obs.snapshot())
        assert reading["marshal_seconds_per_record"] is None
        assert reading["rdm"] is None
