"""Warm-start acceptance: a restarting process over a pre-populated
plan-cache directory skips discovery and binding, and its ledger says
exactly what it did pay.

Two real processes share one ``REPRO_PLAN_CACHE_DIR``:

* the **cold** process discovers a format over the full XMIT path
  (publish → fetch → parse → compile → bind), encodes a stream, and
  reports its RDM — the paper's registration-vs-marshal cost ratio,
  which cold must be well above 1 (that is Fig. 3's whole point);
* the **warm** process restores the format from the disk tier
  (``warm_start``: one entry read, one disk ``hit``) and compiles its
  two codecs from it — **zero** ``fetch`` / ``compile`` / ``bind``
  spans, exactly two ``compile_plan`` spans matched by two
  ``repro_codec_plans_total`` misses, and — in the discovery counters
  that read one each on the cold side — no schema fetched or compiled.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: the discovery counters in a script's ``snap``, by event name
_DISCOVERY = r"""
def discovery(event):
    metric = snap.get("repro_discovery_events_total", {"series": []})
    return sum(s["value"] for s in metric["series"]
               if s["labels"].get("event") == event)
"""

_COLD = r"""
import json, sys
from repro import obs
from repro.core.toolkit import XMIT
from repro.http.urls import publish_document
from repro.obs.spans import rdm_from_snapshot
from repro.pbio.context import IOContext
from repro.pbio.decode import decoder_for_format
from repro.pbio.format_server import FormatServer
from repro.pbio.plancache import active_plan_cache

XSD = '''
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Sample">
    <xsd:element name="step" type="xsd:integer" />
    <xsd:element name="size" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" maxOccurs="*"
                 dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
'''

obs.configure(sample_mask=0)
url = publish_document("warm-start.xsd", XSD)
xmit = XMIT()
xmit.load_url(url)
ctx = IOContext(format_server=FormatServer())
fmt = xmit.register_with_context(ctx, "Sample")
decoder_for_format(fmt)
record = {"step": 0, "size": 64, "data": [0.5] * 64}
for step in range(256):
    record["step"] = step
    ctx.encode("Sample", record)
snap = obs.snapshot()
reading = rdm_from_snapshot(snap)
""" + _DISCOVERY + r"""
json.dump({
    "rdm": reading["rdm"],
    "entries": len(active_plan_cache().entries()),
    "fetches": discovery("fetch_attempts"),
    "schema_compiles": discovery("compiles"),
}, sys.stdout)
"""

_WARM = r"""
import json, sys
from repro import obs
from repro.obs.spans import rdm_from_snapshot
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.plancache import warm_start

obs.configure(sample_mask=0)
ctx = IOContext(format_server=FormatServer())
restored = warm_start(context=ctx)
(fmt,) = [ctx.format_server.lookup(fid)
          for fid in ctx.format_server.known_ids()]
record = {"step": 0, "size": 64, "data": [0.5] * 64}
for step in range(256):
    record["step"] = step
    ctx.encode(fmt, record)
snap = obs.snapshot()

def series(name):
    metric = snap.get(name, {"series": []})
    return metric["series"]

def spans(*names):
    return sum(s["value"] for s in series("repro_spans_total")
               if s["labels"].get("name") in names)

disk_hits = sum(
    s["value"] for s in series("repro_plan_cache_total")
    if s["labels"].get("tier") == "disk"
    and s["labels"].get("outcome") == "hit")
codec_misses = sum(
    s["value"] for s in series("repro_codec_plans_total")
    if s["labels"].get("outcome") == "miss")
reading = rdm_from_snapshot(snap)
""" + _DISCOVERY + r"""
json.dump({
    "restored": restored,
    "rdm": reading["rdm"],
    "fetches": discovery("fetch_attempts"),
    "schema_compiles": discovery("compiles"),
    "discovery_spans": spans("fetch", "compile", "bind"),
    "compile_plan_spans": spans("compile_plan"),
    "plan_load_spans": spans("plan_cache_load"),
    "disk_hits": disk_hits,
    "codec_misses": codec_misses,
}, sys.stdout)
"""


def _run(code: str, cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_PLAN_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_warm_restart_pays_no_registration(tmp_path):
    cache_dir = tmp_path / "plans"

    cold = _run(_COLD, cache_dir)
    assert cold["entries"] >= 1          # one entry per format
    assert cold["rdm"] is not None and cold["rdm"] > 1
    assert cold["fetches"] == cold["schema_compiles"] == 1

    warm = _run(_WARM, cache_dir)
    assert warm["restored"] == 1
    # no discovery or binding work at all...
    assert warm["discovery_spans"] == 0
    # ...the format came off disk...
    assert warm["plan_load_spans"] == 1 and warm["disk_hits"] == 1
    # ...and the ledger owns up to the two codecs compiled from it
    assert warm["compile_plan_spans"] == warm["codec_misses"] == 2
    # the acceptance bar, in counters rather than two processes' clocks:
    # what is left of registration is the part of the cold path's that
    # no cache of metadata can take away — no schema was fetched or
    # compiled
    assert warm["fetches"] == warm["schema_compiles"] == 0
