"""Developer tools built on the library.

* :mod:`repro.tools.inspect`  -- :func:`describe_format`, a format's
  field table, Fig. 2 style;
* :mod:`repro.tools.xmitgen`  -- command-line metadata generator: the
  XMIT analog of an IDL compiler, rendering XSD documents to any
  source target, or validating an XML instance document against them
  (``python -m repro.tools.xmitgen``);
* :mod:`repro.tools.obsdump`  -- telemetry dumper: render the
  :mod:`repro.obs` registry as Prometheus text or JSON, from this
  process, a live ``/metrics.json`` endpoint, or a fresh hydrology
  pipeline run (``python -m repro.tools.obsdump --pipeline``).
"""

from repro.tools.inspect import describe_format

__all__ = ["describe_format"]
