"""Mutable telemetry switches, read inline by the hot paths.

This module is deliberately nothing but module-level words: hot call
sites do ``from repro.obs import runtime as _obs`` once and then test
``_obs.enabled`` — a module attribute read and a branch, tens of
nanoseconds — instead of calling into the registry.  That is what
keeps the no-op mode within the benchmark gate's 1% bound
(``benchmarks/check_gates.py``).

* ``enabled`` — master switch.  Off: no spans, no histograms, no
  inline increments of shared series; per-owner
  :class:`~repro.obs.registry.Tally` cells, and the process-wide
  series summed from them, keep exact counts either way.
* ``sample_mask`` — marshal/unmarshal latency is *sampled*: one in
  every ``sample_mask + 1`` codec operations is timed (the mask must
  be ``2**k - 1``).  0 times every operation (exact sums, used by the
  live-RDM test); the default 15 keeps steady-state timing cost to a
  fraction of a lock round-trip per record.

Use :func:`repro.obs.configure` / :func:`repro.obs.set_enabled`
rather than poking these directly.
"""

from __future__ import annotations

enabled: bool = True
sample_mask: int = 15

#: ring-buffer capacity for span traces; 0 disables tracing
trace_capacity: int = 0
