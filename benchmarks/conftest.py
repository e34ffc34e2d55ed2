"""Shared helpers for the benchmark harness.

Every figure/table of the paper's evaluation section has one
``test_*`` module here; the pytest-benchmark summary table, grouped per
figure, is the machine-readable regeneration of that figure.  For the
paper-styled rows (struct size / encoded size / RDM columns), run
``python benchmarks/regen_experiments.py``, which produces the tables
embedded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import field_list_for

#: Where the fused-codec acceptance numbers land; consumed by
#: ``benchmarks/check_fused_gate.py`` in CI.
BENCH_FUSED_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_fused.json"

#: Where the broadcast fan-out sweep lands; consumed by
#: ``benchmarks/check_fanout_gate.py`` in CI.
BENCH_FANOUT_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_fanout.json"

#: Where the telemetry-overhead numbers land; consumed by
#: ``benchmarks/check_obs_gate.py`` in CI.
BENCH_OBS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_obs.json"

#: Where the down-conversion cost numbers land; consumed by
#: ``benchmarks/check_evolution_gate.py`` in CI.
BENCH_EVOLUTION_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_evolution.json"

#: Where the bulk-array fast-path numbers land; consumed by
#: ``benchmarks/check_bulk_gate.py`` in CI.
BENCH_BULK_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_bulk.json"

#: Where the sharded fan-out matrix lands; consumed by
#: ``benchmarks/check_sharded_gate.py`` in CI.
BENCH_SHARDED_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_fanout_sharded.json"

#: Where the catalog-scale / warm-start numbers land; consumed by
#: ``benchmarks/check_catalog_gate.py`` in CI.
BENCH_CATALOG_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_catalog.json"

_FUSED_METRICS: dict = {}
_FANOUT_METRICS: dict = {}
_OBS_METRICS: dict = {}
_EVOLUTION_METRICS: dict = {}
_BULK_METRICS: dict = {}
_SHARDED_METRICS: dict = {}
_CATALOG_METRICS: dict = {}


def context_for_case(case) -> IOContext:
    """A fresh context with the case's format registered (compiled-in
    path)."""
    ctx = IOContext(format_server=FormatServer())
    subformats = None
    if case.get("subformats"):
        subformats = {}
        for name, specs in case["subformats"].items():
            subformats[name] = field_list_for(
                specs, architecture=ctx.architecture,
                subformats=dict(subformats))
    ctx.register_layout(case["name"], case["specs"],
                        subformats=subformats)
    return ctx


@pytest.fixture
def fresh_server() -> FormatServer:
    return FormatServer()


@pytest.fixture
def fused_metrics() -> dict:
    """Session-wide sink for the fused-codec acceptance numbers
    (``test_ext_fused_codec``); flushed to BENCH_fused.json at
    session end."""
    return _FUSED_METRICS


@pytest.fixture
def fanout_metrics() -> dict:
    """Session-wide sink for the fan-out sweep
    (``test_ext_fanout``); flushed to BENCH_fanout.json at session
    end."""
    return _FANOUT_METRICS


@pytest.fixture
def obs_metrics() -> dict:
    """Session-wide sink for the telemetry-overhead numbers
    (``test_ext_obs_overhead``); flushed to BENCH_obs.json at
    session end."""
    return _OBS_METRICS


@pytest.fixture
def evolution_metrics() -> dict:
    """Session-wide sink for the sender-side down-conversion cost
    numbers (``test_abl_evolution_cost``); flushed to
    BENCH_evolution.json at session end."""
    return _EVOLUTION_METRICS


@pytest.fixture
def bulk_metrics() -> dict:
    """Session-wide sink for the bulk-array fast-path numbers
    (``test_ext_bulk``); flushed to BENCH_bulk.json at session
    end."""
    return _BULK_METRICS


@pytest.fixture
def sharded_metrics() -> dict:
    """Session-wide sink for the sharded fan-out matrix
    (``test_ext_fanout_sharded``); flushed to
    BENCH_fanout_sharded.json at session end."""
    return _SHARDED_METRICS


@pytest.fixture
def catalog_metrics() -> dict:
    """Session-wide sink for the catalog-scale and warm-start numbers
    (``test_ext_catalog``); flushed to BENCH_catalog.json at session
    end."""
    return _CATALOG_METRICS


def pytest_sessionfinish(session, exitstatus):
    if _FUSED_METRICS:
        BENCH_FUSED_PATH.write_text(
            json.dumps(_FUSED_METRICS, indent=2, sort_keys=True) + "\n")
    if _FANOUT_METRICS:
        BENCH_FANOUT_PATH.write_text(
            json.dumps(_FANOUT_METRICS, indent=2, sort_keys=True) + "\n")
    if _OBS_METRICS:
        BENCH_OBS_PATH.write_text(
            json.dumps(_OBS_METRICS, indent=2, sort_keys=True) + "\n")
    if _EVOLUTION_METRICS:
        BENCH_EVOLUTION_PATH.write_text(
            json.dumps(_EVOLUTION_METRICS, indent=2, sort_keys=True) +
            "\n")
    if _BULK_METRICS:
        BENCH_BULK_PATH.write_text(
            json.dumps(_BULK_METRICS, indent=2, sort_keys=True) + "\n")
    if _SHARDED_METRICS:
        BENCH_SHARDED_PATH.write_text(
            json.dumps(_SHARDED_METRICS, indent=2, sort_keys=True) +
            "\n")
    if _CATALOG_METRICS:
        BENCH_CATALOG_PATH.write_text(
            json.dumps(_CATALOG_METRICS, indent=2, sort_keys=True) +
            "\n")
