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
from collections import defaultdict
from pathlib import Path

import pytest

from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.pbio.layout import field_list_for

#: Every ``BENCH_*.json`` the benchmarks record, keyed by file name:
#: a test fills ``bench_json["BENCH_fanout.json"]`` and the session's
#: end writes each non-empty entry to the repository root, where
#: ``benchmarks/check_gates.py`` reads it.
_BENCH_JSON: defaultdict = defaultdict(dict)


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
def bench_json() -> defaultdict:
    """Session-wide sink for the gated benchmark numbers, keyed by
    BENCH file name; flushed at session end."""
    return _BENCH_JSON


def pytest_sessionfinish(session, exitstatus):
    root = Path(__file__).resolve().parents[1]
    for name, metrics in _BENCH_JSON.items():
        if metrics:
            (root / name).write_text(
                json.dumps(metrics, indent=2, sort_keys=True) + "\n")
