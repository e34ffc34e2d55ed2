"""Smoke tests of the benchmark itself.

    python -m pytest bench_e2e/tests -q

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One ``run.py --quick`` for the whole module (about 20 s)."""
    out = tmp_path_factory.mktemp("quick") / "result.json"
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick",
                    "--out", str(out)], check=True, timeout=600,
                   capture_output=True)
    return json.loads(out.read_text())


def test_quick_emits_every_metric(quick):
    assert list(quick["workloads"]) == WORKLOADS
    for name, entry in quick["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0
        assert entry["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            assert set(entry[kind]) == set(listed), (name, kind)
            for metric, summary in entry[kind].items():
                assert summary["unit"] == listed[metric]
                assert math.isfinite(summary["median"]), (name, metric)
        # end-to-end metrics are never 0, on any workload
        assert all(s["median"] > 0 for s in entry["end_to_end"].values())


def test_layers_show_only_where_they_run(quick):
    def layer(workload: str, metric: str) -> float:
        return quick["workloads"][workload]["per_layer"][metric]["median"]

    for workload in WORKLOADS:
        eventloop = layer(workload, "transport.eventloop.enqueue_us")
        assert (eventloop > 0) == (workload == "fanout_small")
        for metric in ("xmlcore.parse_ms", "schema.parse_ms",
                       "core.compile_ms", "core.bind_ms"):
            assert (layer(workload, metric) > 0) == (workload == "cold_start")
    assert layer("cold_start", "pbio.plans.misses_per_iter") == 2
    assert layer("fanout_small", "transport.broadcast.encodes_per_publish") == 1
    assert layer("fanout_small", "transport.broadcast.frames_per_publish") == 4
    assert layer("stream_grid", "pbio.encode.copied_bytes_per_msg") == \
        gen.GRID_CELLS * 4


def test_envelope(quick):
    envelope = quick["envelope"]
    for key in ("cpus", "python", "platform", "kernel", "git", "utc",
                "seed", "rounds", "round_seconds", "traced_seconds",
                "obs_enabled", "env"):
        assert key in envelope
    assert envelope["obs_enabled"] is True
    assert "REPRO_PLAN_CACHE_DIR" not in envelope["env"]
    trajectory = (BENCH / "out" / "trajectory.jsonl").read_text()
    assert json.loads(trajectory.splitlines()[-1])["envelope"]["utc"] == \
        envelope["utc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_files_nest(quick, workload):
    trace = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
    assert trace["columns"] == ["name", "start_ns", "end_ns", "parent", "seq"]
    spans = trace["spans"]
    assert spans
    for name, start, end, parent, seq in spans:
        assert start <= end
        if parent >= 0:
            _pname, pstart, pend, _pp, pseq = spans[parent]
            assert pstart <= start and end <= pend and pseq == seq
    assert all(value >= 0 for value in tracing.self_times(spans))


def test_refuses_a_persistent_plan_cache(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cold_start",
         "--seconds", "0.1"], capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "REPRO_PLAN_CACHE_DIR": str(tmp_path)})
    assert done.returncode != 0 and not done.stdout
    assert "REPRO_PLAN_CACHE_DIR" in done.stderr


def test_generator_is_deterministic_in_seed():
    def document(seed: int, index: int) -> tuple:
        types = gen.schema_description(seed, index)
        return (gen.xsd_text(types), gen.field_specs(types),
                gen.sample_record(types, seed, index))

    assert document(7, 3) == document(7, 3)
    assert document(7, 3)[0] != document(8, 3)[0]
    assert document(7, 3)[0] != document(7, 4)[0]
    for name in ("Flow", "Telemetry"):
        assert gen.streaming_records(name, 7, 8) == \
            gen.streaming_records(name, 7, 8)
        assert gen.streaming_records(name, 7, 8) != \
            gen.streaming_records(name, 8, 8)
    a, b, c = (gen.streaming_records("Grid", seed, 1)[0]["cells"]
               for seed in (7, 7, 8))
    assert a.tobytes() == b.tobytes() != c.tobytes()


def _result(scale: float) -> dict:
    """A synthetic suite result; *scale* multiplies every value, which
    makes lower-is-better metrics worse and msgs_per_s better.  The
    byte count is exact, the other metrics spread 4 % over rounds."""
    def values(metric: str) -> dict:
        rounds = [1.0] * 5 if metric == "wire_bytes_per_msg" else \
            [1.00, 1.01, 0.99, 1.02, 0.98]
        return {"values": [100.0 * scale * r for r in rounds]}

    end_to_end = {m["name"]: values(m["name"])
                  for m in BENCHMARK["end_to_end"]}
    return {"envelope": {"seed": 1, "rounds": 5, "round_seconds": 18.0,
                         "traced_seconds": 3.0},
            "workloads": {name: {"fail_ratio": 0.0,
                                 "end_to_end": dict(end_to_end)}
                          for name in WORKLOADS}}


def test_compare_flags_a_regression_and_passes_a_pair():
    rows, failed = compare.compare(_result(1.0), _result(1.0), BENCHMARK)
    assert not failed
    assert {row["verdict"] for row in rows} == {"same"}

    rows, failed = compare.compare(_result(1.0), _result(1.3), BENCHMARK)
    assert failed
    verdicts = {row["metric"]: row["verdict"] for row in rows
                if row["workload"] == "stream_small"}
    assert verdicts["latency_p50_us"] == "worse"
    assert verdicts["msgs_per_s"] == "better"

    noisy = _result(1.0)
    noisy["workloads"]["cold_start"]["end_to_end"]["latency_p50_us"] = {
        "values": [60.0, 100.0, 140.0, 80.0, 120.0]}
    rows, _failed = compare.compare(_result(1.0), noisy, BENCHMARK)
    assert [row["verdict"] for row in rows
            if row["workload"] == "cold_start"
            and row["metric"] == "latency_p50_us"] == ["unresolved"]

    broken = _result(1.0)
    broken["workloads"]["stream_grid"]["fail_ratio"] = 0.001
    assert compare.compare(_result(1.0), broken, BENCHMARK)[1]


@pytest.mark.parametrize("key", compare.SAME_RUN)
def test_compare_refuses_results_not_run_alike(key):
    other = _result(1.0)
    other["envelope"][key] += 1
    with pytest.raises(ValueError, match=key):
        compare.compare(_result(1.0), other, BENCHMARK)


def test_suite_run_lengths_are_not_options():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "--workload" in done.stderr
