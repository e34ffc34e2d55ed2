#!/usr/bin/env python3
"""End-to-end cost ledger: one benchmark, five workloads.

One run of one workload (what ``BENCHMARK.json``'s command invokes)::

    python3 bench_e2e/run.py --workload stream_small --seed 1 \\
        --seconds 10 --trace 0

prints the metrics by name and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (and
``bench_e2e/out/trace-<workload>.json``) with ``--trace 1``.

Without ``--workload`` it runs the suite — every workload for ROUNDS
rounds of ``run_seconds`` (the length the bounds of ``BENCHMARK.json``
were measured for), one process per (workload, round), rounds
interleaved A B C D E A B … so a noisy minute hits all of them, then
one traced run each — prints every metric with its median and spread,
writes ``bench_e2e/out/latest.json`` and appends the same document to
``bench_e2e/out/trajectory.jsonl``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse
import datetime
import faulthandler
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WATCHDOG_SECONDS = 170  # the contract allows a run 180 s
#: the suite's run lengths are fixed, so that any two results compare
ROUNDS = 5
TRACED_SECONDS = 3.0
QUICK = {"rounds": 1, "round_seconds": 0.2, "traced_seconds": 0.2}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def refuse_plan_cache() -> None:
    if os.environ.get("REPRO_PLAN_CACHE_DIR"):
        sys.exit("bench_e2e: REPRO_PLAN_CACHE_DIR is set; a persistent "
                 "plan cache would silently turn cold_start warm. "
                 "Unset it and run again.")


def import_system() -> None:
    """Put the program under test (``src/repro``) on the path.  The
    benchmark never falls back to an installed copy."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench_e2e: {ROOT / 'src' / 'repro'} not found; run "
                 "from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """With the driver and the publisher's loop thread on different
    vCPUs every GIL hand-over is a cross-CPU wake-up: fanout_small runs
    at 490 us instead of 195 us, and which one a run gets is the
    scheduler's choice (README, noise).  One CPU makes it one number."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args, benchmark: dict) -> int:
    # blocking receives have no timeout (the default an application
    # gets); a lost message must still end the run with a failure
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    pin_to_one_cpu()
    from hostspeed import SetUpClock
    setup = SetUpClock(STARTED)  # before the imports it will time
    import_system()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        sys.exit(f"bench_e2e: unknown workload {args.workload!r}; "
                 f"one of {names}")
    if args.workload == "cold_start":
        import coldstart
        result = coldstart.run(args.seed, args.seconds, bool(args.trace),
                               OUT, setup)
    else:
        import streaming
        result = streaming.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), OUT, setup)
    measured = result["metrics"]
    if not args.trace:
        measured["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        sys.exit(f"bench_e2e: metrics not in BENCHMARK.json: {unknown}")
    # a layer that does not run on this workload reports 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{args.workload:20s} {name:44s} "
              f"{metric['value']:16.4f} {metric['unit']}")
    for key, value in result["notes"].items():
        print(f"{args.workload:20s} # {key} = {value}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def git_state() -> dict:
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None
    status = git("status", "--porcelain")
    return {"rev": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def envelope(seed: int, lengths: dict) -> dict:
    import_system()
    import repro.obs
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel": platform.release(),
        "git": git_state(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": seed,
        **lengths,
        "obs_enabled": repro.obs.is_enabled(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
    }


def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=WATCHDOG_SECONDS + 10)
    if done.returncode != 0:
        sys.exit(f"bench_e2e: {workload} run failed "
                 f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """(max - min) / median over rounds."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def summarise(runs: list[dict]) -> dict:
    """Per metric: the round values, their median and spread."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        out[name] = {"unit": first["unit"], "median": median(values),
                     "spread": spread(values), "values": values}
    return out


def run_suite(args, benchmark: dict) -> int:
    names = [w["name"] for w in benchmark["workloads"]]
    lengths = QUICK if args.quick else {
        "rounds": ROUNDS,
        "round_seconds": float(benchmark["run_seconds"]),
        "traced_seconds": TRACED_SECONDS}
    doc = {"envelope": envelope(args.seed, lengths), "workloads": {}}
    rounds: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(lengths["rounds"]):
        for name in names:
            print(f"round {index + 1}/{lengths['rounds']} {name}",
                  file=sys.stderr)
            rounds[name].append(child(name, args.seed,
                                      lengths["round_seconds"], 0))
    failed_any = False
    for name in names:
        print(f"traced {name}", file=sys.stderr)
        traced = child(name, args.seed, lengths["traced_seconds"], 1)
        runs = rounds[name] + [traced]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        failed_any |= failed > 0 or not all(run["correct"] for run in runs)
        doc["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "correct": all(run["correct"] for run in runs),
            "end_to_end": summarise(rounds[name]),
            "per_layer": summarise([traced]),
        }
    for name, entry in doc["workloads"].items():
        print(f"{name}: fail_ratio {entry['fail_ratio']:.6f} "
              f"({entry['failed']}/{entry['attempted']})")
        for kind in ("end_to_end", "per_layer"):
            for metric, s in entry[kind].items():
                extra = (f"  spread {s['spread']:.3f} over "
                         f"{len(s['values'])} rounds"
                         if kind == "end_to_end" else "")
                print(f"  {metric:44s} {s['median']:16.4f} "
                      f"{s['unit']:6s}{extra}")
    out = Path(args.out) if args.out else OUT / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "trajectory.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failed_any else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one run of this workload "
                        "(default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the one run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="suite smoke run: 1 round of 0.2 s")
    parser.add_argument("--out", help="suite result file "
                        "(default bench_e2e/out/latest.json)")
    args = parser.parse_args(argv)
    refuse_plan_cache()
    benchmark = load_benchmark()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(benchmark["run_seconds"])
        return run_one(args, benchmark)
    if args.seconds is not None or args.trace:
        parser.error("--seconds and --trace belong to --workload; the "
                     "suite's run lengths are fixed")
    return run_suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
