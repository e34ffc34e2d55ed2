#!/usr/bin/env python3
"""Compare two suite results: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians over rounds,
their quartiles, the ratio B/A with its base, and a verdict using the
metric's bound from ``BENCHMARK.json``:

* ``better`` / ``worse`` — B's median differs from A's by more than
  the bound, and by more than either set's own inter-quartile spread;
* ``same`` — within the bound, and both sets' spreads are within it too;
* ``unresolved`` — the sets' own spread exceeds the bound (or the
  difference), so the run cannot tell.

Exit status is 1 on any ``worse`` row or a higher ``fail_ratio``, and
2 — nothing compared — when the two results were not run with the same
seed, round count and run lengths.  ``--self`` runs the suite twice on
the current tree (two processes, same seed) and compares the two: the
check that the benchmark agrees with itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> dict:
    med_a, med_b = median(a), median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / med_a, (b3 - b1) / med_b)
    # positive = B is worse than A, as a share of A
    worse_by = (med_b - med_a) / med_a
    if better == "higher":
        worse_by = -worse_by
    if abs(worse_by) > bound:
        word = "unresolved" if abs(worse_by) <= spread else \
            ("worse" if worse_by > 0 else "better")
    else:
        word = "same" if spread <= bound else "unresolved"
    return {"a": med_a, "a_q": (a1, a3), "b": med_b, "b_q": (b1, b3),
            "ratio": med_b / med_a, "spread": spread, "verdict": word}


#: what two results must share before their numbers mean the same
SAME_RUN = ("seed", "rounds", "round_seconds", "traced_seconds")


def compare(doc_a: dict, doc_b: dict, benchmark: dict) -> tuple[list, bool]:
    differ = {key: (doc_a["envelope"][key], doc_b["envelope"][key])
              for key in SAME_RUN
              if doc_a["envelope"][key] != doc_b["envelope"][key]}
    if differ:
        raise ValueError(f"results were not run alike (A, B): {differ}")
    rows, failed = [], False
    for workload in (w["name"] for w in benchmark["workloads"]):
        wa, wb = doc_a["workloads"][workload], doc_b["workloads"][workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(wa["end_to_end"][name]["values"],
                          wb["end_to_end"][name]["values"],
                          metric["better"], metric["bound"])
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
            failed |= row["verdict"] == "worse"
        higher = wb["fail_ratio"] > wa["fail_ratio"]
        rows.append({"workload": workload, "metric": "fail_ratio",
                     "unit": "ratio", "a": wa["fail_ratio"],
                     "b": wb["fail_ratio"], "bound": 0.0,
                     "verdict": "worse" if higher else "same"})
        failed |= higher
    return rows, failed


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':20s} {'A median [q1, q3]':>38s} "
             f"{'B median [q1, q3]':>38s} {'B/A':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        if "a_q" not in row:
            a, b, ratio = f"{row['a']:.6f}", f"{row['b']:.6f}", ""
        else:
            a = (f"{row['a']:.4g} [{row['a_q'][0]:.4g}, "
                 f"{row['a_q'][1]:.4g}] {row['unit']}")
            b = (f"{row['b']:.4g} [{row['b_q'][0]:.4g}, "
                 f"{row['b_q'][1]:.4g}] {row['unit']}")
            ratio = f"{row['ratio']:.3f}"
        lines.append(f"{row['workload']:20s} {row['metric']:20s} {a:>38s} "
                     f"{b:>38s} {ratio:>7s} {row['bound']:6.2g}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def run_suite(out: Path, passthrough: list[str]) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--out", str(out),
                    *passthrough], check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULT.json")
    parser.add_argument("--self", action="store_true", dest="self_",
                        help="run the suite twice and compare")
    parser.add_argument("--seed", help="with --self: the suite's seed")
    parser.add_argument("--quick", action="store_true",
                        help="with --self: the suite's smoke run")
    args = parser.parse_args(argv)
    if args.self_ == bool(args.files) or len(args.files) not in (0, 2):
        parser.error("give two result files, or --self")
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.self_:
        passthrough = (["--seed", args.seed] if args.seed else []) + \
            (["--quick"] if args.quick else [])
        doc_a = run_suite(HERE / "out" / "self-a.json", passthrough)
        doc_b = run_suite(HERE / "out" / "self-b.json", passthrough)
    else:
        doc_a, doc_b = (json.loads(Path(f).read_text(encoding="utf-8"))
                        for f in args.files)
    try:
        rows, failed = compare(doc_a, doc_b, benchmark)
    except ValueError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
