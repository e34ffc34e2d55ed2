#!/usr/bin/env python3
"""Which functions of ``src/repro`` does a system entry point reach?

Runs two suites with every Python process profiled (``sys.setprofile``
and ``threading.setprofile``, installed by a ``sitecustomize`` shim put
first on ``PYTHONPATH`` so spawned children are traced too) and records
each ``src/repro`` function that was called at least once:

* **system** -- every ``examples/*.py``, each ``bench_e2e`` workload
  (one short untraced and one traced run), ``pytest benchmarks``,
  ``xmitgen`` for all four source targets and ``obsdump --pipeline``;
* **tier1** -- ``pytest tests`` (without ``-x``: under the profiler a
  wall-clock-bounded test or two may miss its bound).

Then prints, per module, the function-body lines reached by the system,
by tier-1 only, and by neither, and lists every function neither suite
reached.  A line belongs to the innermost function that contains it.

    python scripts/reach.py           # both suites, then the table
    python scripts/reach.py --report  # table from the saved traces

Traces go to ``reach-out/`` (``--out`` moves them).  The benchmark sweep
rewrites the tracked ``BENCH_*.json`` files; they are restored after.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("stream_small", "stream_grid", "stream_mixed_hetero",
             "fanout_small", "cold_start")

SHIM = '''\
import atexit, os, sys, threading
_out = os.environ.get("REPRO_REACH_OUT")
if _out:
    _seen = set()
    def _profile(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)
    def _dump():
        sys.setprofile(None)
        rows = {f"{c.co_filename}\\t{c.co_firstlineno}" for c in _seen}
        with open(os.path.join(_out, f"{os.getpid()}.txt"), "a") as fh:
            fh.write("\\n".join(sorted(rows)) + "\\n")
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)
'''


def system_commands(scratch: Path) -> list[list[str]]:
    py = sys.executable
    cmds = [[py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmds.append([py, "bench_e2e/run.py", "--workload", workload,
                         "--seconds", "0.3", "--trace", trace])
    cmds.append([py, "-m", "pytest", "benchmarks", "-q",
                 "--benchmark-disable", "-p", "no:cacheprovider",
                 "-o", "faulthandler_timeout=0"])
    cmds.append([py, "-m", "repro.tools.xmitgen",
                 "bench_e2e/schemas/flow.xsd", "-t", "c", "-t", "cpp",
                 "-t", "java", "-t", "idl", "-o", str(scratch / "gen")])
    cmds.append([py, "-m", "repro.tools.obsdump", "--pipeline"])
    return cmds


def tier1_commands() -> list[list[str]]:
    return [[sys.executable, "-m", "pytest", "tests", "-q",
             "-p", "no:cacheprovider"]]


def run_suite(name: str, out: Path) -> None:
    trace_dir = out / name
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.txt"):
        old.unlink()
    benches = {p: p.read_bytes() for p in ROOT.glob("BENCH_*.json")}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        (scratch / "sitecustomize.py").write_text(SHIM)
        env = dict(os.environ, REPRO_REACH_OUT=str(trace_dir),
                   PYTHONPATH=os.pathsep.join([str(scratch), str(SRC)]))
        try:
            cmds = (system_commands(scratch) if name == "system"
                    else tier1_commands())
            for cmd in cmds:
                print(f"[{name}] {' '.join(cmd[1:])}", file=sys.stderr)
                code = subprocess.call(cmd, cwd=ROOT, env=env,
                                       stdout=subprocess.DEVNULL)
                if code:
                    print(f"[{name}]   exit {code}", file=sys.stderr)
        finally:
            for path, data in benches.items():
                path.write_bytes(data)


def reached(trace_dir: Path) -> set[tuple[str, int]]:
    """``(path relative to src, first line)`` of every traced code."""
    prefix = str(SRC) + os.sep
    seen = set()
    for dump in trace_dir.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename.startswith(prefix):
                seen.add((filename[len(prefix):], int(lineno)))
    return seen


def functions() -> list[tuple[str, str, set[int], int]]:
    """``(module path, qualified name, first lines, own body lines)``
    for every function in ``src/repro``; a line counts for the
    innermost function around it."""
    result = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = str(path.relative_to(SRC))
        owner: dict[int, int] = {}
        defs = []

        def visit(node, qual):
            for child in ast.iter_child_nodes(node):
                name = qual
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{qual}{child.name}"
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    index = len(defs)
                    firsts = {child.lineno} | {
                        d.lineno for d in child.decorator_list}
                    defs.append((name, firsts))
                    for line in range(child.lineno, child.end_lineno + 1):
                        owner[line] = index
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, name + ".")
                else:
                    visit(child, qual)

        visit(ast.parse(path.read_text(), rel), "")
        sizes = defaultdict(int)
        for index in owner.values():
            sizes[index] += 1
        for index, (name, firsts) in enumerate(defs):
            result.append((rel, name, firsts, sizes[index]))
    return result


def report(out: Path) -> None:
    system, tier1 = reached(out / "system"), reached(out / "tier1")
    rows = defaultdict(lambda: [0, 0, 0, 0])
    neither = []
    for module, name, firsts, lines in functions():
        keys = {(module, line) for line in firsts}
        column = (1 if keys & system else 2 if keys & tier1 else 3)
        for key in (module, module.rsplit("/", 1)[0] + "/", "total"):
            rows[key][0] += lines
            rows[key][column] += lines
        if column == 3:
            neither.append(f"{module}:{min(firsts)} {name} ({lines})")
    head = f"{'':44s} {'lines':>6s} {'system':>7s} {'tier1':>6s} {'neither':>7s}"
    for title, keys in (
            ("per module", [k for k in rows if k.endswith(".py")]),
            ("per package", [k for k in rows if k.endswith("/")])):
        print(f"{title}\n{head}")
        for key in sorted(keys) + ["total"]:
            print(f"{key:44s} " + " ".join(
                f"{n:>{w}d}" for n, w in zip(rows[key], (6, 7, 6, 7))))
        print()
    print(f"reached by neither suite: {len(neither)} functions")
    for line in neither:
        print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "reach-out")
    parser.add_argument("--report", action="store_true",
                        help="print the table from saved traces only")
    args = parser.parse_args(argv)
    if not args.report:
        run_suite("system", args.out)
        run_suite("tier1", args.out)
    report(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
