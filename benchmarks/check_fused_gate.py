#!/usr/bin/env python
"""CI regression gate for the fused codec.

Reads ``BENCH_fused.json`` (written when the benchmark suite runs
``benchmarks/test_ext_fused_codec.py``) and fails unless fused encode
is >= ``ENCODE_MIN``x the per-field baseline on every gate shape (the
scalar-run Fig. 7 records).

Usage::

    python benchmarks/check_fused_gate.py [path/to/BENCH_fused.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ENCODE_MIN = 1.5


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1] / "BENCH_fused.json"
    if not path.exists():
        print(f"gate: {path} missing — run the benchmark suite first "
              "(PYTHONPATH=src python -m pytest "
              "benchmarks/test_ext_fused_codec.py)")
        return 2
    data = json.loads(path.read_text())

    failures: list[str] = []
    for shape, m in sorted(data.get("encode", {}).items()):
        line = (f"encode {shape:12s} fused {m['fused_us']:7.2f}us  "
                f"baseline {m['per_field_us']:7.2f}us  "
                f"{m['speedup']:.2f}x" +
                ("" if m.get("gate") else "  (not gated)"))
        print(line)
        if m.get("gate") and m["speedup"] < ENCODE_MIN:
            failures.append(
                f"encode speedup on {shape} is {m['speedup']:.2f}x, "
                f"below the {ENCODE_MIN}x gate")
    for shape, m in sorted(data.get("decode", {}).items()):
        print(f"decode {shape:12s} fused {m['fused_us']:7.2f}us  "
              f"baseline {m['per_field_us']:7.2f}us  "
              f"{m['speedup']:.2f}x")

    if failures:
        print("\nGATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ngate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
