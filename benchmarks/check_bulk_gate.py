#!/usr/bin/env python
"""CI regression gate for the zero-copy bulk-array fast path.

Reads ``BENCH_bulk.json`` (written when the benchmark suite runs
``benchmarks/test_ext_bulk.py``) and fails unless the acceptance
thresholds hold:

* bulk encode >= ``SPEEDUP_MIN``x the same payload supplied as a
  Python list on every row marked ``gate`` (10 240 elements and up,
  where a memcpy against an object walk is structural).  A list
  crosses the codec in one ``struct`` call per run, so on the
  1024-element row the ratio says more about the comparator than
  about the bulk path: that row is printed un-gated and proven by
  counters instead — one zero-copy view, payload moved exactly once,
  no convert, no fallback;
* view decode-to-numpy >= ``SPEEDUP_MIN``x list decode + asarray on
  every array size;
* the ~1 MB fan-out payload moved as exactly one zero-copy spill
  segment with zero codec-side copies (counter proof, not timing).

Usage::

    python benchmarks/check_bulk_gate.py [path/to/BENCH_bulk.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEEDUP_MIN = 3.0


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1] / "BENCH_bulk.json"
    if not path.exists():
        print(f"gate: {path} missing — run the benchmark suite first "
              "(PYTHONPATH=src python -m pytest "
              "benchmarks/test_ext_bulk.py)")
        return 2
    data = json.loads(path.read_text())

    failures: list[str] = []
    encode = data.get("encode", {})
    decode = data.get("decode", {})
    if not encode or not decode:
        failures.append("encode/decode rows missing from metrics")
    for key, m in sorted(encode.items(), key=lambda kv: int(kv[0])):
        print(f"encode {m['elements']:7d} el  "
              f"bulk {m['bulk_us']:8.2f}us  "
              f"list {m['per_element_us']:9.2f}us  "
              f"{m['speedup']:.1f}x"
              f"{'' if m['gate'] else '  (ratio not gated)'}  "
              f"views={m['zero_copy_views']} moved={m['moved_once']} "
              f"converts={m['bulk_converts']} "
              f"fallback={m['fallback_arrays']}")
        if m["gate"] and m["speedup"] < SPEEDUP_MIN:
            failures.append(
                f"encode speedup at {key} elements is "
                f"{m['speedup']:.2f}x, below the {SPEEDUP_MIN}x gate")
        if (m["zero_copy_views"], m["moved_once"], m["bulk_converts"],
                m["fallback_arrays"]) != (1, 1, 0, 0):
            failures.append(
                f"encode at {key} elements left the bulk path: "
                f"{m['zero_copy_views']} views, payload moved "
                f"{m['moved_once']}x, {m['bulk_converts']} converts, "
                f"{m['fallback_arrays']} fallbacks (want 1/1/0/0)")
    for key, m in sorted(decode.items(), key=lambda kv: int(kv[0])):
        print(f"decode {m['elements']:7d} el  "
              f"view {m['view_us']:8.2f}us  "
              f"baseline {m['list_asarray_us']:9.2f}us  "
              f"{m['speedup']:.1f}x")
        if m["speedup"] < SPEEDUP_MIN:
            failures.append(
                f"decode speedup at {key} elements is "
                f"{m['speedup']:.2f}x, below the {SPEEDUP_MIN}x gate")

    fanout = data.get("fanout_single_copy")
    if fanout is None:
        failures.append("fanout_single_copy missing from metrics")
    else:
        print(f"fanout {fanout['elements']:7d} el "
              f"({fanout['payload_bytes']:,} B)  "
              f"parts {fanout['parts_join_us']:8.2f}us  "
              f"list {fanout['per_element_us']:9.2f}us  "
              f"{fanout['speedup']:.1f}x  "
              f"segments={fanout['spilled_segments']} "
              f"copies={fanout['copied_arrays']}")
        if fanout["spilled_segments"] != 1:
            failures.append(
                f"fan-out payload spilled as "
                f"{fanout['spilled_segments']} segments, expected "
                f"exactly 1")
        if fanout["fallback_arrays"] != 0:
            failures.append(
                f"fan-out payload fell off the bulk path "
                f"({fanout['fallback_arrays']} fallbacks)")
        if fanout["copied_arrays"] != 0 or fanout["copied_bytes"] != 0:
            failures.append(
                f"fan-out payload was copied by the codec "
                f"({fanout['copied_arrays']} arrays, "
                f"{fanout['copied_bytes']} bytes) — single-copy "
                f"contract broken")
        if fanout["speedup"] < SPEEDUP_MIN:
            failures.append(
                f"fan-out speedup is {fanout['speedup']:.2f}x, below "
                f"the {SPEEDUP_MIN}x gate")

    if failures:
        print("\nGATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ngate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
