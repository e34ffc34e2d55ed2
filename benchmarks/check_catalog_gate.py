#!/usr/bin/env python
"""CI regression gate for catalog-scale lazy compile and warm start.

Reads ``BENCH_catalog.json`` (written when the benchmark suite runs
``benchmarks/test_ext_catalog.py``) and fails unless the acceptance
thresholds hold:

* the catalog run covered >= 10k formats, every one deferred, with no
  whole-document compile and only the bound format (plus dependencies)
  lazily compiled;
* binding one format cost < 2% of eagerly compiling the catalog;
* the warm restart did no discovery or binding (no fetch / compile /
  bind spans), read its format as a disk-tier hit, accounted for every
  codec it then built (one ``compile_plan`` span and one
  ``repro_codec_plans_total`` miss each, so a registration time that
  is not zero), and reached its first message >=
  ``COLD_WARM_RATIO_MIN``x faster than the cold path.  (Registration
  *time* is reported for both paths but not compared: at 96 fields it
  is ~97% codec compile on either side — XML and schema parsing, which
  is what the warm start skips, open no spans — so the wall-clock
  ratio is the comparison that means something.)

Usage::

    python benchmarks/check_catalog_gate.py [path/to/BENCH_catalog.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FORMATS_MIN = 10_000
LAZY_COMPILES_MAX = 3
FIRST_BIND_FRACTION_MAX = 0.02   # of the eager catalog compile
COLD_WARM_RATIO_MIN = 1.2


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1] / "BENCH_catalog.json"
    if not path.exists():
        print(f"gate: {path} missing — run the benchmark suite first "
              "(PYTHONPATH=src python -m pytest "
              "benchmarks/test_ext_catalog.py)")
        return 2
    data = json.loads(path.read_text())

    failures: list[str] = []
    cat = data.get("catalog", {})
    warm = data.get("warm_start", {})
    if not cat or not warm:
        failures.append("catalog/warm_start sections missing")

    if cat:
        print(f"catalog  {cat['formats']} formats  "
              f"lazy load {cat['lazy_load_s']:.2f}s  "
              f"eager load {cat['eager_load_s']:.2f}s  "
              f"first bind {cat['first_bind_us']:.0f}us")
        if cat["formats"] < FORMATS_MIN:
            failures.append(
                f"catalog covered {cat['formats']} formats, below "
                f"the {FORMATS_MIN} gate")
        if cat["deferred_formats"] != cat["formats"]:
            failures.append(
                f"only {cat['deferred_formats']} of {cat['formats']} "
                "formats were deferred")
        if cat["lazy_document_compiles"] != 0:
            failures.append(
                "lazy load performed a whole-document compile")
        if not 1 <= cat["lazy_compiles_after_bind"] \
                <= LAZY_COMPILES_MAX:
            failures.append(
                f"{cat['lazy_compiles_after_bind']} lazy compiles "
                f"after one bind (expected 1..{LAZY_COMPILES_MAX})")
        bind_fraction = cat["first_bind_us"] / \
            (cat["eager_compile_s"] * 1e6)
        if bind_fraction > FIRST_BIND_FRACTION_MAX:
            failures.append(
                f"first bind cost {bind_fraction:.1%} of the eager "
                f"catalog compile (gate "
                f"{FIRST_BIND_FRACTION_MAX:.0%})")

    if warm:
        print(f"warm     cold {warm['cold_first_message_us']:.0f}us  "
              f"warm {warm['warm_first_message_us']:.0f}us  "
              f"ratio {warm['cold_warm_ratio']:.2f}x  "
              f"registration {warm['cold_registration_us']:.0f}us -> "
              f"{warm['warm_registration_us']:.0f}us")
        if warm["warm_discovery_spans"] != 0:
            failures.append(
                f"warm restart ran {warm['warm_discovery_spans']} "
                "fetch/compile/bind spans (expected 0)")
        if not 1 <= warm["warm_disk_hits"] == \
                warm["warm_plan_load_spans"]:
            failures.append(
                "warm restart did not read its format from the disk "
                f"tier (hits={warm['warm_disk_hits']}, "
                f"loads={warm['warm_plan_load_spans']})")
        if not 1 <= warm["warm_compile_plan_spans"] == \
                warm["warm_codec_misses"]:
            failures.append(
                "warm restart's codec builds are not all on the "
                f"ledger (compile_plan spans="
                f"{warm['warm_compile_plan_spans']}, codec misses="
                f"{warm['warm_codec_misses']})")
        if warm["warm_registration_us"] <= 0:
            failures.append(
                "warm restart built codecs but reports no "
                "registration time")
        if warm["cold_warm_ratio"] < COLD_WARM_RATIO_MIN:
            failures.append(
                f"cold/warm first-message ratio "
                f"{warm['cold_warm_ratio']:.2f}x is below the "
                f"{COLD_WARM_RATIO_MIN}x gate")

    if failures:
        print("\ngate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ngate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
