#!/usr/bin/env python
"""CI gates on the recorded benchmark numbers: one table, one loop.

The benchmarks in ``WRITERS`` record their numbers as ``BENCH_*.json``
in the repository root (``benchmarks/conftest.py``).  Every row of
``GATES`` is one acceptance bar on one of those files::

    Row(file, path, comparator, bar, reason)

* ``path`` names a number by its keys, dot-separated.  A key may be a
  selector instead: ``*`` is every key at that level, ``*gate`` every
  key whose entry has a true ``gate`` flag, ``*min`` / ``*max`` the
  smallest / largest integer key.  ``a / b`` is the ratio of two
  paths, each first brought to seconds when its last key ends in a
  time unit (``_s``, ``_us``, ``_ns``).
* ``bar`` is a number, another path, or :class:`Tiers` (a bar picked
  by a recorded value, such as the sharded speedup bar by ``cpus``).
* ``*`` and ``*gate`` expand in the first of the row's paths that
  holds one; every other path of the row reads the same keys in the
  same order, so ``a.*.x`` against ``a.*.y`` compares entry by entry.

Every match is checked.  A missing file, a missing key and a path that
matches nothing fail the run, like a number on the wrong side of its
bar.

Usage::

    python benchmarks/check_gates.py [DIR]    # DIR: the repository root
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from typing import NamedTuple

FUSED = "BENCH_fused.json"
FANOUT = "BENCH_fanout.json"
OBS = "BENCH_obs.json"
BULK = "BENCH_bulk.json"
EVOLUTION = "BENCH_evolution.json"
SHARDED = "BENCH_fanout_sharded.json"
CATALOG = "BENCH_catalog.json"

#: the benchmark node ids that write each file (CI runs them in one
#: ``pytest`` call before this script)
WRITERS = {
    FUSED: ("benchmarks/test_ext_fused_codec.py",),
    FANOUT: (
        "benchmarks/test_ext_fanout.py::test_fanout_sweep_recorded",),
    OBS: (
        "benchmarks/test_ext_obs_overhead.py::test_obs_overhead_recorded",),
    BULK: (
        "benchmarks/test_ext_bulk.py::test_bulk_speedup_recorded",
        "benchmarks/test_ext_bulk.py::test_fanout_single_copy_recorded"),
    EVOLUTION: (
        "benchmarks/test_abl_evolution_cost.py"
        "::test_evolution_cost_recorded",),
    SHARDED: (
        "benchmarks/test_ext_fanout_sharded.py"
        "::test_sharded_fanout_sweep_recorded",),
    CATALOG: ("benchmarks/test_ext_catalog.py",),
}


class Tiers(NamedTuple):
    """A bar picked by the value at *path*: the bar of the first
    ``(at_least, bar)`` step that value reaches."""

    path: str
    steps: tuple


class Row(NamedTuple):
    file: str
    path: str
    op: str
    bar: float | str | Tiers
    reason: str


GATES = (
    Row(FUSED, "encode.*gate.speedup", ">=", 1.5,
        "fused encode is >= 1.5x the per-field baseline on the "
        "scalar-run shapes"),

    Row(FANOUT,
        "encode_once.*.per_client_us / encode_once.*min.per_client_us",
        "<=", 2.0,
        "encode-once per-client cost stays flat: <= 2x the N=1 cost"),
    Row(FANOUT, "xml_per_client.*max.total_s / encode_once.*max.total_s",
        ">=", 2.0,
        "XML per client costs >= 2x the encode-once broadcast at the "
        "largest N"),
    Row(FANOUT,
        "encode_per_client.*max.total_s / encode_once.*max.total_s",
        ">=", 1.2,
        "encoding per client costs >= 1.2x the encode-once broadcast at "
        "the largest N"),
    Row(FANOUT, "encode_once.*.records_encoded", "==",
        "encode_once.*.messages",
        "the broadcast encodes each message once, at every N"),
    Row(FANOUT,
        "encode_per_client.*.records_encoded / encode_per_client.*.messages",
        "==", "encode_per_client.*.clients",
        "encoding per client encodes each message once per subscriber"),

    Row(OBS, "encode.*gate.enabled_over_noop", "<=", 1.05,
        "enabled telemetry costs <= 1.05x the no-op encode on the gated "
        "shapes"),
    Row(OBS, "hook_ns / encode.*gate.noop_us", "<=", 0.01,
        "the disabled hook is <= 1% of a no-op encode on the gated "
        "shapes"),

    Row(BULK, "encode.*gate.speedup", ">=", 3.0,
        "bulk encode is >= 3x a Python list from 10 240 elements up"),
    Row(BULK, "encode.*.zero_copy_views", "==", 1,
        "every encode takes one zero-copy view of the array"),
    Row(BULK, "encode.*.moved_once", "==", 1,
        "every encode moves the payload exactly once"),
    Row(BULK, "encode.*.bulk_converts", "==", 0,
        "no encode converts the array"),
    Row(BULK, "encode.*.fallback_arrays", "==", 0,
        "no encode falls off the bulk path"),
    Row(BULK, "decode.*.speedup", ">=", 3.0,
        "view decode is >= 3x list decode + asarray at every size"),
    Row(BULK, "fanout_single_copy.spilled_segments", "==", 1,
        "the 1 MB fan-out payload spills as exactly one zero-copy "
        "segment"),
    Row(BULK, "fanout_single_copy.fallback_arrays", "==", 0,
        "the fan-out payload stays on the bulk path"),
    Row(BULK, "fanout_single_copy.copied_arrays", "==", 0,
        "the codec copies no fan-out array (single-copy contract)"),
    Row(BULK, "fanout_single_copy.copied_bytes", "==", 0,
        "the codec copies no fan-out byte (single-copy contract)"),
    Row(BULK, "fanout_single_copy.speedup", ">=", 3.0,
        "the zero-copy fan-out encode is >= 3x a Python list"),

    Row(EVOLUTION, "sender.*.down_convert_over_native_decode", "<=", 2.0,
        "record-path down-conversion costs <= 2x a native decode"),
    Row(EVOLUTION, "sender.*.relay_convert_over_native_decode", "<=", 5.0,
        "relay (wire-path) down-conversion costs <= 5x a native decode"),

    Row(SHARDED, "matrix.*.*.parent_records_encoded", "==",
        "matrix.*.*.messages",
        "the publisher encodes each record once in every cell"),
    Row(SHARDED, "matrix.*.*.parent_spilled_segments", ">=",
        "matrix.*.*.messages",
        "every grid message spills as a zero-copy segment"),
    Row(SHARDED, "matrix.*.*.worker_records_encoded", "==", 0,
        "shards fan out the publisher's bytes without re-encoding"),
    Row(SHARDED, "matrix.*.*.worker_bulk_ops", "==", 0,
        "shards never touch the bulk codec"),
    Row(SHARDED, "matrix.*.*.frames_dropped", "==", 0,
        "no frame is dropped under the block policy"),
    Row(SHARDED, "matrix.*max.1.total_s / matrix.*max.2.total_s", ">=",
        Tiers("cpus", ((4, 1.6), (0, 0.4))),
        "2 workers are >= 1.6x one worker at the largest fleet with "
        ">= 4 cpus, and never below a 0.4x floor"),
    Row(SHARDED, "matrix.*max.1.total_s / matrix.*max.4.total_s", ">=",
        Tiers("cpus", ((6, 2.5), (0, 0.4))),
        "4 workers are >= 2.5x one worker at the largest fleet with "
        ">= 6 cpus, and never below a 0.4x floor"),
    Row(SHARDED,
        "matrix.*max.*.per_client_us / matrix.*min.*.per_client_us",
        "<=", 3.0,
        "per-client cost at the largest fleet stays <= 3x the smallest "
        "fleet's, at every worker count"),

    Row(CATALOG, "catalog.formats", ">=", 10_000,
        "the catalog covers >= 10k formats"),
    Row(CATALOG, "catalog.deferred_formats", "==", "catalog.formats",
        "the lazy load defers every format"),
    Row(CATALOG, "catalog.lazy_document_compiles", "==", 0,
        "the lazy load never compiles the whole document"),
    Row(CATALOG, "catalog.lazy_compiles_after_bind", ">=", 1,
        "one bind compiles its format lazily"),
    Row(CATALOG, "catalog.lazy_compiles_after_bind", "<=", 3,
        "one bind compiles at most its format and two dependencies"),
    Row(CATALOG, "catalog.first_bind_us / catalog.eager_compile_s", "<=",
        0.02, "binding one format costs <= 2% of the eager catalog "
        "compile"),
    Row(CATALOG, "warm_start.warm_discovery_spans", "==", 0,
        "the warm restart runs no fetch/compile/bind span"),
    Row(CATALOG, "warm_start.warm_disk_hits", ">=", 1,
        "the warm restart reads its format from the disk tier"),
    Row(CATALOG, "warm_start.warm_disk_hits", "==",
        "warm_start.warm_plan_load_spans",
        "every disk-tier hit is a plan_load span"),
    Row(CATALOG, "warm_start.warm_compile_plan_spans", ">=", 1,
        "the warm restart builds its codecs"),
    Row(CATALOG, "warm_start.warm_compile_plan_spans", "==",
        "warm_start.warm_codec_misses",
        "every codec the warm restart builds is on the ledger"),
    Row(CATALOG, "warm_start.warm_registration_us", ">", 0,
        "the warm restart's codec builds show as registration time"),
    Row(CATALOG, "warm_start.cold_warm_ratio", ">=", 1.2,
        "the warm first message is >= 1.2x faster than the cold one"),
)

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
        ">": operator.gt}
_EXPANDING = ("*", "*gate")
_SECONDS = {"s": 1.0, "us": 1e-6, "ns": 1e-9}
#: what reading a key that is not there, or not a number, raises
_UNREADABLE = (KeyError, TypeError, AttributeError, ValueError,
               ZeroDivisionError, StopIteration)


def _order(key: str):
    return (0, int(key), "") if key.isdigit() else (1, 0, key)


def _expand(data, path: str) -> list[tuple]:
    """The key tuples that *path*'s ``*`` and ``*gate`` match."""
    found = [((), data)]
    for seg in path.split("."):
        if seg in _EXPANDING:
            found = [(keys + (key,), node[key]) for keys, node in found
                     for key in sorted(node, key=_order)
                     if seg == "*" or node[key].get("gate")]
        else:
            found = [(keys, node[_key(node, seg)]) for keys, node in found]
    return [keys for keys, _ in found]


def _key(node: dict, seg: str) -> str:
    if seg == "*min":
        return min(node, key=int)
    if seg == "*max":
        return max(node, key=int)
    return seg


def _read(data, path: str, keys: tuple) -> tuple[str, float]:
    """*path*'s concrete name and value, its expanding selectors
    bound to *keys* in order."""
    keys = iter(keys)
    node, names = data, []
    for seg in path.split("."):
        key = next(keys) if seg in _EXPANDING else _key(node, seg)
        node = node[key]
        names.append(key)
    return ".".join(names), node


def _value(data, path: str, keys: tuple) -> tuple[str, float]:
    parts = path.split(" / ")
    if len(parts) == 1:
        return _read(data, path, keys)
    (top, num), (bottom, den) = (_read(data, p, keys) for p in parts)
    unit = _SECONDS.get(top.rsplit("_", 1)[-1], 1.0) / \
        _SECONDS.get(bottom.rsplit("_", 1)[-1], 1.0)
    return f"{top} / {bottom}", num * unit / den


def _bar(data, bar, keys: tuple) -> tuple[str, float]:
    if isinstance(bar, str):
        name, value = _value(data, bar, keys)
        return f"{name} ({value:g})", value
    if isinstance(bar, Tiers):
        name, value = _read(data, bar.path, keys)
        bar = next(b for at_least, b in bar.steps if value >= at_least)
        return f"{bar:g} at {name}={value:g}", bar
    return f"{bar:g}", bar


def matches(row: Row, data) -> list[tuple]:
    """The key tuples *row*'s ``*`` and ``*gate`` selectors match."""
    paths = row.path.split(" / ") + (
        row.bar.split(" / ") if isinstance(row.bar, str) else [])
    for path in paths:
        if any(seg in _EXPANDING for seg in path.split(".")):
            return _expand(data, path)
    return [()]


def check(row: Row, data) -> list[tuple[bool, str]]:
    """``(passed, text)`` for every match of *row* in *data*."""
    try:
        bindings = matches(row, data)
    except _UNREADABLE:
        return [(False, f"{row.path}: missing")]
    if not bindings:
        return [(False, f"{row.path} matches nothing")]
    results = []
    for keys in bindings:
        try:
            name, value = _value(data, row.path, keys)
            bar_name, bar = _bar(data, row.bar, keys)
            results.append((_OPS[row.op](value, bar),
                            f"{name} = {value:g} {row.op} {bar_name}"))
        except _UNREADABLE:
            results.append(
                (False, f"{row.path} at {'.'.join(keys)}: missing"))
    return results


def run(root: Path) -> list[tuple[Row | None, str]]:
    """Check every row against the files under *root*, print each
    check, and return the failures as ``(row, text)``; a missing file
    is ``(None, text)``."""
    failures: list[tuple[Row | None, str]] = []
    loaded: dict[str, object] = {}
    for name, nodes in WRITERS.items():
        path = root / name
        if path.exists():
            loaded[name] = json.loads(path.read_text())
        else:
            failures.append((None, (
                f"{name} missing: run PYTHONPATH=src python -m pytest "
                f"{' '.join(nodes)} -q -o faulthandler_timeout=0")))
    for row in GATES:
        if row.file not in loaded:
            continue
        for passed, text in check(row, loaded[row.file]):
            print(f"{'ok  ' if passed else 'FAIL'}  {row.file:26s} {text}")
            if not passed:
                failures.append((row, f"{row.file} {text}: {row.reason}"))
    return failures


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1]
    failures = run(root)
    if failures:
        print("\nGATE FAILED:")
        for _, text in failures:
            print(f"  - {text}")
        return 1
    print(f"\n{len(GATES)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
