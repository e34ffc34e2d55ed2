"""Golden wire-vector definitions.

Each case pins one format plus one deterministic record; the stored
hex in ``vectors.json`` is the exact wire (header + body) the encoder
must produce for it on each simulated byte order.  Regenerate with
``python tests/golden/regen.py`` after an *intentional* wire change —
an unintentional diff here is a wire-compatibility break.
"""

from __future__ import annotations

import array
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.hydrology.formats import GAUGE_COUNT, hydrology_field_specs
from repro.pbio.encode import RecordEncoder
from repro.pbio.format import IOFormat
from repro.pbio.layout import compute_layout
from repro.pbio.machine import SPARC_V9, X86_64

#: byte-order label -> simulated architecture
ARCHITECTURES = {"little": X86_64, "big": SPARC_V9}

VECTORS_PATH = Path(__file__).with_name("vectors.json")

_POINT3 = [("x", "double"), ("y", "double"), ("z", "double")]

#: Non-hydrology cases: specs, optional subformats/enums, the record.
_EXTRA_CASES: dict[str, dict] = {
    # an ECho-style event: string + fused unsigned run + enum +
    # self-sized char payload
    "EchoEvent": {
        "specs": [
            ("channel", "string"),
            ("sequence", "unsigned integer", 8),
            ("timestamp", "unsigned integer", 8),
            ("kind", "enumeration", 4),
            ("payload", "char[*]"),
        ],
        "enums": {"kind": ("OPEN", "DATA", "CLOSE")},
        "record": {
            "channel": "wx/updates",
            "sequence": 7,
            "timestamp": 1_700_000_000,
            "kind": "DATA",
            "payload": b"\x01\x02\x03\x04",
        },
    },
    # nested subformat, fixed subformat array, dimensionName var-array
    "NestedTelemetry": {
        "specs": [
            ("tag", "integer", 4),
            ("origin", "Point3"),
            ("trail", "Point3[2]"),
            ("n", "integer", 4),
            ("weights", "double[n]", 8),
        ],
        "subformats": {"Point3": _POINT3},
        "record": {
            "tag": 9,
            "origin": {"x": 1.0, "y": -2.5, "z": 0.125},
            "trail": [
                {"x": 0.0, "y": 0.5, "z": 1.5},
                {"x": -1.0, "y": 2.0, "z": -3.5},
            ],
            "n": 3,
            "weights": [0.25, 0.5, 0.75],
        },
    },
    # every dynamic-array spelling in one record
    "VarArrays": {
        "specs": [
            ("label", "string"),
            ("n", "integer", 4),
            ("values", "float[n]", 4),
            ("extra", "double[*]", 8),
        ],
        "record": {
            "label": "gauges",
            "n": 4,
            "values": [0.5, 1.5, -2.25, 8.0],
            "extra": [3.141592653589793, -0.001],
        },
    },
    # a var array sized by a field of its own nested type, with a
    # same-named field in the enclosing record to shadow it
    "NestedSizing": {
        "specs": [
            ("id", "integer", 4),
            ("n", "integer", 4),
            ("p", "Sized"),
        ],
        "subformats": {"Sized": [("n", "integer", 4),
                                 ("pad", "integer", 4),
                                 ("v", "float[n]", 4)]},
        "record": {
            "id": 7, "n": 9,
            "p": {"n": 3, "pad": 1, "v": [1.0, 2.0, 3.0]},
        },
    },
    # list-shaped inputs struct refuses or that are not lists at all:
    # tuple, range, enum names, numpy scalars, bools / truthy values.
    # Pinned from the commit before the list path went through struct
    # (PR 22), so the tolerant route provably writes the same bytes.
    "TolerantLists": {
        "specs": [
            ("n", "integer", 4),
            ("ranged", "integer[n]", 4),
            ("pair", "double[2]", 8),
            ("modes", "enumeration[3]", 4),
            ("flags", "boolean[4]", 1),
            ("halves", "double[*]", 8),
            ("wide", "integer[2]", 8),
            ("bits", "unsigned integer[3]", 2),
        ],
        "enums": {"modes": ("IDLE", "RUN", "HALT")},
        "record": {
            "n": 5,
            "ranged": range(-2, 3),
            "pair": (0.5, -1.25),
            "modes": ["RUN", 2, "IDLE"],
            "flags": [True, 0, "yes", None],
            "halves": [np.float32(0.1), np.float32(-2.5), 3],
            "wide": [np.int64(-(2 ** 40)), np.int64(7)],
            "bits": [True, False, 65535],
        },
    },
    # mixed scalar sizes: alignment holes become struct pad codes
    "MixedRuns": {
        "specs": [
            ("a", "integer", 2),
            ("b", "integer", 4),
            ("c", "double"),
            ("flag", "boolean"),
            ("ch", "char"),
            ("u", "unsigned integer", 8),
        ],
        "record": {
            "a": -7, "b": 123456, "c": 2.5,
            "flag": True, "ch": "Q", "u": 2 ** 40 + 5,
        },
    },
}

#: Deterministic records for the shared hydrology formats.
_HYDROLOGY_RECORDS: dict[str, dict] = {
    "SimpleData": {
        "timestep": 42, "size": 3, "data": [0.5, -1.25, 3.75],
    },
    "JoinRequest": {
        "name": "gauge-07", "server": 1, "ip_addr": 3232235777,
        "pid": 1234, "ds_addr": 281474976710655,
    },
    "FlowParams": {
        "timestep": 3, "nx": 64, "ny": 64, "dx": 30.0, "dy": 30.0,
        "dt": 1.5, "viscosity": 0.125, "rainfall": 0.0625,
        "iterations": 100, "flags": 0, "elapsed": 12.5,
    },
    "GridMeta": {
        "timestep": 3, "nx": 64, "ny": 64, "west": 0.0, "east": 1920.0,
        "south": 0.0, "north": 1920.0, "cell_size": 30.0,
        "no_data": -9999.0, "min_depth": 0.0, "max_depth": 2.5,
        "mean_depth": 0.25, "total_volume": 1234.5,
        "gauge_count": GAUGE_COUNT,
        "gauges": [i / 4 for i in range(GAUGE_COUNT)],
    },
    "ControlMsg": {
        "command": "set_viscosity", "target": "flow2d",
        "timestep": 5, "value": 0.375,
    },
}

#: Case name -> batch of records locked as one shared-header batch
#: vector (exercises the DATA_BATCH payload layout byte for byte).
_BATCH_CASES: dict[str, str] = {"SimpleData__batch": "SimpleData"}


def _bulk_ints(count: int) -> list[int]:
    """Deterministic int32 walk covering sign and magnitude."""
    return [((i * 2654435761 + 97) % (1 << 32)) - (1 << 31)
            for i in range(count)]


def _bulk_floats(count: int) -> list[float]:
    """Deterministic float32-exact values (IEEE-representable)."""
    return (np.arange(count, dtype=np.float32) * np.float32(0.375)
            - np.float32(1017.5)).tolist()


def _bulk_doubles(count: int) -> list[float]:
    """Deterministic float64 values built from exact dyadics."""
    return (np.arange(count, dtype=np.float64) * 0.001953125
            - 3.25).tolist()


#: Bulk-array cases: large fixed-stride payloads pinning the zero-copy
#: fast path to the element-wise wire bytes.  ``arrays`` maps each
#: array field to (native numpy dtype, array.array typecode), the two
#: typed sources the bulk path accepts.  Records are built as plain
#: lists so the stored vector is what the per-element baseline writes.
_BULK_CASES: dict[str, dict] = {
    "BulkInt32_1k": {
        "specs": [("n", "integer", 4), ("values", "integer[n]", 4)],
        "arrays": {"values": ("i4", "i")},
        "build": lambda: {"n": 1024, "values": _bulk_ints(1024)},
    },
    "BulkFloat_1k": {
        "specs": [("label", "string"), ("n", "integer", 4),
                  ("values", "float[n]", 4)],
        "arrays": {"values": ("f4", "f")},
        "build": lambda: {"label": "grid-f32", "n": 1024,
                          "values": _bulk_floats(1024)},
    },
    "BulkDouble_1k": {
        # self-sized: exercises the count prefix + alignment pad
        "specs": [("label", "string"), ("extra", "double[*]", 8)],
        "arrays": {"extra": ("f8", "d")},
        "build": lambda: {"label": "grid-f64",
                          "extra": _bulk_doubles(1024)},
    },
    "BulkInt32_64k": {
        "specs": [("n", "integer", 4), ("values", "integer[n]", 4)],
        "arrays": {"values": ("i4", "i")},
        "build": lambda: {"n": 65536, "values": _bulk_ints(65536)},
    },
    "BulkFloat_64k": {
        "specs": [("label", "string"), ("n", "integer", 4),
                  ("values", "float[n]", 4)],
        "arrays": {"values": ("f4", "f")},
        "build": lambda: {"label": "grid-f32", "n": 65536,
                          "values": _bulk_floats(65536)},
    },
    "BulkDouble_64k": {
        "specs": [("label", "string"), ("extra", "double[*]", 8)],
        "arrays": {"extra": ("f8", "d")},
        "build": lambda: {"label": "grid-f64",
                          "extra": _bulk_doubles(65536)},
    },
}

#: Cases whose wire is too large to store as hex: ``vectors.json``
#: keeps ``{"sha256", "nbytes"}`` instead — equally drift-proof.
DIGEST_CASES = frozenset(name for name in _BULK_CASES
                         if name.endswith("_64k"))


def vector_entry(wire: bytes, case: str):
    """The ``vectors.json`` entry for *wire*: hex, or a digest record
    for :data:`DIGEST_CASES`."""
    if case in DIGEST_CASES:
        return {"sha256": hashlib.sha256(wire).hexdigest(),
                "nbytes": len(wire)}
    return wire.hex()


def entry_matches(entry, wire: bytes) -> bool:
    """True when *wire* is the exact bytes a stored entry pins."""
    if isinstance(entry, dict):
        return (entry.get("nbytes") == len(wire) and entry.get("sha256")
                == hashlib.sha256(wire).hexdigest())
    return entry == wire.hex()


def bulk_case_names() -> list[str]:
    return sorted(_BULK_CASES)


def bulk_record(case: str, source: str) -> dict:
    """The bulk case's record with array payloads as *source*:
    ``"list"`` (baseline), ``"ndarray"`` (native-order numpy) or
    ``"array"`` (stdlib ``array.array``)."""
    record = case_record(case)
    for fname, (dt, typecode) in _BULK_CASES[case]["arrays"].items():
        if source == "ndarray":
            record[fname] = np.asarray(record[fname], dtype=dt)
        elif source == "array":
            record[fname] = array.array(typecode, record[fname])
        elif source != "list":
            raise ValueError(f"unknown bulk source {source!r}")
    return record


def case_names() -> list[str]:
    return (sorted(_HYDROLOGY_RECORDS) + sorted(_EXTRA_CASES)
            + sorted(_BATCH_CASES) + bulk_case_names())


def build_format(case: str, architecture) -> IOFormat:
    base = _BATCH_CASES.get(case, case)
    if base in _HYDROLOGY_RECORDS:
        specs = hydrology_field_specs(architecture)[base]
        layout = compute_layout(specs, architecture=architecture)
        return IOFormat(base, layout.field_list)
    if base in _BULK_CASES:
        layout = compute_layout(_BULK_CASES[base]["specs"],
                                architecture=architecture)
        return IOFormat(base, layout.field_list)
    spec = _EXTRA_CASES[base]
    subformats = {
        name: compute_layout(sub, architecture=architecture).field_list
        for name, sub in spec.get("subformats", {}).items()}
    layout = compute_layout(spec["specs"], architecture=architecture,
                            subformats=subformats or None)
    return IOFormat(base, layout.field_list, spec.get("enums"))


def case_record(case: str) -> dict:
    base = _BATCH_CASES.get(case, case)
    if base in _HYDROLOGY_RECORDS:
        return dict(_HYDROLOGY_RECORDS[base])
    if base in _BULK_CASES:
        return _BULK_CASES[base]["build"]()
    return dict(_EXTRA_CASES[base]["record"])


def encode_case(case: str, architecture, *, fuse: bool = True) -> bytes:
    """The full wire bytes for *case* on *architecture*."""
    fmt = build_format(case, architecture)
    encoder = RecordEncoder(fmt, fuse=fuse)
    record = case_record(case)
    if case in _BATCH_CASES:
        batch = [dict(record, timestep=t) for t in range(3)]
        return encoder.encode_batch(batch)
    return encoder.encode_wire(record)


def compute_vectors() -> dict[str, dict]:
    """All golden vectors as {case: {order: hex-or-digest}}."""
    return {case: {order: vector_entry(encode_case(case, arch), case)
                   for order, arch in ARCHITECTURES.items()}
            for case in case_names()}


def load_vectors() -> dict[str, dict[str, str]]:
    with VECTORS_PATH.open() as fh:
        return json.load(fh)
