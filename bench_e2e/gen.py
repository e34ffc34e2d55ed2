"""Deterministic inputs for the end-to-end benchmark.

Everything the system under test sees comes from here and depends only
on ``--seed``: the records the streaming workloads send (their schemas
are the fixed documents in ``schemas/``), and for ``cold_start`` a new
schema document per iteration.  A cold-start document is built from one
description (:class:`TypeDesc`) that is rendered twice — as XSD text
for the XMIT discovery path and as PBIO field specs for the compiled-in
path — so the two registration paths the RDM compares operate on the
same formats, and the benchmark can demand identical format IDs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

GRID_CELLS = 262_144          # float32 -> 1 MiB payload
TELEMETRY_SAMPLES = 1024      # doubles, supplied as a Python list
TYPES_PER_DOCUMENT = 5

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(length))


def _f32(rng: random.Random) -> float:
    """A value float32 represents exactly, so decoded == sent."""
    return rng.randrange(-1 << 20, 1 << 20) / 64.0


# ---------------------------------------------------------------------------
# streaming records (schemas/flow.xsd, grid.xsd, telemetry.xsd)
# ---------------------------------------------------------------------------

def flow_record(rng: random.Random) -> dict:
    return {"seq": 0, "timestep": rng.randrange(1 << 20),
            "nx": rng.randrange(1, 4096), "ny": rng.randrange(1, 4096),
            "dx": _f32(rng), "dy": _f32(rng), "dt": rng.random(),
            "viscosity": _f32(rng), "rainfall": _f32(rng),
            "iterations": rng.randrange(1, 64), "elapsed": rng.random()}


def grid_record(rng: random.Random) -> dict:
    cells = np.random.default_rng(rng.getrandbits(64)).random(
        GRID_CELLS, dtype=np.float32)
    return {"seq": 0, "timestep": rng.randrange(1 << 20), "nx": 512,
            "ny": 512, "count": GRID_CELLS, "cells": cells}


def telemetry_record(rng: random.Random) -> dict:
    # fixed-length strings: wire_bytes_per_msg is the same for any seed
    return {"station": _word(rng, 12), "unit": _word(rng, 6), "seq": 0,
            "origin": {"x": rng.random(), "y": rng.random()},
            "gains": [_f32(rng) for _ in range(8)],
            "count": TELEMETRY_SAMPLES,
            "samples": [rng.random() for _ in range(TELEMETRY_SAMPLES)]}


_RECORD_MAKERS = {"Flow": flow_record, "Grid": grid_record,
                  "Telemetry": telemetry_record}


def streaming_records(format_name: str, seed: int, count: int) -> list[dict]:
    """*count* distinct records of *format_name*; the workload cycles
    through them, stamping ``seq`` per message."""
    rng = random.Random(f"{format_name}:{seed}")
    make = _RECORD_MAKERS[format_name]
    return [make(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# cold_start schema documents
# ---------------------------------------------------------------------------

#: xsd datatype -> (PBIO type, element size on the native LP64 model).
#: Written out here, not derived from the library, so the compiled-in
#: specs are an independent statement of what XMIT should produce.
SCALARS: dict[str, tuple[str, int]] = {
    "byte": ("integer", 1), "short": ("integer", 2),
    "int": ("integer", 4), "long": ("integer", 8),
    "unsignedByte": ("unsigned integer", 1),
    "unsignedShort": ("unsigned integer", 2),
    "unsignedInt": ("unsigned integer", 4),
    "unsignedLong": ("unsigned integer", 8),
    "float": ("float", 4), "double": ("double", 8),
    "boolean": ("boolean", 1),
}
_SCALAR_NAMES = tuple(SCALARS)


@dataclass(frozen=True)
class FieldDesc:
    """One element: ``kind`` is scalar / string / fixed / var / nested,
    or ``length`` for the int field that sizes the ``var`` array
    after it.

    ``xsd`` is the datatype local name (or the nested type's name);
    ``dim`` the element count for ``fixed`` and the sizing field's
    name for ``var``."""

    name: str
    kind: str
    xsd: str
    dim: int | str | None = None


@dataclass(frozen=True)
class TypeDesc:
    name: str
    fields: tuple[FieldDesc, ...]


def schema_description(seed: int | str,
                       index: int) -> tuple[TypeDesc, ...]:
    """Five complexTypes, dependencies first; the last one is the
    message type and nests at least one of the others.  Type names
    embed (seed, index), so no two documents of a run — or of two
    runs with different seeds — share a format digest.  (A word for
    a seed gives the documents every run shares: cold_start's
    warm-up.)"""
    rng = random.Random(f"cold:{seed}:{index}")
    types: list[TypeDesc] = []
    for k in range(TYPES_PER_DOCUMENT):
        last = k == TYPES_PER_DOCUMENT - 1
        fields = [FieldDesc("seq", "scalar", "unsignedInt")] if last else []
        # var arrays only in the message type: the decoder resolves a
        # named sizing field against the top-level field list, so a
        # sized array inside a nested type does not decode (README,
        # findings) and the benchmark runs only operations that succeed
        palette = ("scalar", "scalar", "scalar", "string", "fixed",
                   "nested") + (("var", "var") if last else ())
        kinds = [rng.choice(palette)
                 for _ in range(rng.randrange(4, 10))]
        if last and "nested" not in kinds:
            kinds.append("nested")
        for j, kind in enumerate(kinds):
            name = f"f{j}_{_word(rng, 5)}"
            if kind == "nested":
                if not types:
                    kind = "scalar"
                else:
                    fields.append(FieldDesc(name, kind,
                                            rng.choice(types).name))
                    continue
            if kind == "string":
                fields.append(FieldDesc(name, kind, "string"))
                continue
            xsd = rng.choice(_SCALAR_NAMES)
            if kind == "fixed":
                fields.append(FieldDesc(name, kind, xsd,
                                        rng.randrange(2, 17)))
            elif kind == "var":
                fields.append(FieldDesc(f"n_{name}", "length", "int"))
                fields.append(FieldDesc(name, kind, xsd, f"n_{name}"))
            else:
                fields.append(FieldDesc(name, kind, xsd))
        types.append(TypeDesc(f"T{seed}x{index}k{k}{_word(rng, 4)}",
                              tuple(fields)))
    return tuple(types)


def xsd_text(types: tuple[TypeDesc, ...]) -> str:
    lines = ['<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">']
    for t in types:
        lines.append(f'  <xsd:complexType name="{t.name}">')
        for f in t.fields:
            type_attr = f.xsd if f.kind == "nested" else f"xsd:{f.xsd}"
            extra = ""
            if f.kind == "fixed":
                extra = f' maxOccurs="{f.dim}"'
            elif f.kind == "var":
                extra = f' maxOccurs="*" dimensionName="{f.dim}"'
            lines.append(f'    <xsd:element name="{f.name}" '
                         f'type="{type_attr}"{extra} />')
        lines.append("  </xsd:complexType>")
    lines.append("</xsd:schema>")
    return "\n".join(lines) + "\n"


def field_specs(types: tuple[TypeDesc, ...]) -> dict[str, list[tuple]]:
    """``(name, type[, size])`` specs per type, in document order."""
    out: dict[str, list[tuple]] = {}
    for t in types:
        specs: list[tuple] = []
        for f in t.fields:
            if f.kind == "nested":
                specs.append((f.name, f.xsd))
            elif f.kind == "string":
                specs.append((f.name, "string"))
            else:
                base, size = SCALARS[f.xsd]
                dims = "" if f.dim is None else f"[{f.dim}]"
                specs.append((f.name, base + dims, size))
        out[t.name] = specs
    return out


def _scalar_value(rng: random.Random, xsd: str):
    base, size = SCALARS[xsd]
    if base == "boolean":
        return rng.random() < 0.5
    if base == "float":
        return _f32(rng)
    if base == "double":
        return rng.random()
    bits = size * 8
    if base == "integer":
        return rng.randrange(-(1 << (bits - 1)), 1 << (bits - 1))
    return rng.randrange(1 << bits)


def sample_record(types: tuple[TypeDesc, ...], seed: int | str,
                  index: int) -> dict:
    """A record of the document's message type (the last one)."""
    by_name = {t.name: t for t in types}
    rng = random.Random(f"rec:{seed}:{index}")

    def build(t: TypeDesc) -> dict:
        record: dict = {}
        for f in t.fields:
            if f.kind == "nested":
                record[f.name] = build(by_name[f.xsd])
            elif f.kind == "string":
                record[f.name] = _word(rng, rng.randrange(1, 24))
            elif f.kind == "fixed":
                record[f.name] = [_scalar_value(rng, f.xsd)
                                  for _ in range(f.dim)]
            elif f.kind == "var":
                record[f.name] = [_scalar_value(rng, f.xsd)
                                  for _ in range(record[f.dim])]
            elif f.kind == "length":
                record[f.name] = rng.randrange(0, 33)
            else:
                record[f.name] = _scalar_value(rng, f.xsd)
        return record

    record = build(types[-1])
    record["seq"] = index
    return record
