"""Streamed front-end against tree replay (``differential.py``).

Three sources of documents: schemas Hypothesis builds and
``schema.emitter`` renders; every schema text the other tests in this
directory parse (``conftest.py`` routes them through the same check);
and a seeded mutation smoke over ``bench_e2e``'s cold-start warm-up
documents -- byte flips, truncation, duplicated and re-prefixed
attributes, dropped ``xmlns``, tabs in values, ``&`` and entities.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.schema.datatypes import is_primitive
from repro.schema.emitter import emit_schema
from repro.schema.model import (
    ArraySpec, ComplexType, ElementDecl, EnumerationType, FIXED, Schema,
    VARIABLE,
)
from repro.schema.parser import parse_schema
from repro.xmlcore import serialize
from tests.schema.differential import both

PRIMITIVES = ("int", "unsignedInt", "short", "long", "float", "double",
              "string", "boolean", "byte", "unsignedLong")
_words = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,5}", fullmatch=True)


@st.composite
def schemas(draw) -> Schema:
    schema = Schema(target_namespace=draw(st.sampled_from([None,
                                                           "urn:t"])))
    for i in range(draw(st.integers(0, 2))):
        values = draw(st.lists(_words, min_size=1, max_size=4,
                               unique=True))
        schema.add(EnumerationType(name=f"E{i}", values=tuple(values)))
    for i in range(draw(st.integers(1, 3))):
        names = draw(st.lists(_words, min_size=1, max_size=6, unique=True))
        decls, ints = [], []
        for name in names:
            type_name = draw(st.sampled_from(
                [*PRIMITIVES, *schema.enumerations,
                 *schema.complex_types]))
            array = draw(st.sampled_from(["scalar", "fixed", "var"]))
            if array == "fixed" and type_name != "string":
                spec = ArraySpec(kind=FIXED, size=draw(st.integers(2, 5)))
            elif array == "var" and ints:
                spec = ArraySpec(kind=VARIABLE, length_field=ints[0],
                                 placement="before")
            elif array == "var":
                spec = ArraySpec(kind=VARIABLE)
            else:
                spec = ArraySpec()
                if type_name == "int":
                    ints.append(name)
            decls.append(ElementDecl(
                name=name, type_name=type_name, array=spec,
                min_occurs=draw(st.sampled_from([0, 1]))
                if not spec.is_array else 1))
        documentation = draw(st.sampled_from([None, "About it.",
                                              "a < b & c"]))
        schema.add(ComplexType(name=f"T{i}", elements=tuple(decls),
                               documentation=documentation))
    assert not any(is_primitive(name) for name in schema.complex_types)
    schema.check_references()
    return schema


@settings(max_examples=30, deadline=None)
@given(schemas())
def test_emitted_schemas_agree_and_round_trip(schema):
    tree = emit_schema(schema)
    streamed, replayed = both(serialize(tree, indent="  ").encode())
    assert streamed == replayed == parse_schema(tree) == schema


# -- mutation smoke -----------------------------------------------------------

MUTATIONS = 2000


def warmup_documents() -> list[bytes]:
    path = Path(__file__).resolve().parents[2] / "bench_e2e" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_e2e_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [gen.xsd_text(gen.schema_description("warmup", i)).encode()
            for i in range(20)]


_ATTRIBUTE = re.compile(rb' ([\w:]+)="([^"]*)"')
_NOISE = [b"<", b">", b"&", b'"', b"'", b"=", b":", b"/", b"\t", b"\n",
          b"\x00", b"\xc3\xa9", b"\xff", b"]]>", b"<!--", b"?"]
_REFERENCES = [b"&amp;", b"&lt;", b"&#x41;", b"&#0;", b"&bogus;", b"&",
               b"&unit;", b"&#xD800;"]
_DOCTYPE = b'<!DOCTYPE xsd:schema [<!ENTITY unit "m&amp;s">]>\n'


def mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.randrange(8)
    attributes = list(_ATTRIBUTE.finditer(data)) if kind in (2, 3, 6) \
        else ()
    if kind == 0:  # byte flip
        i = rng.randrange(len(data))
        return data[:i] + rng.choice(_NOISE) + data[i + 1:]
    if kind == 1:
        return data[:rng.randrange(len(data))]
    if kind == 2 and attributes:  # duplicated (maybe re-prefixed)
        attr = rng.choice(attributes)
        copy = attr.group(0).replace(
            b" ", rng.choice([b" ", b" xsd:", b" o:", b" xmlns:"]), 1)
        return data[:attr.end()] + copy + data[attr.end():]
    if kind == 3 and attributes:  # re-prefixed attribute
        attr = rng.choice(attributes)
        prefix = rng.choice([b"xsd:", b"nope:", b"xml:", b"xmlns:"])
        return data[:attr.start(1)] + prefix + data[attr.start(1):]
    if kind == 4:  # re-prefixed, or wrongly bound, element names
        old = rng.choice([b"xsd:element", b"xsd:complexType",
                          b'xmlns:xsd="http://www.w3.org/2001/XMLSchema"'])
        new = rng.choice([b"o:element", b"xsd:sequence", b"nope:x",
                          b'xmlns:xsd="urn:other"', b"xsd:xsd:a"])
        return data.replace(old, new, rng.randrange(1, 4))
    if kind == 5:  # dropped xmlns
        return re.sub(rb' xmlns(:\w+)?="[^"]*"', b"", data, count=1)
    if kind == 6 and attributes:  # tab or reference inside a value
        attr = rng.choice(attributes)
        i = rng.randrange(attr.start(2), attr.end(2) + 1)
        return data[:i] + rng.choice([b"\t", *_REFERENCES]) + data[i:]
    # a reference in content, with the entity declared or not
    i = data.find(b"\n") + 1
    head = _DOCTYPE if rng.random() < 0.5 else b""
    return head + data[:i] + rng.choice(_REFERENCES) + data[i:]


def test_mutated_documents_agree():
    rng = random.Random(20261016)
    documents = warmup_documents()
    kinds: set[str] = set()
    for _ in range(MUTATIONS):
        data = rng.choice(documents)
        for _ in range(rng.randrange(1, 3)):
            data = mutate(rng, data)
        streamed, replayed = both(data)
        assert streamed == replayed, data
        kinds.add(streamed[0] if isinstance(streamed, tuple)
                  else "Schema")
    # the smoke reaches every layer's errors, and some mutants survive
    assert {"Schema", "XMLWellFormednessError", "XMLNamespaceError",
            "SchemaParseError"} <= kinds
