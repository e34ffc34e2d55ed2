"""Discovery frees what it builds by reference counting alone.

A cold first record (fetch, XML parse, schema compile, bind, register,
plan compile, encode, decode) used to leave ~900 objects in reference
cycles per document: every parsed DOM (child -> parent links), and two
self-recursive closures whose function <-> cell cycles pinned the
registry, the merged ``Schema`` and the ``IRSet``.  The cyclic
collector then ran over all of it, often mid-registration.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import repro
from repro.core.toolkit import XMIT
from repro.http.server import DocumentStore, MetadataHTTPServer
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer

XSD_NS = 'xmlns:xsd="http://www.w3.org/2001/XMLSchema"'


def common_doc(tag: str) -> str:
    return f"""<xsd:schema {XSD_NS}>
  <xsd:complexType name="Point{tag}">
    <xsd:element name="x" type="xsd:double" />
    <xsd:element name="y" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>"""


def main_doc(tag: str) -> str:
    return f"""<!DOCTYPE xsd:schema [<!ENTITY unit "metres">]>
<xsd:schema {XSD_NS}>
  <xsd:include schemaLocation="common{tag}.xsd" />
  <xsd:annotation><xsd:documentation>&unit;</xsd:documentation>
  </xsd:annotation>
  <xsd:simpleType name="Mode{tag}">
    <xsd:restriction base="xsd:string">
      <xsd:enumeration value="idle" />
      <xsd:enumeration value="busy" />
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:complexType name="Track{tag}">
    <xsd:element name="station" type="xsd:string" />
    <xsd:element name="seq" type="xsd:unsignedInt" />
    <xsd:element name="mode" type="Mode{tag}" />
    <xsd:element name="origin" type="Point{tag}" />
    <xsd:element name="gains" type="xsd:float" maxOccurs="4" />
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="samples" type="xsd:double" maxOccurs="*"
                 dimensionName="count" />
  </xsd:complexType>
</xsd:schema>"""


RECORD = {"station": "north", "seq": 7, "mode": "busy",
          "origin": {"x": 1.5, "y": -2.0}, "gains": [1.0, 2.0, 3.0, 4.0],
          "count": 3, "samples": [0.25, 0.5, 0.75]}


def first_record(store: DocumentStore, server: MetadataHTTPServer,
                 tag: str) -> None:
    """Discover a never-seen document on two endpoints, then send one
    record from one to the other."""
    store.put(f"/common{tag}.xsd", common_doc(tag))
    store.put(f"/main{tag}.xsd", main_doc(tag))
    contexts = []
    for _endpoint in range(2):
        ctx = IOContext(format_server=FormatServer())
        xmit = XMIT()
        for name in xmit.load_url(server.url_for(f"/main{tag}.xsd")):
            xmit.register_with_context(ctx, name)
        contexts.append(ctx)
    wire = contexts[0].encode(f"Track{tag}", RECORD)
    assert contexts[1].decode(wire).record == RECORD


def test_a_cold_first_record_leaves_no_cyclic_garbage():
    store = DocumentStore()
    with MetadataHTTPServer(store) as server:
        first_record(store, server, "Warm")  # imports, lazy singletons
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            first_record(store, server, "Cold")
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
    assert garbage < 20


def test_no_nested_function_calls_itself():
    """A nested function that recurses by name holds its own cell: a
    function <-> cell cycle that pins everything it closes over until
    the cyclic collector runs.  Recursion belongs in methods or an
    explicit stack."""
    package = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(call, ast.Call)
                       and isinstance(call.func, ast.Name)
                       and call.func.id == inner.name
                       for call in ast.walk(inner)):
                    offenders.append(
                        f"{path.relative_to(package)}:{inner.name}")
    assert offenders == []
