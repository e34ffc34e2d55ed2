"""Parse XML Schema documents into the component model.

Accepts the document shapes used by the paper:

* top-level ``xsd:complexType`` elements whose children are directly
  ``xsd:element`` declarations (the flattened style of Figs. 2 and 4),
  or wrapped in ``xsd:sequence``/``xsd:all`` as standard XSD writes it
  (a model group nested in another, or beside a direct ``xsd:element``,
  is rejected, not flattened);
* top-level ``xsd:simpleType`` with ``xsd:restriction`` +
  ``xsd:enumeration`` facets;
* an optional enclosing ``xsd:schema`` root with ``targetNamespace``;
* occurrence attributes: ``minOccurs``, ``maxOccurs`` (numeric, ``*``,
  ``unbounded``, or a sizing-field name), plus the paper's
  ``dimensionName``/``dimensionPlacement`` extension attributes;
* ``xsd:annotation/xsd:documentation`` captured onto components.

The front-end handles the XML parser's events: it builds the
:class:`Schema` and the ``schemaLocation`` list while the scanner
reads, so a document never becomes a tree.  :func:`parse_schema`
replays a tree a caller holds into the same front-end.  Components
match by namespace and local name; a foreign element where a component
belongs is an error.  A type reference (``type``, ``restriction
base``) may be prefixed (``xsd:string``) or bare; a prefix must be in
scope, and the local name names a primitive or a user-defined type.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SchemaParseError
from repro.schema.datatypes import XSD_NAMESPACE_ALIASES
from repro.schema.model import (
    ArraySpec, ComplexType, ElementDecl, EnumerationType, FIXED, Schema,
    SCALAR_SPEC, VARIABLE,
)
from repro.xmlcore.dom import CData, Document
from repro.xmlcore.namespaces import Scope, replay
from repro.xmlcore.parser import decode_document, parse_events


def parse_schema_text(text: str, *, check: bool = True) -> Schema:
    """Parse schema source text into a validated :class:`Schema`."""
    return parse_schema_document(text, check=check)[0]


def parse_schema_document(source: str | bytes, *, check: bool = True) \
        -> tuple[Schema, tuple[str, ...]]:
    """Parse a schema document's text or bytes, building no tree, into
    its :class:`Schema` and the ``schemaLocation`` values of its
    top-level ``xsd:include`` / ``xsd:import`` elements (resolving them
    is the caller's job -- it knows the base URL).  ``check=False``
    skips reference validation, for references into included documents
    the caller merges afterwards (``FormatRegistry.load_url``)."""
    reader = _SchemaReader()
    parse_events(source if isinstance(source, str)
                 else decode_document(source), reader)
    return reader.finish(check), tuple(reader.locations)


def parse_schema(doc: Document, *, check: bool = True) -> Schema:
    """Parse a schema :class:`Document` into a :class:`Schema`, by
    replaying it into the front-end that reads text."""
    reader = _SchemaReader()
    replay(doc, reader)
    return reader.finish(check)


class _SchemaReader:
    """The schema front-end: parser events in, a :class:`Schema` out.

    ``_frames`` says what each open element is read as.  Only the first
    annotation of a component, and the first documentation of that, is
    read (as ``Element.find`` would); ``_read`` holds the kinds whose
    innermost open frame has read it (no kind nests in itself).
    """

    def __init__(self) -> None:
        self.schema = Schema()
        self.locations: list[str] = []
        self._frames = ["document"]
        self._read: set[str] = set()
        self._text: list[str] | None = None  # documentation being read

    def finish(self, check: bool) -> Schema:
        if check:
            self.schema.check_references()
        return self.schema

    def start(self, name: tuple, attrs: dict[str, str],
              scope: Scope) -> None:
        tag, namespace, _prefix, local, _attributes, _declared = name
        xsd = namespace in XSD_NAMESPACE_ALIASES
        kind = self._frames[-1]
        frame = "skip"
        if kind in ("complexType", "group", "restriction") and not xsd:
            raise SchemaParseError(
                f"{self._owner}: non-schema element <{tag}>")
        if kind in ("complexType", "group"):
            if kind == "complexType" and local in ("element", "sequence",
                                                   "all"):
                direct = local == "element"
                if self._direct not in (None, direct):
                    raise SchemaParseError(
                        f"{self._owner}: element declarations both in and "
                        "beside a model group are not supported")
                self._direct = direct
            if local == "element":
                self._fields.append(_element_decl(attrs, self._name, scope))
                self._read.discard("element")
                frame = "element"
            elif local in ("sequence", "all"):
                if kind == "group":
                    raise SchemaParseError(
                        f"{self._owner}: <{local}> nested in a model "
                        "group is not supported")
                frame = "group"
            elif local == "attribute":
                raise SchemaParseError(
                    f"{self._owner}: XML attributes are not part of the "
                    "XMIT metadata model (fields are elements)")
            elif local != "annotation":
                raise SchemaParseError(
                    f"{self._owner}: unsupported particle <{local}>")
            elif kind == "complexType":
                frame = self._first(kind, local)
        elif kind == "document":
            if not (xsd and local in ("schema", "complexType",
                                      "simpleType")):
                raise SchemaParseError(
                    f"expected an XML Schema document, found root "
                    f"<{tag}> in namespace {namespace!r}")
            if local == "schema":
                self.schema.target_namespace = attrs.get("targetNamespace")
                frame = "schema"
            else:
                frame = self._top(local, attrs)
        elif kind == "schema":
            if not xsd:
                raise SchemaParseError(
                    f"non-schema element <{tag}> at top level")
            frame = self._top(local, attrs)
        elif kind == "restriction":
            if local == "enumeration":
                if "value" not in attrs:
                    raise SchemaParseError(
                        f"{self._owner}: enumeration facet without a value")
                self._values.append(attrs["value"])
            elif local != "annotation":
                raise SchemaParseError(
                    f"{self._owner}: unsupported facet <{local}>")
        elif kind == "simpleType" and xsd and local == "restriction" \
                and self._base is None:
            self._base = _type_reference(attrs.get("base", "string"),
                                         scope)
            frame = "restriction"
        elif xsd and (kind, local) in (("element", "annotation"),
                                       ("annotation", "documentation")):
            frame = self._first(kind, local)
        self._frames.append(frame)

    def end(self) -> None:
        kind = self._frames.pop()
        if kind == "complexType":
            if not self._fields:
                raise SchemaParseError(f"{self._owner} declares no fields")
            self.schema.add(ComplexType(
                name=self._name, elements=tuple(self._fields),
                documentation=self._documentation))
        elif kind == "simpleType":
            if self._base is None:
                raise SchemaParseError(
                    f"{self._owner}: only restriction-based enumerations "
                    "are supported")
            self.schema.add(EnumerationType(
                name=self._name, values=tuple(self._values),
                base=self._base))
        elif kind == "documentation":
            text = "".join(self._text).strip()
            self._text = None
            if self._frames[-2] == "element":
                self._fields[-1] = replace(self._fields[-1],
                                           documentation=text)
            else:
                self._documentation = text

    def text(self, data: str) -> None:
        if self._text is not None:
            self._text.append(data)

    def node(self, node) -> None:
        if self._text is not None and isinstance(node, CData):
            self._text.append(node.data)

    def _first(self, kind: str, local: str) -> str:
        if kind in self._read:
            return "skip"
        self._read.add(kind)
        self._read.discard(local)
        if local == "documentation":
            self._text = []
        return local

    def _top(self, local: str, attrs: dict[str, str]) -> str:
        if local in ("complexType", "simpleType"):
            self._name = attrs.get("name")
            if not self._name:
                raise SchemaParseError(
                    f"{local} requires a name attribute")
            self._owner = f"{local} {self._name!r}"
            self._fields, self._values = [], []
            self._documentation = self._base = self._direct = None
            self._read.discard(local)
        elif local in ("include", "import"):
            if attrs.get("schemaLocation"):
                self.locations.append(attrs["schemaLocation"])
            return "skip"
        elif local in ("annotation", "element"):
            # Global element declarations carry no format information
            # for XMIT; skip them like the paper's selective DOM
            # traversal does.
            return "skip"
        else:
            raise SchemaParseError(
                f"unsupported top-level schema component <{local}>")
        return local


def _element_decl(attrs: dict[str, str], owner: str,
                  scope: Scope) -> ElementDecl:
    name = attrs.get("name")
    if not name:
        raise SchemaParseError(
            f"element in complexType {owner!r} requires a name")
    type_attr = attrs.get("type")
    if not type_attr:
        raise SchemaParseError(
            f"element {owner}.{name}: inline anonymous types are not "
            "supported; use a named type reference")
    type_name = _type_reference(type_attr, scope)
    min_occurs = _parse_min_occurs(attrs, owner, name)
    array = _parse_array_spec(attrs, owner, name)
    return ElementDecl(name=name, type_name=type_name, array=array,
                       min_occurs=min_occurs)


def _type_reference(value: str, scope: Scope) -> str:
    """The type name a QName-valued attribute refers to.

    Its prefix must be in scope; which namespace it names does not
    matter (a prefix bound to an XML Schema namespace selects a
    primitive datatype, and primitive names are reserved).
    """
    if ":" not in value:
        return value
    prefix, _, local = value.partition(":")
    # attribute *values* are not names, so the namespace resolver has
    # not seen this prefix
    if prefix not in scope:
        raise SchemaParseError(
            f"type reference {value!r} uses undeclared prefix {prefix!r}")
    return local


def _parse_min_occurs(attrs: dict[str, str], owner: str, name: str) -> int:
    raw = attrs.get("minOccurs")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise SchemaParseError(
            f"{owner}.{name}: minOccurs must be an integer, "
            f"got {raw!r}") from None
    if value < 0:
        raise SchemaParseError(
            f"{owner}.{name}: minOccurs cannot be negative")
    return value


def _parse_array_spec(attrs: dict[str, str], owner: str,
                      name: str) -> ArraySpec:
    max_occurs = attrs.get("maxOccurs")
    dim_name = attrs.get("dimensionName")
    placement = attrs.get("dimensionPlacement", "before")

    if dim_name is not None:
        # Fig. 4 style: dimensionName names the sizing field; maxOccurs
        # (if present) must be a dynamic marker.
        if max_occurs not in (None, "*", "unbounded"):
            raise SchemaParseError(
                f"{owner}.{name}: dimensionName with fixed maxOccurs "
                f"{max_occurs!r} is contradictory")
        return ArraySpec(kind=VARIABLE, length_field=dim_name,
                         placement=placement)

    if max_occurs is None or max_occurs == "1":
        return SCALAR_SPEC
    if max_occurs in ("*", "unbounded"):
        return ArraySpec(kind=VARIABLE, placement=placement)
    try:
        size = int(max_occurs)
    except ValueError:
        # Section 3.1: a string value names an integer sizing field.
        return ArraySpec(kind=VARIABLE, length_field=max_occurs,
                         placement=placement)
    if size < 1:
        raise SchemaParseError(
            f"{owner}.{name}: maxOccurs must be positive, got {size}")
    return ArraySpec(kind=FIXED, size=size)
