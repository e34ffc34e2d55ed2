"""Validate message instances against a schema.

Two instance representations are supported:

* **record dicts** -- the in-memory form XMIT marshals: a mapping of
  field name to Python value (scalars, lists for arrays, nested dicts
  for composed types).  This is what :func:`validate_record` checks and
  what PBIO encodes.
* **XML instance documents** -- the form the paper argues *against*
  using on the wire (Fig. 1) but which schema-checking tools consume;
  :func:`load_instance` checks a DOM element and converts it into a
  record dict.

The paper notes that "schema-checking tools may be applied to live
messages received from other parties to determine which of several
structure definitions a message best matches" -- that is
:func:`match_format`.
"""

from __future__ import annotations

from repro.errors import SchemaValidationError
from repro.schema.datatypes import Datatype
from repro.schema.model import (
    ComplexType, ElementDecl, EnumerationType, FIXED, Schema, VARIABLE,
)
from repro.xmlcore.dom import Element


# ---------------------------------------------------------------------------
# record dicts
# ---------------------------------------------------------------------------

def validate_record(schema: Schema, type_name: str, record: dict) -> dict:
    """Validate *record* against complexType *type_name*.

    Returns a canonicalized copy (lexical round trip applied to every
    scalar, list lengths cross-checked against sizing fields).  Raises
    :class:`SchemaValidationError` on the first violation.
    """
    ct = schema.complex_type(type_name)
    return _validate_record(schema, ct, record, path=type_name)


def _validate_record(schema: Schema, ct: ComplexType, record: dict,
                     path: str) -> dict:
    if not isinstance(record, dict):
        raise SchemaValidationError(
            f"{path}: record must be a mapping, got "
            f"{type(record).__name__}")
    unknown = set(record) - set(ct.field_names())
    if unknown:
        raise SchemaValidationError(
            f"{path}: unknown fields {sorted(unknown)}")
    out: dict = {}
    for decl in ct.elements:
        fpath = f"{path}.{decl.name}"
        if decl.name not in record:
            if decl.optional:
                continue
            if decl.array.kind == VARIABLE and decl.min_occurs == 0:
                out[decl.name] = []
                continue
            raise SchemaValidationError(f"{fpath}: required field missing")
        out[decl.name] = _validate_value(schema, decl, record[decl.name],
                                         fpath)
    _check_length_fields(ct, out, path)
    return out


def _validate_value(schema: Schema, decl: ElementDecl, value: object,
                    path: str) -> object:
    resolved = schema.resolve(decl.type_name)
    if decl.array.is_array:
        if isinstance(value, (str, bytes)) or not hasattr(value,
                                                          "__len__"):
            raise SchemaValidationError(
                f"{path}: array field requires a sequence, got "
                f"{type(value).__name__}")
        items = list(value)
        if decl.array.kind == FIXED and len(items) != decl.array.size:
            raise SchemaValidationError(
                f"{path}: fixed array expects {decl.array.size} "
                f"elements, got {len(items)}")
        return [_validate_scalar(schema, resolved, item, f"{path}[{i}]")
                for i, item in enumerate(items)]
    return _validate_scalar(schema, resolved, value, path)


def _validate_scalar(schema: Schema, resolved, value: object,
                     path: str) -> object:
    if isinstance(resolved, ComplexType):
        return _validate_record(schema, resolved, value, path)
    if isinstance(resolved, EnumerationType):
        if not isinstance(value, str):
            raise SchemaValidationError(
                f"{path}: enumeration value must be str, got "
                f"{type(value).__name__}")
        if value not in resolved.values:
            raise SchemaValidationError(
                f"{path}: {value!r} is not one of "
                f"{list(resolved.values)}")
        return value
    assert isinstance(resolved, Datatype)
    try:
        return resolved.check(value)
    except SchemaValidationError as exc:
        raise SchemaValidationError(f"{path}: {exc}") from None


def _check_length_fields(ct: ComplexType, record: dict, path: str) -> None:
    for decl in ct.elements:
        lf = decl.array.length_field
        if lf is None or decl.name not in record:
            continue
        declared = record.get(lf)
        actual = len(record[decl.name])
        if declared != actual:
            raise SchemaValidationError(
                f"{path}.{decl.name}: length field {lf!r} says "
                f"{declared} but array has {actual} elements")


# ---------------------------------------------------------------------------
# XML instance documents
# ---------------------------------------------------------------------------

def load_instance(schema: Schema, type_name: str, elem: Element) -> dict:
    """Validate an XML instance element against a complexType and
    convert it into a record dict."""
    ct = schema.complex_type(type_name)
    return _load_instance(schema, ct, elem, path=type_name)


def _load_instance(schema: Schema, ct: ComplexType, elem: Element,
                   path: str) -> dict:
    children = list(elem)
    by_name: dict[str, list[Element]] = {}
    for child in children:
        by_name.setdefault(child.local_name, []).append(child)
    unknown = set(by_name) - set(ct.field_names())
    if unknown:
        raise SchemaValidationError(
            f"{path}: unexpected child elements {sorted(unknown)}")

    record: dict = {}
    for decl in ct.elements:
        fpath = f"{path}.{decl.name}"
        occurrences = by_name.get(decl.name, [])
        if decl.array.is_array:
            if decl.array.kind == FIXED and \
                    len(occurrences) != decl.array.size:
                raise SchemaValidationError(
                    f"{fpath}: expected {decl.array.size} occurrences, "
                    f"found {len(occurrences)}")
            if len(occurrences) < decl.min_occurs:
                raise SchemaValidationError(
                    f"{fpath}: at least {decl.min_occurs} occurrences "
                    f"required, found {len(occurrences)}")
            record[decl.name] = [
                _load_scalar(schema, decl, occ, f"{fpath}[{i}]")
                for i, occ in enumerate(occurrences)]
        else:
            if not occurrences:
                if decl.optional:
                    continue
                raise SchemaValidationError(
                    f"{fpath}: required element missing")
            if len(occurrences) > 1:
                raise SchemaValidationError(
                    f"{fpath}: scalar field appears "
                    f"{len(occurrences)} times")
            record[decl.name] = _load_scalar(schema, decl, occurrences[0],
                                             fpath)
    _check_length_fields(ct, record, path)
    return record


def _load_scalar(schema: Schema, decl: ElementDecl, elem: Element,
                 path: str) -> object:
    resolved = schema.resolve(decl.type_name)
    if isinstance(resolved, ComplexType):
        return _load_instance(schema, resolved, elem, path)
    text = elem.text_content()
    if isinstance(resolved, EnumerationType):
        value = text.strip()
        if value not in resolved.values:
            raise SchemaValidationError(
                f"{path}: {value!r} is not one of "
                f"{list(resolved.values)}")
        return value
    assert isinstance(resolved, Datatype)
    try:
        return resolved.parse(text)
    except SchemaValidationError as exc:
        raise SchemaValidationError(f"{path}: {exc}") from None


def dump_instance(schema: Schema, type_name: str, record: dict) \
        -> Element:
    """Render a validated record dict as an XML instance element.

    The inverse of :func:`load_instance`:
    ``load_instance(s, t, dump_instance(s, t, r)) == r`` for any
    record that validates (property-tested).  This is the document
    form the paper's Fig. 1 shows — and argues against putting on the
    wire.
    """
    from repro.xmlcore.builder import DocumentBuilder
    record = validate_record(schema, type_name, record)
    builder = DocumentBuilder()
    _dump_record(schema, builder, type_name,
                 schema.complex_type(type_name), record)
    return builder.document(namespaces=False).root


def _dump_record(schema: Schema, builder, tag: str,
                 ct: ComplexType, record: dict) -> None:
    with builder.element(tag):
        for decl in ct.elements:
            if decl.name not in record:
                continue
            value = record[decl.name]
            items = value if decl.array.is_array else [value]
            for item in items:
                _dump_value(schema, builder, decl, item)


def _dump_value(schema: Schema, builder, decl: ElementDecl,
                value) -> None:
    resolved = schema.resolve(decl.type_name)
    if isinstance(resolved, ComplexType):
        _dump_record(schema, builder, decl.name, resolved, value)
    elif isinstance(resolved, EnumerationType):
        builder.leaf(decl.name, value)
    else:
        assert isinstance(resolved, Datatype)
        builder.leaf(decl.name, resolved.format(value))


def match_format(schema: Schema, elem: Element) -> str | None:
    """Return the name of the complexType that *elem* validates
    against, or None.

    Implements the paper's observation that schema checking can be
    applied to live messages "to determine which of several structure
    definitions a message best matches".  Candidates whose name equals
    the element tag are tried first; ties broken by declaration order.
    """
    names = list(schema.complex_types)
    names.sort(key=lambda n: (n != elem.local_name,))
    for name in names:
        try:
            load_instance(schema, name, elem)
            return name
        except SchemaValidationError:
            continue
    return None
