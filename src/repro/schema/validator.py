"""Validate XML instance documents against a schema.

An instance document is the form the paper argues *against* using on
the wire (Fig. 1) but which schema-checking tools consume:
:func:`load_instance` checks a DOM element against a complexType and
converts it into the record dict PBIO encodes.  The paper notes that
"schema-checking tools may be applied to live messages received from
other parties to determine which of several structure definitions a
message best matches" -- that is :func:`match_format`, which
``xmitgen SCHEMA --validate INSTANCE`` runs.
"""

from __future__ import annotations

from repro.errors import SchemaValidationError
from repro.schema.datatypes import Datatype
from repro.schema.model import (
    ComplexType, ElementDecl, EnumerationType, FIXED, Schema,
)
from repro.xmlcore.dom import Element


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
                if decl.optional:  # the record form of an absent one
                    record[decl.name] = None
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
