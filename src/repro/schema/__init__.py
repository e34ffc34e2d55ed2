"""XML Schema subset used by XMIT metadata documents.

The paper defines message formats as XML Schema ``complexType``
declarations whose ``element`` children name fields, with the primitive
datatypes of the XML Schema specification (string, integer, float,
unsignedLong, ...), fixed and dynamic arrays expressed through
``maxOccurs``, and — in the Hydrology formats of Fig. 4 — the
``dimensionName``/``dimensionPlacement`` attributes that tie a dynamic
array's length to an integer field of the same record.

This package provides:

* :mod:`repro.schema.datatypes` -- the primitive type registry:
  XML Schema lexical forms -> range-checked values,
* :mod:`repro.schema.model`     -- the schema component model,
* :mod:`repro.schema.parser`    -- XSD document -> :class:`Schema`,
* :mod:`repro.schema.validator` -- XML instance documents against a
  :class:`ComplexType` (:func:`load_instance`, :func:`match_format`),
* :mod:`repro.schema.emitter`   -- :class:`Schema` -> XSD document.
"""

from repro.schema.datatypes import XSD_NAMESPACE, Datatype, lookup_datatype
from repro.schema.model import (
    ArraySpec,
    ComplexType,
    ElementDecl,
    EnumerationType,
    FIXED,
    Schema,
    SCALAR,
    VARIABLE,
)
from repro.schema.parser import parse_schema, parse_schema_text
from repro.schema.emitter import emit_schema

__all__ = [
    "ArraySpec",
    "ComplexType",
    "Datatype",
    "ElementDecl",
    "EnumerationType",
    "FIXED",
    "SCALAR",
    "Schema",
    "VARIABLE",
    "XSD_NAMESPACE",
    "emit_schema",
    "lookup_datatype",
    "parse_schema",
    "parse_schema_text",
]
