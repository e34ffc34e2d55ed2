"""Primitive XML Schema datatypes.

Implements the subset of XML Schema Part 2 datatypes the paper's
metadata uses: the string/boolean/floating types and the full integer
derivation ladder (byte .. unsignedLong).  Each datatype knows how to
``parse`` a lexical form into a Python value, range-checked.

Lexical forms are XML Schema 1.0's (Part 2, second edition, 2004 --
the version the paper's 2001-era documents were written against), in
ASCII only: integers are ``[+-]?[0-9]+``; float and double are a
decimal mantissa with an optional ``E``/``e`` exponent, or ``INF``,
``-INF`` and ``NaN``; decimal has neither exponent nor specials.
``+INF`` is an XML Schema 1.1 addition, so it is rejected here, as are
the spellings only Python's ``int()`` / ``float()`` accept
(``1_000``, ``inf``, ``Infinity``, non-ASCII digits).

These are the types that XMIT maps onto native BCM types; the mapping
itself lives with each target (:mod:`repro.core.targets`).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable

from repro.errors import SchemaTypeError, SchemaValidationError

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"
#: Older drafts the 2001-era documents in the paper may reference.
XSD_NAMESPACE_ALIASES = (
    XSD_NAMESPACE,
    "http://www.w3.org/1999/XMLSchema",
    "http://www.w3.org/2000/10/XMLSchema",
)

_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")
_FLOAT = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([Ee][+-]?[0-9]+)?")
_SPECIALS = {"INF": math.inf, "-INF": -math.inf, "NaN": math.nan}
#: characters of a rejected value an error message repeats
_ECHO = 40
#: significant digits ``int()`` converts (CPython's int-string limit;
#: 0 means none): an unbounded ``integer`` longer than this is out of
#: range, not malformed
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@dataclass(frozen=True)
class Datatype:
    """A primitive schema datatype.

    ``parse`` converts a lexical form into a value.  ``kind`` is the
    coarse class XMIT targets dispatch on: ``"integer"``,
    ``"unsigned"``, ``"float"``, ``"string"``, ``"boolean"``.
    """

    name: str
    kind: str
    parse: Callable[[str], object]
    bits: int | None = None  # natural width hint for binary targets


def _strip(lexical: str) -> str:
    # whiteSpace facet is 'collapse' for every numeric/boolean type,
    # and XML white space is these four characters only.
    return lexical.strip(" \t\r\n")


def _echo(text: str) -> str:
    """*text* as an error message repeats it: a bounded prefix."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


def _int_parser(name: str, lo: int | None, hi: int | None):
    # the most significant digits a value in range can have, checked
    # before int() converts (and so before its own limit can trip)
    digits = _INT_DIGITS if hi is None else len(str(max(-lo, hi)))

    def parse(lexical: str) -> int:
        text = _strip(lexical)
        if not _INTEGER.fullmatch(text):
            raise SchemaValidationError(
                f"{_echo(text)} is not a valid {name}")
        significant = text.lstrip("+-").lstrip("0") or "0"
        if digits and len(significant) > digits:
            raise SchemaValidationError(
                f"{_echo(text)} out of range for {name} "
                f"(more than {digits} digits)")
        value = int(significant) * (-1 if text[0] == "-" else 1)
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise SchemaValidationError(
                f"{value} out of range for {name}")
        return value
    return parse


def _float_parser(name: str, pattern: re.Pattern, specials: dict):
    def parse(lexical: str) -> float:
        text = _strip(lexical)
        if text in specials:
            return specials[text]
        if not pattern.fullmatch(text):
            raise SchemaValidationError(
                f"{_echo(text)} is not a valid {name}")
        return float(text)
    return parse


def _parse_boolean(lexical: str) -> bool:
    text = _strip(lexical)
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise SchemaValidationError(f"{_echo(text)} is not a valid boolean")


def _parse_string(lexical: str) -> str:
    return lexical


def _bounded_int(name: str, bits: int, signed: bool) -> Datatype:
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        kind = "integer"
    else:
        lo, hi = 0, (1 << bits) - 1
        kind = "unsigned"
    return Datatype(name, kind, _int_parser(name, lo, hi), bits)


_DATATYPES: dict[str, Datatype] = {}


def _register(dt: Datatype) -> Datatype:
    _DATATYPES[dt.name] = dt
    return dt


STRING = _register(Datatype("string", "string", _parse_string))
BOOLEAN = _register(Datatype("boolean", "boolean", _parse_boolean, 8))
FLOAT = _register(Datatype(
    "float", "float", _float_parser("float", _FLOAT, _SPECIALS), 32))
DOUBLE = _register(Datatype(
    "double", "float", _float_parser("double", _FLOAT, _SPECIALS), 64))
DECIMAL = _register(Datatype(
    "decimal", "float", _float_parser("decimal", _DECIMAL, {}), 64))

#: ``integer`` is unbounded in XML Schema; binary targets treat it as a
#: native int (the paper maps C ``int`` fields onto ``xsd:integer``).
INTEGER = _register(Datatype(
    "integer", "integer", _int_parser("integer", None, None), 32))

LONG = _register(_bounded_int("long", 64, signed=True))
INT = _register(_bounded_int("int", 32, signed=True))
SHORT = _register(_bounded_int("short", 16, signed=True))
BYTE = _register(_bounded_int("byte", 8, signed=True))
UNSIGNED_LONG = _register(_bounded_int("unsignedLong", 64, signed=False))
UNSIGNED_INT = _register(_bounded_int("unsignedInt", 32, signed=False))
UNSIGNED_SHORT = _register(_bounded_int("unsignedShort", 16, signed=False))
UNSIGNED_BYTE = _register(_bounded_int("unsignedByte", 8, signed=False))

NON_NEGATIVE_INTEGER = _register(Datatype(
    "nonNegativeInteger", "unsigned",
    _int_parser("nonNegativeInteger", 0, None), 32))
POSITIVE_INTEGER = _register(Datatype(
    "positiveInteger", "unsigned",
    _int_parser("positiveInteger", 1, None), 32))


def lookup_datatype(name: str) -> Datatype:
    """Return the primitive datatype called *name* (local name, no
    prefix).  Raises :class:`SchemaTypeError` for unknown names."""
    try:
        return _DATATYPES[name]
    except KeyError:
        raise SchemaTypeError(
            f"unknown XML Schema datatype {name!r}; supported: "
            f"{sorted(_DATATYPES)}") from None


def is_primitive(name: str) -> bool:
    """True if *name* names a supported primitive datatype."""
    return name in _DATATYPES

