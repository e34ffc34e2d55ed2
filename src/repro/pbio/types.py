"""PBIO field-type grammar.

PBIO field lists describe each field with a *type string* (the paper's
Fig. 2: ``"string"``, ``"integer"``, ...).  The full grammar, matching
the real PBIO library's, is::

    type      := base dims?
    base      := "integer" | "unsigned integer" | "unsigned"
               | "float" | "double" | "char" | "string" | "boolean"
               | "enumeration" | <subformat name>
    dims      := "[" dim "]" ("[" dim "]")*
    dim       := <positive integer>      -- fixed (inline) array
               | <field name>            -- dynamic array sized by field
               | "*"                     -- dynamic, self-sized

Fixed dimensions are inline in the structure; any dynamic dimension
makes the field pointer-valued (a ``char*``-like slot in the struct
pointing at out-of-line data).  Multiple dimensions are flattened
row-major; at most one dynamic dimension is allowed and it must be the
first, mirroring C's rules for ``float (*data)[N]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import LayoutError

#: Canonical atomic base names -> coarse kind.
ATOMIC_KINDS: dict[str, str] = {
    "integer": "integer",
    "unsigned integer": "unsigned",
    "unsigned": "unsigned",
    "float": "float",
    "double": "float",
    "char": "char",
    "string": "string",
    "boolean": "boolean",
    "enumeration": "enumeration",
}

#: Aliases normalized at parse time.
_BASE_ALIASES = {
    "unsigned": "unsigned integer",
    "int": "integer",
}

_DIM_RE = re.compile(r"\[([^\[\]]*)\]")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_ ]*$")


@dataclass(frozen=True)
class Dimension:
    """One array dimension: fixed size, sizing-field name, or ``*``."""

    fixed: int | None = None
    length_field: str | None = None

    @property
    def is_static(self) -> bool:
        return self.fixed is not None

    def __str__(self) -> str:
        if self.fixed is not None:
            return str(self.fixed)
        return self.length_field if self.length_field else "*"


@dataclass(frozen=True)
class FieldType:
    """Parsed form of a PBIO type string."""

    base: str  # canonical atomic name or subformat name
    dims: tuple[Dimension, ...] = ()

    @property
    def kind(self) -> str:
        """Coarse class: atomic kind, or ``"subformat"``."""
        return ATOMIC_KINDS.get(self.base, "subformat")

    @property
    def is_atomic(self) -> bool:
        return self.base in ATOMIC_KINDS

    @property
    def is_string(self) -> bool:
        return self.base == "string" and not self.dims

    @property
    def static_dims(self) -> tuple[int, ...]:
        return tuple(d.fixed for d in self.dims if d.fixed is not None)

    @property
    def dynamic_dim(self) -> Dimension | None:
        for d in self.dims:
            if not d.is_static:
                return d
        return None

    @property
    def is_inline(self) -> bool:
        """True if the field's data lives entirely inside the struct
        (scalars and fixed arrays); False for pointer-valued fields
        (strings and dynamically sized arrays)."""
        if self.is_string:
            return False
        return self.dynamic_dim is None

    @property
    def static_element_count(self) -> int:
        """Product of the fixed dimensions (1 for scalars)."""
        count = 1
        for d in self.static_dims:
            count *= d
        return count

    def __str__(self) -> str:
        return self.base + "".join(f"[{d}]" for d in self.dims)


@lru_cache(maxsize=1024)
def parse_field_type(type_string: str) -> FieldType:
    """Parse a PBIO type string into a :class:`FieldType`.

    Raises :class:`LayoutError` on grammar violations (bad base name,
    malformed dimensions, dynamic dimension not first).  The result is
    immutable and memoised (errors are not; bounded, since discovery
    keeps minting subformat names), so callers may re-ask per access.
    """
    text = type_string.strip()
    bracket = text.find("[")
    base_text = text if bracket == -1 else text[:bracket]
    dims_text = "" if bracket == -1 else text[bracket:]

    base = " ".join(base_text.split())  # collapse internal whitespace
    base = _BASE_ALIASES.get(base, base)
    if not base or not _NAME_RE.match(base):
        raise LayoutError(f"invalid field type base {base_text!r}")

    consumed = 0
    dims: list[Dimension] = []
    for match in _DIM_RE.finditer(dims_text):
        if match.start() != consumed:
            raise LayoutError(
                f"malformed dimensions in type {type_string!r}")
        consumed = match.end()
        dims.append(_parse_dim(match.group(1), type_string))
    if consumed != len(dims_text):
        raise LayoutError(f"malformed dimensions in type {type_string!r}")

    dynamic_positions = [i for i, d in enumerate(dims) if not d.is_static]
    if len(dynamic_positions) > 1:
        raise LayoutError(
            f"type {type_string!r}: at most one dynamic dimension "
            "is supported")
    if dynamic_positions and dynamic_positions[0] != 0:
        raise LayoutError(
            f"type {type_string!r}: a dynamic dimension must come first")

    if base == "string" and dims:
        raise LayoutError(
            f"type {type_string!r}: arrays of strings are expressed as "
            "string fields of a subformat")
    return FieldType(base=base, dims=tuple(dims))


def _parse_dim(body: str, context: str) -> Dimension:
    body = body.strip()
    if not body or body == "*":
        return Dimension()
    if body.isdigit():
        size = int(body)
        if size < 1:
            raise LayoutError(
                f"type {context!r}: dimension must be positive")
        return Dimension(fixed=size)
    if not _NAME_RE.match(body):
        raise LayoutError(
            f"type {context!r}: invalid dimension {body!r}")
    return Dimension(length_field=body)
