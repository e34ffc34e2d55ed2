"""XMIT's internal representation of message formats.

Section 3 of the paper: "XML metadata is converted into an internal
representation from which BCM-specific metadata is generated."  The IR
is deliberately independent of both the XML source form and any target:
field types are reduced to a small closed set of primitive kinds with
explicit bit widths, plus enum and nested-format references, and array
shapes are normalized (fixed size / length-field-linked / self-sized).

Targets (:mod:`repro.core.targets`) consume only this IR, which is what
makes the discovery/binding decomposition orthogonal: any discovery
path that produces IR works with any target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XMITError

#: primitive IR kinds.
PRIM_KINDS = ("integer", "unsigned", "float", "string", "boolean")


@dataclass(frozen=True)
class TypeRef:
    """What a field's values are: a primitive, an enum, or a format.

    Exactly one of the three identities applies:

    * primitive: ``kind`` in :data:`PRIM_KINDS`, ``bits`` is the value
      width (None for string, meaning unbounded text);
    * enum: ``enum_name`` set;
    * nested: ``format_name`` set.
    """

    kind: str | None = None
    bits: int | None = None
    enum_name: str | None = None
    format_name: str | None = None

    def __post_init__(self) -> None:
        identities = sum(x is not None
                         for x in (self.kind, self.enum_name,
                                   self.format_name))
        if identities != 1:
            raise XMITError(
                f"TypeRef must have exactly one identity, got {self!r}")
        if self.kind is not None and self.kind not in PRIM_KINDS:
            raise XMITError(f"unknown primitive kind {self.kind!r}")

    @property
    def is_primitive(self) -> bool:
        return self.kind is not None

    @property
    def is_enum(self) -> bool:
        return self.enum_name is not None

    @property
    def is_nested(self) -> bool:
        return self.format_name is not None

    def describe(self) -> str:
        if self.is_primitive:
            bits = f"{self.bits}" if self.bits else "text"
            return f"{self.kind}/{bits}"
        if self.is_enum:
            return f"enum:{self.enum_name}"
        return f"format:{self.format_name}"


@dataclass(frozen=True)
class ArrayIR:
    """Normalized array shape.

    ``fixed_size`` for compile-time-sized arrays; ``length_field`` for
    run-time sizing by a sibling integer field (with ``placement``
    recording where the schema put the sizing field relative to the
    array); neither for self-sized dynamic arrays.
    """

    fixed_size: int | None = None
    length_field: str | None = None
    placement: str = "before"

    def __post_init__(self) -> None:
        if self.fixed_size is not None and self.length_field is not None:
            raise XMITError(
                "array cannot be both fixed and length-field sized")
        if self.fixed_size is not None and self.fixed_size < 1:
            raise XMITError("fixed array size must be positive")


@dataclass(frozen=True)
class FieldIR:
    """One field of a message format."""

    name: str
    type: TypeRef
    array: ArrayIR | None = None
    optional: bool = False
    documentation: str | None = None

    @property
    def is_array(self) -> bool:
        return self.array is not None


@dataclass(frozen=True)
class EnumIR:
    """A named enumeration with its ordered labels."""

    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class FormatIR:
    """One message format: an ordered field tuple."""

    name: str
    fields: tuple[FieldIR, ...]
    documentation: str | None = None

    def field(self, name: str) -> FieldIR:
        for f in self.fields:
            if f.name == name:
                return f
        raise XMITError(f"format {self.name!r} has no field {name!r}")

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass
class IRSet:
    """The toolkit's working set of compiled formats and enums."""

    formats: dict[str, FormatIR] = field(default_factory=dict)
    enums: dict[str, EnumIR] = field(default_factory=dict)
    #: ``(format name, architecture)`` -> structure layout, filled by
    #: the pbio target so a type nested by several messages is laid
    #: out once; whoever replaces a format clears it
    layouts: dict = field(default_factory=dict, repr=False,
                          compare=False)

    def add_format(self, fmt: FormatIR) -> None:
        self.formats[fmt.name] = fmt
        self.layouts.clear()

    def add_enum(self, enum: EnumIR) -> None:
        self.enums[enum.name] = enum

    def format(self, name: str) -> FormatIR:
        try:
            return self.formats[name]
        except KeyError:
            raise XMITError(
                f"no format named {name!r} has been loaded; known: "
                f"{sorted(self.formats)}") from None

    def enum(self, name: str) -> EnumIR:
        try:
            return self.enums[name]
        except KeyError:
            raise XMITError(f"no enum named {name!r}") from None

    def merge(self, other: "IRSet") -> None:
        self.formats.update(other.formats)
        self.enums.update(other.enums)
        self.layouts.clear()

    def dependencies(self, name: str) -> tuple[str, ...]:
        """Names of nested formats *name* references, depth-first,
        dependencies before dependents, excluding *name* itself."""
        seen: list[str] = []
        self._visit_dependencies(name, seen)
        return tuple(seen)

    def _visit_dependencies(self, name: str, seen: list[str]) -> None:
        for f in self.format(name).fields:
            if f.type.is_nested and f.type.format_name not in seen:
                self._visit_dependencies(f.type.format_name, seen)
                seen.append(f.type.format_name)

    def depends_on(self, name: str, changed: frozenset) -> bool:
        """True if *name* is one of the formats in *changed* or nests
        one at any depth (a nested format that is gone counts)."""
        if name in changed:
            return True
        try:
            return not changed.isdisjoint(self.dependencies(name))
        except XMITError:
            return True

    def complexity(self, name: str) -> int:
        """Total field count including nested formats — the paper's
        observation that registration cost "corresponds more closely to
        the complexity of the message (in terms of size, number of
        fields, and nested definitions)" made measurable."""
        fmt = self.format(name)
        total = len(fmt.fields)
        for dep in self.dependencies(name):
            total += len(self.format(dep).fields)
        return total
