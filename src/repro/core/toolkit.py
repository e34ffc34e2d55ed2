"""The XMIT toolkit facade.

Section 3.1: "XMIT includes an API that allows a programmer to first
'load' the toolkit with message definitions (contained in XML
documents) from one or more URLs.  Once the desired definitions have
been obtained, the type of native metadata to be generated is selected
... and the native metadata generation process is carried out ...
Lastly, XMIT produces an appropriate binding token representing the
collection of message formats."

Typical use::

    xmit = XMIT()
    xmit.load_url("http://formats.example/hydrology.xsd")
    ctx = IOContext()
    fmt = xmit.register_with_context(ctx, "SimpleData")
    wire = ctx.encode("SimpleData", {...})
"""

from __future__ import annotations

from functools import partial

from repro.core.binding import BindingToken
from repro.core.ir import IRSet
from repro.core.registry import FormatRegistry
from repro.http.retry import DiscoveryStats, RetryPolicy
from repro.core.targets.base import target_by_name
from repro.errors import XMITError
from repro.pbio.context import IOContext
from repro.pbio.format import IOFormat
from repro.pbio.machine import Architecture
from repro.schema.emitter import emit_schema
from repro.schema.model import Schema
from repro.xmlcore.serializer import serialize


class XMIT:
    """XML Metadata Integration Toolkit."""

    def __init__(self, *, retry: RetryPolicy | None = None,
                 cache_ttl: float | None = None,
                 lazy: bool = False) -> None:
        kwargs = {}
        if retry is not None:
            kwargs["retry"] = retry
        if cache_ttl is not None:
            kwargs["cache_ttl"] = cache_ttl
        if lazy:
            # defer per-complexType IR compilation to first use; see
            # FormatRegistry(lazy=True)
            kwargs["lazy"] = True
        self.registry = FormatRegistry(**kwargs)
        self._bindings: dict[tuple, BindingToken] = {}
        # the first listener, so no user listener sees a stale binding;
        # a partial, not a bound method: no registry <-> XMIT cycle
        self.registry.subscribe(
            partial(_drop_stale, self._bindings, self.registry.ir))

    # -- discovery ----------------------------------------------------------

    def load_url(self, url: str) -> tuple[str, ...]:
        """Load message definitions from an XML document at *url*.

        Supports ``http:``, ``file:`` and ``mem:`` URLs; returns the
        names of the formats the document defined.
        """
        return self.registry.load_url(url)

    def load_text(self, text: str) -> tuple[str, ...]:
        """Load message definitions from in-memory XML text."""
        return self.registry.load_text(text)

    def refresh(self, url: str) -> tuple[str, ...]:
        """Re-fetch *url*; returns the names of the formats that
        changed (see :meth:`FormatRegistry.refresh`)."""
        return self.registry.refresh(url)

    @property
    def ir(self) -> IRSet:
        """The toolkit's compiled internal representation."""
        return self.registry.ir

    @property
    def discovery_stats(self) -> DiscoveryStats:
        """Counters for the discovery path: fetch attempts, retries,
        cache hits/misses, last-known-good fallbacks, compiles."""
        return self.registry.stats

    @property
    def format_names(self) -> tuple[str, ...]:
        return tuple(self.registry.ir.formats)

    def subscribe(self, listener) -> None:
        """Register a change listener (see
        :meth:`~repro.core.registry.FormatRegistry.subscribe`); it runs
        after the changed format's bindings are dropped."""
        self.registry.subscribe(listener)

    # -- binding ------------------------------------------------------------

    def bind(self, format_name: str, target: str = "pbio",
             **options) -> BindingToken:
        """Generate native metadata for *format_name* via *target*.

        Tokens are cached per (format, target, options); a change to
        the format, or to one it nests, drops its cache entries.
        """
        if format_name not in self.registry.ir.formats:
            raise XMITError(
                f"format {format_name!r} has not been discovered; "
                f"loaded formats: {sorted(self.registry.ir.formats)}")
        key = (format_name, target,
               tuple(sorted(options.items(), key=lambda kv: kv[0])))
        try:
            return self._bindings[key]
        except (KeyError, TypeError):
            # TypeError: unhashable option value -> skip the cache.
            pass
        token = target_by_name(target).generate(
            self.registry.ir, format_name, **options)
        try:
            self._bindings[key] = token
        except TypeError:
            pass
        return token

    # -- marshaling integration ----------------------------------------------

    def register_with_context(self, context: IOContext,
                              format_name: str) -> IOFormat:
        """Bind *format_name* for PBIO on the context's architecture
        and register it — the complete XMIT discovery-to-BCM path whose
        cost the RDM experiments measure."""
        token = self.bind(format_name, target="pbio",
                          architecture=context.architecture)
        return context.register(token.artifact)

    # -- convenience generators ------------------------------------------------

    def generate_python_class(self, format_name: str) -> type:
        """A runtime-generated message class (see
        :mod:`repro.core.targets.python_target`)."""
        return self.bind(format_name, target="python").artifact

    def generate_c_source(self, format_name: str,
                          architecture: Architecture | None = None) \
            -> str:
        """C struct + IOField source, Fig. 2 style."""
        options = {}
        if architecture is not None:
            options["architecture"] = architecture
        return self.bind(format_name, target="c", **options).artifact

    # -- live-message analysis -----------------------------------------------------

    def match_message(self, xml_text: str | bytes) -> str | None:
        """Which loaded format does this live XML message best match?

        Section 3: "schema-checking tools may be applied to live
        messages received from other parties to determine which of
        several structure definitions a message best matches."
        Returns the format name, or None if nothing validates.
        """
        from repro.schema.validator import match_format
        from repro.xmlcore.parser import parse, parse_bytes
        doc = (parse_bytes(xml_text) if isinstance(xml_text, bytes)
               else parse(xml_text))
        return match_format(self._reconstruct_schema(), doc.root)

    # -- publication -------------------------------------------------------------

    def export_schema(self, names: list[str] | None = None) -> str:
        """Render loaded formats back to XSD text, suitable for
        publishing at a URL for other components to discover."""
        schema = self._reconstruct_schema()
        doc = emit_schema(schema, names=names)
        return serialize(doc, indent="  ")

    def _reconstruct_schema(self) -> Schema:
        # Round-trip through the emitter requires a Schema; rebuild one
        # from IR via the emitter's own input model.
        from repro.schema.model import EnumerationType, Schema as SchemaModel
        schema = SchemaModel()
        for enum in self.registry.ir.enums.values():
            schema.add(EnumerationType(name=enum.name,
                                       values=enum.values))
        for fmt in self.registry.ir.formats.values():
            schema.add(self._complex_type_for(fmt))
        schema.check_references()
        return schema

    @staticmethod
    def _complex_type_for(fmt) -> "ComplexType":
        from repro.schema.model import (
            ArraySpec, ComplexType, ElementDecl, FIXED, VARIABLE,
        )
        decls = []
        for field in fmt.fields:
            type_name = _xsd_type_name(field.type)
            if field.array is None:
                spec = ArraySpec()
            elif field.array.fixed_size is not None:
                spec = ArraySpec(kind=FIXED, size=field.array.fixed_size)
            else:
                spec = ArraySpec(kind=VARIABLE,
                                 length_field=field.array.length_field,
                                 placement=field.array.placement)
            decls.append(ElementDecl(
                name=field.name, type_name=type_name, array=spec,
                min_occurs=0 if field.optional else 1,
                documentation=field.documentation))
        return ComplexType(name=fmt.name, elements=tuple(decls),
                           documentation=fmt.documentation)


def _drop_stale(bindings: dict, ir: IRSet, event: str, name: str,
                fmt) -> None:
    """XMIT's change listener: drop the binding tokens of *name* and
    of every format that nests it."""
    stale = frozenset((name,))
    for key in list(bindings):
        if ir.depends_on(key[0], stale):
            bindings.pop(key, None)


#: IR (kind, bits) -> XSD datatype local name, for schema export.
_IR_TO_XSD: dict[tuple[str, int | None], str] = {
    ("string", None): "string",
    ("boolean", 8): "boolean",
    ("float", 32): "float",
    ("float", 64): "double",
    ("integer", 8): "byte",
    ("integer", 16): "short",
    ("integer", 32): "int",
    ("integer", None): "integer",
    ("integer", 64): "long",
    ("unsigned", 8): "unsignedByte",
    ("unsigned", 16): "unsignedShort",
    ("unsigned", 32): "unsignedInt",
    ("unsigned", None): "unsignedLong",
    ("unsigned", 64): "unsignedLong",
}


def _xsd_type_name(tref) -> str:
    if tref.is_nested:
        return tref.format_name
    if tref.is_enum:
        return tref.enum_name
    return _IR_TO_XSD[(tref.kind, tref.bits)]
