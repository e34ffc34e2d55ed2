"""XML Namespaces (1.0) support.

Provides the :class:`QName` value object, the reserved namespace URIs,
and :func:`resolve_namespaces`, the post-parse pass that walks a DOM
tree, interprets ``xmlns``/``xmlns:prefix`` attributes, and fills in the
``namespace``/``prefix``/``local_name`` slots of every element and
attribute.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import XMLNamespaceError
from repro.xmlcore.chars import is_ncname
from repro.xmlcore.dom import Document, Element

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
XMLNS_NAMESPACE = "http://www.w3.org/2000/xmlns/"

_BUILTIN_BINDINGS: dict[str, str] = {"xml": XML_NAMESPACE}


class QName:
    """A namespace-qualified name: ``(namespace URI or None, local)``.

    Displays in Clark notation (``{uri}local``) and compares/hashes by
    value, so it can key dictionaries of schema components.
    """

    __slots__ = ("namespace", "local")

    def __init__(self, namespace: str | None, local: str) -> None:
        self.namespace = namespace
        self.local = local

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        """Parse Clark notation: ``{uri}local`` or plain ``local``."""
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            return cls(uri, local)
        return cls(None, text)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QName):
            return (self.namespace, self.local) == (other.namespace,
                                                    other.local)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.namespace, self.local))

    def __repr__(self) -> str:
        return f"QName({str(self)!r})"

    def __str__(self) -> str:
        if self.namespace:
            return f"{{{self.namespace}}}{self.local}"
        return self.local


@lru_cache(maxsize=1024)
def split_qname(name: str) -> tuple[str | None, str]:
    """Split a raw qualified name into ``(prefix or None, local)``.

    Enforces the namespaces spec's QName shape: at most one colon, and
    both sides must be NCNames.  Memoised (errors are not): a document
    repeats a small vocabulary of tag and attribute names.
    """
    if ":" not in name:
        return None, name
    prefix, _, local = name.partition(":")
    if not prefix or not local or ":" in local:
        raise XMLNamespaceError(f"malformed qualified name {name!r}")
    if not is_ncname(prefix) or not is_ncname(local):
        raise XMLNamespaceError(f"malformed qualified name {name!r}")
    return prefix, local


def resolve_namespaces(doc: Document) -> Document:
    """Resolve namespace bindings in-place for the whole document.

    Raises :class:`XMLNamespaceError` for undeclared prefixes, illegal
    re-bindings of the reserved ``xml``/``xmlns`` prefixes, and empty
    prefixed-namespace undeclarations (not allowed in Namespaces 1.0).
    Returns *doc* for convenience.
    """
    try:
        root = doc.root
    except ValueError:
        return doc
    _resolve_element(root, dict(_BUILTIN_BINDINGS), "")
    return doc


def _resolve_element(elem: Element, bindings: dict[str, str],
                     default_ns: str) -> None:
    local_bindings = bindings
    local_default = default_ns
    declared_here: dict[str, str] = {}

    # First pass: collect namespace declarations on this element.
    for attr in elem.attributes.values():
        name = attr.name
        if name == "xmlns":
            local_default = attr.value
            declared_here[""] = attr.value
        elif name.startswith("xmlns:"):
            prefix = name[6:]
            if not is_ncname(prefix):
                raise XMLNamespaceError(
                    f"invalid namespace prefix declaration {name!r}")
            if prefix == "xmlns":
                raise XMLNamespaceError(
                    "the 'xmlns' prefix cannot be declared")
            if prefix == "xml" and attr.value != XML_NAMESPACE:
                raise XMLNamespaceError(
                    "the 'xml' prefix cannot be rebound")
            if not attr.value:
                raise XMLNamespaceError(
                    f"namespace prefix {prefix!r} cannot be undeclared "
                    "(empty URI) in Namespaces 1.0")
            if local_bindings is bindings:
                local_bindings = dict(bindings)
            local_bindings[prefix] = attr.value
            declared_here[prefix] = attr.value

    elem.ns_declarations = declared_here

    # Second pass: resolve the element name.
    prefix, local = split_qname(elem.tag)
    elem.prefix = prefix
    elem.local_name = local
    if prefix is not None:
        try:
            elem.namespace = local_bindings[prefix]
        except KeyError:
            raise XMLNamespaceError(
                f"undeclared namespace prefix {prefix!r} on element "
                f"<{elem.tag}>") from None
    else:
        elem.namespace = local_default or None

    # Third pass: resolve attribute names.  Unprefixed attributes are
    # in *no* namespace (not the default namespace), per the spec.
    seen: set[tuple[str | None, str]] = set()
    for attr in elem.attributes.values():
        if attr.name == "xmlns" or attr.name.startswith("xmlns:"):
            attr.namespace = XMLNS_NAMESPACE
            attr.prefix, attr.local_name = split_qname(attr.name)
            continue
        aprefix, alocal = split_qname(attr.name)
        attr.prefix = aprefix
        attr.local_name = alocal
        if aprefix is not None:
            try:
                attr.namespace = local_bindings[aprefix]
            except KeyError:
                raise XMLNamespaceError(
                    f"undeclared namespace prefix {aprefix!r} on "
                    f"attribute {attr.name!r}") from None
        else:
            attr.namespace = None
        key = (attr.namespace, attr.local_name)
        if key in seen:
            raise XMLNamespaceError(
                f"duplicate attribute {attr.local_name!r} in namespace "
                f"{attr.namespace!r} on <{elem.tag}>")
        seen.add(key)

    for child in elem:
        _resolve_element(child, local_bindings, local_default)
