"""XML Namespaces (1.0) support.

Provides the :class:`QName` value object, the reserved namespace URIs,
and :class:`Resolver`, which resolves namespaces *in the event stream*:
it sits between an event source -- the parser's scanner, or
:func:`replay` walking a tree that is already built -- and a handler,
keeps one stack of in-scope bindings, and hands the handler each
element with its name and its attribute names already resolved.
:func:`resolve_namespaces` is the replay for trees built without the
parser (:class:`repro.xmlcore.builder.DocumentBuilder`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ReproError, XMLNamespaceError
from repro.xmlcore.chars import is_ncname
from repro.xmlcore.dom import Document, Element, Text

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


class Scope(dict):
    """The bindings in force from one declaring element down: prefix to
    URI, with the default namespace under ``""`` once declared.
    ``names`` caches the resolution of each start tag that declares
    nothing, by tag and attribute names: the scope alone decides it."""

    __slots__ = ("names",)

    def __init__(self, bindings: dict[str, str]) -> None:
        super().__init__(bindings)
        self.names: dict[tuple[str, ...], tuple] = {}


class Resolver:
    """Resolves namespaces in one document's stream of events.

    The source calls ``start(tag, attrs)`` (raw names; values in
    document order), ``end()``, ``text(data)``, ``node(node)`` (comment,
    CDATA section, processing instruction) and at last ``finish()``.
    The handler gets ``start(name, attrs, scope)``, ``end()``,
    ``text(data)`` and ``node(node)``.  *name* is ``(tag, namespace,
    prefix, local, attributes, declarations)``: one ``(name, namespace,
    prefix, local)`` per attribute, in order, and the prefixes the
    element declares (``""``: the default namespace).  With
    ``namespaces=False`` nothing is resolved.

    Errors wait for :meth:`finish`, so that the source can first report
    a document that is not well-formed.  It raises the first
    :class:`XMLNamespaceError`, else the handler's first error; the
    handler hears nothing after an error.
    """

    def __init__(self, handler, namespaces: bool = True) -> None:
        self._forward_to(handler)
        self.scope = Scope(_BUILTIN_BINDINGS)
        self._scopes: list[Scope] = []
        self._namespaces = namespaces
        self.error: ReproError | None = None

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        scope = self.scope
        self._scopes.append(scope)
        try:
            name = scope.names.get((tag, *attrs))
            if name is None:
                name, self.scope = self._resolve(tag, attrs, scope)
            self.handler.start(name, attrs, self.scope)
        except ReproError as exc:
            self._fail(exc)

    def end(self) -> None:
        self.scope = self._scopes.pop()
        try:
            self.handler.end()
        except ReproError as exc:
            self._fail(exc)

    def finish(self) -> None:
        if self.error is not None:
            raise self.error

    def _fail(self, exc: ReproError) -> None:
        # after the first error only namespace errors arrive
        if not isinstance(self.error, XMLNamespaceError):
            self.error = exc
        self._forward_to(_IGNORE)

    def _forward_to(self, handler) -> None:
        self.handler, self.text, self.node = \
            handler, handler.text, handler.node

    def _resolve(self, tag: str, attrs: dict[str, str],
                 scope: Scope) -> tuple[tuple, Scope]:
        """Resolve a start tag in full; cache it if it declares
        nothing.  Declarations are checked first, then the element name,
        then each attribute name."""
        if not self._namespaces:
            name = scope.names[(tag, *attrs)] = (
                tag, None, None, tag.split(":", 1)[-1],
                tuple((attr, None, None, attr) for attr in attrs), {})
            return name, scope
        declared: dict[str, str] = {}
        for attr, value in attrs.items():
            if attr == "xmlns":
                declared[""] = value
            elif attr.startswith("xmlns:"):
                prefix = attr[6:]
                if not is_ncname(prefix):
                    raise XMLNamespaceError(
                        f"invalid namespace prefix declaration {attr!r}")
                if prefix == "xmlns":
                    raise XMLNamespaceError(
                        "the 'xmlns' prefix cannot be declared")
                if prefix == "xml" and value != XML_NAMESPACE:
                    raise XMLNamespaceError(
                        "the 'xml' prefix cannot be rebound")
                if not value:
                    raise XMLNamespaceError(
                        f"namespace prefix {prefix!r} cannot be undeclared "
                        "(empty URI) in Namespaces 1.0")
                declared[prefix] = value
        if declared:
            scope = Scope({**scope, **declared})

        prefix, local = split_qname(tag)
        if prefix is None:
            namespace = scope.get("") or None
        elif (namespace := scope.get(prefix)) is None:
            raise XMLNamespaceError(
                f"undeclared namespace prefix {prefix!r} on element "
                f"<{tag}>")

        # Unprefixed attributes are in *no* namespace (not the default
        # namespace), per the spec.
        attributes = []
        seen: set[tuple[str | None, str]] = set()
        for attr in attrs:
            if attr == "xmlns" or attr.startswith("xmlns:"):
                attributes.append((attr, XMLNS_NAMESPACE,
                                   *split_qname(attr)))
                continue
            aprefix, alocal = split_qname(attr)
            anamespace = None
            if aprefix is not None and \
                    (anamespace := scope.get(aprefix)) is None:
                raise XMLNamespaceError(
                    f"undeclared namespace prefix {aprefix!r} on "
                    f"attribute {attr!r}")
            if (anamespace, alocal) in seen:
                raise XMLNamespaceError(
                    f"duplicate attribute {alocal!r} in namespace "
                    f"{anamespace!r} on <{tag}>")
            seen.add((anamespace, alocal))
            attributes.append((attr, anamespace, aprefix, alocal))
        name = (tag, namespace, prefix, local, tuple(attributes), declared)
        if not declared:
            scope.names[(tag, *attrs)] = name
        return name, scope


class _Ignore:
    """A handler that does nothing with any event."""

    def _ignore(self, *args) -> None:
        pass

    start = end = text = node = _ignore


_IGNORE = _Ignore()


def replay(doc: Document, handler) -> None:
    """Feed *doc*'s element tree to *handler* through a
    :class:`Resolver`, as the parser would have: ``start``/``end`` per
    element, ``text`` per :class:`Text`, ``node`` for the rest."""
    events = Resolver(handler)
    todo: list = [doc.root]
    while todo:
        node = todo.pop()
        if node is None:
            events.end()
        elif isinstance(node, Element):
            events.start(node.tag, {name: attr.value for name, attr
                                    in node.attributes.items()})
            todo.append(None)
            todo.extend(reversed(node.children))
        elif isinstance(node, Text):
            events.text(node.data)
        else:
            events.node(node)
    events.finish()


class _Qualifier(_Ignore):
    """Fills in the namespace slots of the elements it is replayed."""

    def __init__(self, doc: Document) -> None:
        self._elements = doc.root.iter()

    def start(self, name: tuple, attrs: dict[str, str], scope) -> None:
        elem = next(self._elements)
        _tag, elem.namespace, elem.prefix, elem.local_name, attributes, \
            declarations = name
        elem.ns_declarations = dict(declarations)
        for attr_name, *parts in attributes:
            attr = elem.attributes[attr_name]
            attr.namespace, attr.prefix, attr.local_name = parts


def resolve_namespaces(doc: Document) -> Document:
    """Resolve, in place, a tree built without the parser (which
    resolves as it reads); returns *doc*.

    Raises :class:`XMLNamespaceError` for undeclared prefixes, illegal
    re-bindings of the reserved ``xml``/``xmlns`` prefixes, and empty
    prefixed-namespace undeclarations (not allowed in Namespaces 1.0).
    """
    replay(doc, _Qualifier(doc))
    return doc
